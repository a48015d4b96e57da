"""Synthetic workloads standing in for the SPEC CPU2000 integer suite."""

from repro.workloads.common import KernelSpec, random_cycle
from repro.workloads.suite import BY_NAME, SUITE, get_kernel, suite_names

__all__ = [
    "BY_NAME",
    "KernelSpec",
    "SUITE",
    "get_kernel",
    "random_cycle",
    "suite_names",
]
