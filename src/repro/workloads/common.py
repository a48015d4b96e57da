"""Workload kernel infrastructure.

The paper evaluates the 12 SPEC CPU2000 integer benchmarks.  Those binaries
and traces are not available, so each benchmark is substituted by a kernel
written in the mini ISA that exhibits the dataflow feature the paper
attributes to it (convergent dataflow in bzip2, spine-and-ribs hammocks in
vpr, pointer chasing in mcf, ...).  Kernels execute real data-dependent
control flow over seeded random data, so branch mispredictions come from the
gshare predictor, not from annotations.

Every kernel is an infinite outer loop; traces are produced by truncating
execution at a requested dynamic instruction count, which samples
steady-state behaviour cleanly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.util.rng import seeded_rng
from repro.vm.assembler import Program, assemble
from repro.vm.interpreter import run
from repro.vm.trace import DynamicInstruction

# (initial memory word -> value, initial register id -> value)
SetupFn = Callable[[random.Random], tuple[dict[int, float], dict[int, float]]]

DEFAULT_MEMORY_WORDS = 1 << 17


@dataclass(frozen=True)
class KernelSpec:
    """One synthetic benchmark kernel."""

    name: str
    description: str
    paper_feature: str
    source: str
    setup: SetupFn
    memory_words: int = DEFAULT_MEMORY_WORDS

    def program(self) -> Program:
        """Assemble the kernel."""
        return assemble(self.source)

    def generate(self, max_instructions: int, seed: int = 0) -> list[DynamicInstruction]:
        """Execute the kernel and return its dynamic trace."""
        rng = seeded_rng("workload", self.name, seed)
        memory, regs = self.setup(rng)
        return run(
            self.program(),
            max_instructions,
            initial_memory=memory,
            initial_regs=regs,
            memory_words=self.memory_words,
        )


def random_cycle(rng: random.Random, indices: list[int]) -> dict[int, int]:
    """Link ``indices`` into one random cycle: ``mem[i] = next(i)``.

    Used for pointer-chasing kernels (heap chains, hash chains, linked
    lists); a single cycle guarantees the walk never terminates early.
    """
    if len(indices) < 2:
        raise ValueError("need at least two nodes for a cycle")
    order = list(indices)
    rng.shuffle(order)
    links = {}
    for here, there in zip(order, order[1:]):
        links[here] = there
    links[order[-1]] = order[0]
    return links
