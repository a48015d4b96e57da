"""Traced launcher: ``repro.cli.main`` with per-layer spans wrapped around it.

Usage (from the repository root)::

    python e2ebench/launch.py LEDGER.json -- figure14 --no-cache ...
    python e2ebench/launch.py LEDGER.json -- serve --port 0 ...

The launcher imports the program, replaces each layer's public function
(see :data:`LAYERS`) at every module attribute callers look it up
through -- the defining module and every ``repro`` module that imported
it by name -- runs the same ``repro.cli.main`` the console command runs,
and writes the :class:`~ledger.Ledger` snapshot to ``LEDGER.json`` when
``main`` returns.  The program's own code is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from ledger import Ledger  # noqa: E402

# (module, attribute path, span name).  Each span reports its self time
# as the per-layer metric ``<span>_s``.
LAYERS = (
    ("repro.workloads.common", "KernelSpec.generate", "vm.generate"),
    ("repro.frontend.branch_predictor", "annotate_mispredictions", "frontend.annotate"),
    ("repro.core.rename", "extract_dependences", "core.rename"),
    ("repro.core.batched", "simulate_batched", "core.batched.simulate"),
    ("repro.core.simulator", "ClusteredSimulator.run", "core.simulator.run"),
    ("repro.experiments.batch", "warm_suite", "experiments.batch.warm_suite"),
    ("repro.criticality.critical_path", "analyze_critical_path", "criticality.critical_path"),
    ("repro.analysis.breakdown", "cpi_breakdown", "analysis.breakdown"),
    ("repro.analysis.events", "classify_lost_cycle_events", "analysis.events"),
    ("repro.core.serialize", "result_to_dict", "core.serialize.to_dict"),
    ("repro.core.serialize", "result_from_dict", "core.serialize.from_dict"),
    ("repro.experiments.cache", "RunCache.store", "experiments.cache.store"),
    ("repro.experiments.cache", "RunCache.load", "experiments.cache.load"),
    ("repro.service.durable", "DurableStore.record_submit", "service.durable.append"),
    ("repro.service.durable", "DurableStore.record_settle", "service.durable.append"),
    ("repro.service.durable", "DurableStore.record_terminal", "service.durable.append"),
    ("repro.service.durable", "DurableStore.record_evict", "service.durable.append"),
    ("repro.service.durable", "DurableStore.record_quota", "service.durable.append"),
    ("repro.service.durable", "DurableStore.append_event", "service.durable.append"),
)
FIGURE_SPAN = "experiments.figure.run"

# Simulated cycles of each engine's span, counted off its results.
SIM_CYCLES = {
    "core.batched.simulate": "core.batched.sim_cycles",
    "core.simulator.run": "core.simulator.sim_cycles",
}
# Counters the launcher itself writes to the ledger.
COUNTERS = (
    *SIM_CYCLES.values(),
    "experiments.cache.hits",
    "experiments.cache.misses",
    "experiments.cache.quarantined",
    "experiments.harness.simulations_run",
    "experiments.harness.failed",
)
# Measured by ``run.py`` from the client side of ``repro serve``.
SERVICE_METRICS = {
    "service.submit_rtt_s": "s",
    "service.queue_wait_s": "s",
    "service.execute_s": "s",
    "service.result_rtt_s": "s",
    "service.jobs_executed": "count",
    "service.jobs_cached": "count",
    "service.jobs_coalesced": "count",
    "service.refused": "count",
    "service.durable.journal_bytes_per_exp": "bytes",
}
# Every per-layer metric and its unit, the one list ``run.py`` reports
# and ``BENCHMARK.json`` names (``test_ledger.py`` checks they agree).
PER_LAYER_UNITS = {
    **{f"{span}_s": "s" for _, _, span in LAYERS},
    f"{FIGURE_SPAN}_s": "s",
    "vm.generate_calls": "count",
    **{name: ("cycles" if name.endswith("_cycles") else "count") for name in COUNTERS},
    **{f"{name}_per_s": "cycles/s" for name in SIM_CYCLES.values()},
    "experiments.cache.hit_ratio": "ratio",
    "experiments.cache.entry_bytes": "bytes",
    **SERVICE_METRICS,
    "ledger.tracing_overhead_s": "s",
    "ledger.uncovered_share": "ratio",
}


def _observe(ledger: Ledger, name: str, result) -> None:
    """Counters read off a layer call's result."""
    if name in SIM_CYCLES and result is not None:  # None: an unmaterialized warm-up
        ledger.count(SIM_CYCLES[name], result.cycles)
    elif name == "experiments.cache.load":
        ledger.count("experiments.cache.hits" if result is not None
                     else "experiments.cache.misses")


def _wrap(ledger: Ledger, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        ledger.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            ledger.end()
        _observe(ledger, name, result)
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute holding ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(ledger: Ledger, serving: bool) -> list:
    """Install the layer wrappers; returns the live program objects to read counters from.

    The service's layers are wrapped only when ``serving``, so a traced
    CLI pass imports nothing the untraced one would not.
    """
    import repro.cli  # noqa: F401 - load the CLI's import graph first
    import repro.experiments as experiments

    for module_name, path, name in LAYERS:
        if module_name.startswith("repro.service") and not serving:
            continue
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapper = _wrap(ledger, name, original)
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)

    for key, runner in list(experiments.EXPERIMENTS.items()):
        wrapper = _wrap(ledger, FIGURE_SPAN, runner)
        _rebind(runner, wrapper)
        experiments.EXPERIMENTS[key] = wrapper

    # Workbench and RunCache instances carry the harness and quarantine
    # counters; keep them so they can be read after main() returns.
    live: list = []
    harness = importlib.import_module("repro.experiments.harness")
    cache = importlib.import_module("repro.experiments.cache")
    for cls in (harness.Workbench, cache.RunCache):
        init = cls.__init__

        @functools.wraps(init)
        def tracked(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            live.append(self)

        cls.__init__ = tracked
    return live


def harvest(ledger: Ledger, live: list) -> None:
    from repro.experiments.cache import RunCache

    for obj in live:
        if isinstance(obj, RunCache):
            ledger.count("experiments.cache.quarantined", obj.quarantined)
        else:
            ledger.count("experiments.harness.simulations_run", obj.simulations_run)
            ledger.count("experiments.harness.failed", len(obj.failed_outcomes()))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py LEDGER.json -- REPRO-ARGS...", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    ledger = Ledger()
    live = install(ledger, serving=argv[2:3] == ["serve"])
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        harvest(ledger, live)
        out.write_text(json.dumps(ledger.to_dict()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
