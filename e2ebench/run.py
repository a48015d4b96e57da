"""End-to-end benchmark of the ``repro`` CLI and the ``repro serve`` service.

Run from the repository root::

    python3 e2ebench/run.py --workload fig14_cache --seed 1 --seconds 25 --trace 0

Each workload repeats a fixed number of *units of work* (sized from
``--seconds``, never from how fast the host is), then prints one line per
metric (name, value, unit) and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, measured with no tracing; ``--trace 1``
runs every program process a second time through ``launch.py`` and
reports the per-layer ledger instead.  Every program output is checked,
and the simulated counts are compared with those recorded for the seed
in ``expected.json``; a failed, refused or wrong operation counts as
failed and the command exits 1.  See ``README.md`` for the workloads,
the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

from launch import FIGURE_SPAN, LAYERS, PER_LAYER_UNITS, SERVICE_METRICS, SIM_CYCLES  # noqa: E402
from ledger import Gauge, Ledger, Tally, median, tail_percentile  # noqa: E402

PASS_TIMEOUT_S = 60.0
# No unit starts once a run has taken RUN_CAP_SHARE x --seconds (at most
# RUN_CAP_S): a run on a slow stretch of the host ends close to its
# nominal length, and one on a far slower host still within 180 s.  The
# statistics are medians, so a run cut short stays unbiased.
RUN_CAP_SHARE = 1.3
RUN_CAP_S = 110.0


def run_cap(seconds: float) -> float:
    return min(RUN_CAP_S, RUN_CAP_SHARE * seconds)
# Set-up samples per run, spread over its units.
SETUP_SAMPLES = 8
# Gauge jobs timed before each program process starts, and in the
# service's closed loop after every GAUGE_EVERY requests.  A sample is
# scaled by the median of the GAUGE_JOBS jobs on either side of it.
GAUGE_JOBS = 5
GAUGE_EVERY = 8
# Counts a simulation leaves in the ledger; deterministic for a seed.
SIM_COUNTS = (*SIM_CYCLES.values(), "experiments.harness.simulations_run")
STATUS_LINE = re.compile(
    r"^\[(?P<name>[\w.-]+): [\d.]+s"
    r"(?:; cache hits=(?P<hits>\d+))?"
    r"(?:; simulated=(?P<simulated>-?\d+))?"
    r"(?P<rest>.*)\]$"
)


def unit_count(seconds: float, unit_s: float) -> int:
    """Units in a run: a function of ``--seconds`` alone, at least two."""
    return max(2, round(seconds / unit_s))


# ---------------------------------------------------------------------------
# Recorded simulated counts
# ---------------------------------------------------------------------------


def load_recorded() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def check_recorded(tally: Tally, notes: list[str], recorded, what: str, observed) -> None:
    """Compare ``observed`` with the counts recorded for this seed, if any."""
    if recorded is None:
        notes.append(f"{what}: no counts recorded in expected.json for this seed; "
                     "the cross-run check was not made")
        return
    tally.check(observed == recorded,
                f"{what}: simulated counts {observed} differ from the recorded {recorded}")


# ---------------------------------------------------------------------------
# Program processes
# ---------------------------------------------------------------------------


@dataclass
class Finished:
    """One program process: wall time spawn -> exit, peak RSS, outputs."""

    wall: float
    mark: int  # the gauge's mark at spawn
    rss_mb: float
    code: int
    out: bytes
    err: str


class Program:
    """Spawns the program's processes in a scratch directory of the checkout.

    Before each process starts, the host's speed is sampled with
    :class:`~ledger.Gauge`, so the gauge spans the run the way its
    processes do.
    """

    def __init__(self, work: Path):
        self.work = work
        self.gauge = Gauge(GAUGE_JOBS)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}-{self._dirs}"
        path.mkdir()
        return path

    def argv(self, args: list[str], ledger: Path | None = None) -> list[str]:
        if ledger is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(HERE / "launch.py"), str(ledger), "--", *args]

    def run(self, args: list[str], ledger: Path | None = None) -> Finished:
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        self.gauge.tick(GAUGE_JOBS)
        mark = self.gauge.mark()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.argv(args, ledger), stdout=out, stderr=err, env=self.env, cwd=self.work
            )
            _, status, usage = _reap(proc, PASS_TIMEOUT_S)
            wall = time.perf_counter() - start
        return Finished(
            wall=wall,
            mark=mark,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=os.waitstatus_to_exitcode(status),
            out=out_path.read_bytes(),
            err=err_path.read_text(errors="replace"),
        )


def _reap(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` the process (its own rusage), killing it after ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        result = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(result[1])
    return result


def parse_status(err: str) -> dict[str, dict]:
    """The CLI's ``[figure: ...s; cache hits=N; simulated=M]`` lines, by figure."""
    found = {}
    for line in err.splitlines():
        match = STATUS_LINE.match(line.strip())
        if match:
            found[match["name"]] = {
                "hits": int(match["hits"]) if match["hits"] is not None else None,
                "simulated": int(match["simulated"]) if match["simulated"] else None,
                "rest": match["rest"],
            }
    return found


def sim_counts(ledger: dict) -> dict[str, int]:
    return {name: ledger["counters"].get(name, 0) for name in SIM_COUNTS}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    figures: tuple[str, ...]
    instructions: int
    kernels: tuple[str, ...] = ()
    cached: bool = True  # run the cold and warm passes after the no-cache one
    unit_s: float = 5.0  # a unit's typical wall time, for sizing runs

    def args(self, seed: int) -> list[str]:
        args = [*self.figures, "--instructions", str(self.instructions),
                "--seed", str(seed), "--workers", "0", "--json"]
        if self.kernels:
            args += ["--benchmarks", *self.kernels]
        return args


class CliRun:
    """Units of set-up probes and the passes: no-cache, cold, warm."""

    def __init__(self, name: str, workload: CliWorkload, program: Program, seed: int,
                 trace: bool):
        self.name = name
        self.wl = workload
        self.program = program
        self.seed = seed
        self.base = workload.args(seed)
        self.trace = trace
        self.tally = Tally()
        self.notes: list[str] = []
        self.samples: dict[str, list[float]] = {
            "setup": [], "nocache": [], "cold": [], "warm": [], "rss": [],
        }
        self.layer_units: list[dict] = []
        self.overhead: list[float] = []
        self.uncovered: list[float] = []
        self.entry_bytes: list[float] = []
        self.ref_out = b""
        self.ref_simulated = 0
        self.ref_counts: dict[str, int] = {}

    # -- checks ------------------------------------------------------------
    def check_pass(self, kind: str, done: Finished, hits: int | None) -> None:
        status = parse_status(done.err)
        simulated = sum(s["simulated"] or 0 for s in status.values())
        seen_hits = sum(s["hits"] or 0 for s in status.values())
        problems = []
        if done.code != 0:
            problems.append(f"exit {done.code}: {done.err.strip()[-300:]}")
        if set(status) != set(self.wl.figures):
            problems.append(f"status lines for {sorted(status)}")
        if any(s["rest"] for s in status.values()):
            problems.append("failed or quarantined jobs reported")
        if done.out != self.ref_out:
            problems.append("figure JSON differs from the --no-cache reference")
        want_sim = 0 if hits is not None and hits > 0 else self.ref_simulated
        if simulated != want_sim:
            problems.append(f"simulated={simulated}, want {want_sim}")
        if hits is not None and seen_hits != hits:
            problems.append(f"cache hits={seen_hits}, want {hits}")
        self.tally.check(not problems, f"{kind}: {'; '.join(problems)}")

    def reference(self) -> dict | None:
        """The untimed ``--no-cache`` reference, traced to count its simulated cycles.

        Returns what is recorded per seed in ``expected.json``, or None
        when the reference itself failed.
        """
        ledger_path = self.program.work / "ledger-reference.json"
        done = self.program.run(self.base + ["--no-cache"], ledger=ledger_path)
        status = parse_status(done.err)
        self.ref_out = done.out
        self.ref_simulated = sum(s["simulated"] or 0 for s in status.values())
        if not self.tally.check(
            done.code == 0 and set(status) == set(self.wl.figures) and self.ref_simulated > 0,
            f"reference run failed (exit {done.code}): {done.err.strip()[-300:]}",
        ):
            return None
        self.ref_counts = sim_counts(json.loads(ledger_path.read_text()))
        self.tally.check(
            self.ref_counts["experiments.harness.simulations_run"] == self.ref_simulated,
            f"reference: simulations_run {self.ref_counts} != simulated={self.ref_simulated}",
        )
        return {"figure_sha256": hashlib.sha256(done.out).hexdigest(), **self.ref_counts}

    def setup_probe(self) -> None:
        done = self.program.run(["--list-figures"])
        names = done.out.decode(errors="replace").split()
        if self.tally.check(
            done.code == 0 and all(f in names for f in self.wl.figures),
            f"--list-figures exit {done.code}",
        ):
            self.samples["setup"].append((done.wall, done.mark))

    # -- one unit ----------------------------------------------------------
    def unit(self, probes: int) -> None:
        for _ in range(probes):
            self.setup_probe()
        nocache = ("nocache", ["--no-cache"], None)
        passes = [nocache]
        untraced_dir = traced_dir = None
        if self.wl.cached:
            untraced_dir = self.program.fresh_dir("cache")
            on_disk = ["--cache-dir", str(untraced_dir)]
            passes += [("cold", on_disk, 0), ("warm", on_disk, self.ref_simulated)]
            if self.trace:
                traced_dir = self.program.fresh_dir("cache-traced")
        peak = 0.0
        parts, traced_kinds, wall_plain, wall_traced = [], set(), 0.0, 0.0
        for kind, extra, hits in passes:
            done = self.program.run(self.base + extra)
            self.check_pass(kind, done, hits)
            self.samples[kind].append((done.wall, done.mark))
            peak = max(peak, done.rss_mb)
            if kind == "cold":
                self.entry_bytes.append(_mean_entry_bytes(untraced_dir))
            if self.trace and kind not in traced_kinds:
                # One traced twin of each pass kind per unit.
                traced_kinds.add(kind)
                if traced_dir is not None and kind != "nocache":
                    extra = ["--cache-dir", str(traced_dir)]
                ledger_path = self.program.work / f"ledger-{kind}.json"
                traced = self.program.run(self.base + extra, ledger=ledger_path)
                self.check_pass(f"traced {kind}", traced, hits)
                part = json.loads(ledger_path.read_text())
                # A warm pass simulates nothing; the others what the reference did.
                want = {n: 0 for n in SIM_COUNTS} if kind == "warm" else self.ref_counts
                self.tally.check(sim_counts(part) == want,
                                 f"traced {kind}: counts {sim_counts(part)}, want {want}")
                parts.append(part)
                wall_plain += done.wall
                wall_traced += traced.wall
        self.samples["rss"].append(peak)
        if self.trace:
            merged = Ledger.merge(parts)
            self.layer_units.append(merged)
            self.overhead.append(wall_traced - wall_plain)
            self.uncovered.append(1.0 - merged["root_s"] / wall_traced)
        for path in (untraced_dir, traced_dir):
            if path is not None:
                shutil.rmtree(path, ignore_errors=True)

    def run(self, seconds: float, deadline: float) -> None:
        recorded = load_recorded().get(self.name, {}).get(str(self.seed))
        observed = self.reference()
        if observed is None:
            return
        check_recorded(self.tally, self.notes, recorded, "reference", observed)
        units = unit_count(seconds, self.wl.unit_s)
        probes = math.ceil(SETUP_SAMPLES / units)
        for index in range(units):
            if self.tally.failed:
                break
            if time.perf_counter() > deadline:
                self.notes.append(f"stopped after {index} of {units} units: run cap")
                break
            self.unit(probes)

    # -- results -----------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Medians of a fixed number of samples of each kind, at nominal host speed."""
        s = {kind: scaled(self.program.gauge, self.samples[kind])
             for kind in ("setup", "nocache", "cold", "warm")}
        nocache = median(s["nocache"])
        # With the cache bypassed a repeat recomputes, so the cold and
        # warm cells collapse onto the no-cache pass.
        cold = median(s["cold"]) if self.wl.cached else nocache
        warm = median(s["warm"]) if self.wl.cached else nocache
        kinds = (nocache, cold, warm) if self.wl.cached else (nocache,)
        self.notes.append(f"passes: nocache={len(s['nocache'])} cold={len(s['cold'])} "
                          f"warm={len(s['warm'])} setup={len(s['setup'])}; "
                          f"simulated per pass={self.ref_simulated}; counts {self.ref_counts}")
        self.notes.append(gauge_note(self.program.gauge))
        return {
            "setup_s": (median(s["setup"]), "s"),
            "nocache_s": (nocache, "s"),
            "cold_s": (cold, "s"),
            "warm_s": (warm, "s"),
            "peak_rss_mb": (median(self.samples["rss"]), "MB"),
            "exp_per_s": (len(kinds) / sum(kinds), "1/s"),
            "fresh_p50_s": (cold, "s"),
            "repeat_p50_s": (warm, "s"),
            "repeat_tail_s": (warm, "s"),
        }

    def per_layer(self) -> dict[str, float]:
        values = layer_metrics(self.layer_units)
        if self.entry_bytes:
            values["experiments.cache.entry_bytes"] = median(self.entry_bytes)
        values["ledger.tracing_overhead_s"] = median(self.overhead)
        values["ledger.uncovered_share"] = median(self.uncovered)
        self.notes.append(f"units={len(self.layer_units)}; per-layer values are medians "
                          f"over units of per-unit totals; reference counts {self.ref_counts}")
        return values


def _mean_entry_bytes(cache_dir: Path) -> float:
    sizes = [p.stat().st_size for p in cache_dir.rglob("*.json.gz")]
    return sum(sizes) / len(sizes) if sizes else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Self-time spans, each reported as ``<span>_s``.
LAYER_SPANS = tuple(dict.fromkeys([*(span for _, _, span in LAYERS), FIGURE_SPAN]))


def layer_metrics(units: list[dict]) -> dict[str, float]:
    """Medians over units of each unit's per-layer totals; zero where idle."""

    def med(fn) -> float:
        return median([fn(u) for u in units]) if units else 0.0

    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for span in LAYER_SPANS:
        values[f"{span}_s"] = med(lambda u, s=span: u["self_s"].get(s, 0.0))
    values["vm.generate_calls"] = med(lambda u: u["calls"].get("vm.generate", 0))
    counters = {name for name, unit in PER_LAYER_UNITS.items()
                if unit in ("count", "cycles") and name not in SERVICE_METRICS}
    for name in counters - {"vm.generate_calls"}:
        values[name] = med(lambda u, n=name: u["counters"].get(n, 0))
    for span, cycles in SIM_CYCLES.items():
        values[f"{cycles}_per_s"] = med(
            lambda u, c=cycles, s=span: _ratio(u["counters"].get(c, 0), u["self_s"].get(s, 0.0))
        )
    values["experiments.cache.hit_ratio"] = med(
        lambda u: _ratio(
            u["counters"].get("experiments.cache.hits", 0),
            u["counters"].get("experiments.cache.hits", 0)
            + u["counters"].get("experiments.cache.misses", 0),
        )
    )
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------

# The mix is synthetic (README, "service_mix"): its sizes follow from
# the samples each metric needs in one unit.  FRESH_PER_UNIT fresh specs
# give a unit's fresh median; REPEATS_PER_UNIT repeats are the fewest
# with ten samples beyond p95; every DUP_EVERY-th fresh spec is sent
# twice back to back, so coalescing is on the path.
FRESH_PER_UNIT = 9
REPEATS_PER_UNIT = 200
DUP_EVERY = 3
# Every fresh spec runs the same kernels and policy, so every spec (and
# every seed) costs the same; the seed picks each spec's data seed and
# the order and targets of the repeats.
FRESH_KERNELS = ("gzip", "vpr", "gcc", "mcf")
FRESH_POLICY = "l"
FRESH_INSTRUCTIONS = 300
SERVICE_UNIT_S = 6.5


def spec_index(unit: int, fresh: int) -> int:
    return unit * 100 + fresh


def fresh_spec(seed: int, index: int) -> dict:
    data_seed = random.Random(f"{seed}/{index}").randrange(1 << 30)
    return {
        "name": f"mix-{index}",
        "instructions": FRESH_INSTRUCTIONS,
        "workloads": [{"kernel": kernel, "seed": data_seed} for kernel in FRESH_KERNELS],
        "sweeps": [{"machines": [{"clusters": 4}], "policies": [FRESH_POLICY]}],
    }


def mix_plan(seed: int, unit: int) -> list[tuple[str, int]]:
    """The unit's requests: ``("fresh"|"dup", spec index)`` or ``("repeat", k)``.

    The first request is a fresh spec, so a repeat always has a finished
    spec to draw from; ``k`` seeds the repeat's choice among the specs
    finished on this server so far.
    """
    rng = random.Random(f"mix/{seed}/{unit}")
    fresh = [("dup" if i % DUP_EVERY == DUP_EVERY - 1 else "fresh", spec_index(unit, i))
             for i in range(FRESH_PER_UNIT)]
    rest = fresh[1:] + [("repeat", rng.randrange(1 << 30)) for _ in range(REPEATS_PER_UNIT)]
    rng.shuffle(rest)
    return [fresh[0], *rest]


@dataclass
class Op:
    kind: str
    spec: int
    t0: float = 0.0
    latency: float = 0.0
    submit_rtt: float = 0.0
    queue_wait: float = 0.0
    execute: float = 0.0
    result_rtt: float = 0.0
    digest: str = ""
    mark: int = 0  # the gauge's mark at submit


def report_digest(report: dict) -> str:
    """Hash of a RunReport's figure and per-run cycles (JSON text: NaN-safe)."""
    rows = sorted(
        (r["kernel"], r["config"], r["policy"], r["cycles"], r["instructions"])
        for r in report["runs"]
    )
    text = json.dumps({"figure": report["figure"], "runs": rows}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def unit_references(seed: int, unit: int) -> tuple[dict[int, str], dict, list[float]]:
    """In-process ``run_spec`` (no cache, no service) of a unit's fresh specs.

    Returns each spec's report digest, the unit's record for
    ``expected.json`` (a digest of those digests, the simulated cycles
    and the simulations run) and each spec's wall time.
    """
    sys.path.insert(0, str(SRC))
    from repro.api import Workbench
    from repro.experiments.sweep import run_spec
    from repro.specs import ExperimentSpec, policy_label

    digests, times, cycles, simulations = {}, [], 0, 0
    for fresh in range(FRESH_PER_UNIT):
        index = spec_index(unit, fresh)
        spec = ExperimentSpec.from_dict(fresh_spec(seed, index))
        start = time.perf_counter()
        bench = Workbench(workers=0)
        figure = run_spec(bench, spec).to_dict()
        times.append(time.perf_counter() - start)
        runs = []
        for job in spec.jobs(bench):
            result = bench.result_for(job)
            cycles += result.cycles
            runs.append({"kernel": job.kernel, "config": job.config.name,
                         "policy": policy_label(job.policy), "cycles": result.cycles,
                         "instructions": result.instructions})
        simulations += bench.simulations_run
        digests[index] = report_digest({"figure": figure, "runs": runs})
    joined = "".join(digests[i] for i in sorted(digests))
    record = {"digest": hashlib.sha256(joined.encode()).hexdigest(),
              "sim_cycles": cycles, "experiments.harness.simulations_run": simulations}
    return digests, record, times


class ServiceRun:
    """Units of ``[boot server, closed-loop mix, drain]``, one fresh cache each."""

    def __init__(self, program: Program, seed: int, trace: bool):
        sys.path.insert(0, str(SRC))
        from repro.api import Client, ServiceError

        self.Client = Client
        self.ServiceError = ServiceError
        self.program = program
        self.seed = seed
        self.trace = trace
        self.tally = Tally()
        self.notes: list[str] = []
        # Every request's latency and every set-up of the run, pooled, as
        # (seconds, gauge mark); ``loop`` holds each unit's (requests,
        # loop seconds, first mark, last mark).
        self.samples: dict[str, list] = {
            "setup": [], "rss": [], "nocache": [], "fresh": [], "repeat": [], "loop": [],
        }
        self.ops: list[Op] = []
        self.refs: dict[int, str] = {}
        self.layer_units: list[dict] = []
        self.overhead: list[float] = []
        self.uncovered: list[float] = []
        self.refused = 0
        self.units = 0

    # -- server lifecycle ----------------------------------------------------
    def boot(self, cache: Path, ledger: Path | None):
        args = ["serve", "--port", "0", "--workers", "0", "--cache-dir", str(cache)]
        argv = self.program.argv(args, ledger)
        self.program.gauge.tick(GAUGE_JOBS)
        mark = self.program.gauge.mark()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [argv[0], "-u", *argv[1:]],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=self.program.env,
            cwd=self.program.work,
        )
        try:
            watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline().decode(errors="replace")
            finally:
                watchdog.cancel()
            if "repro service listening on " not in line:
                raise RuntimeError(f"server did not announce: {line!r}")
            url = line.split("repro service listening on ", 1)[1].split()[0]
            client = self.Client(url, client_id="bench")
            while client.readyz().get("status") != "ready":
                if time.perf_counter() - start > PASS_TIMEOUT_S:
                    raise RuntimeError("server never became ready")
                time.sleep(0.002)
        except BaseException:
            self.stop(proc)
            raise
        return proc, url, (time.perf_counter() - start, mark)

    def stop(self, proc: subprocess.Popen) -> tuple[int, float, str]:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        _, status, usage = _reap(proc, PASS_TIMEOUT_S)
        tail = proc.stdout.read().decode(errors="replace")
        proc.stdout.close()
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, tail

    def boot_probe(self) -> None:
        """A set-up sample: boot a server on a fresh cache dir, then drain it."""
        cache = self.program.fresh_dir("service")
        try:
            proc, _, setup = self.boot(cache, None)
        except (RuntimeError, OSError) as exc:
            self.tally.fail(f"boot: {exc}")
            return
        code, _, tail = self.stop(proc)
        if self.tally.check(code == 0, f"server exit {code}: {tail.strip()[-300:]}"):
            self.samples["setup"].append(setup)
        shutil.rmtree(cache, ignore_errors=True)

    # -- one experiment ------------------------------------------------------
    def submit(self, client, spec: dict, op: Op) -> str:
        op.mark = self.program.gauge.mark()
        op.t0 = time.perf_counter()
        exp_id = client.submit(spec)["id"]
        op.submit_rtt = time.perf_counter() - op.t0
        return exp_id

    def finish(self, client, exp_id: str, op: Op) -> None:
        """Follow the experiment's SSE stream to its end, then fetch the result."""
        t_run = t_done = final = None
        for event in client.events(exp_id, timeout=PASS_TIMEOUT_S):
            now = time.perf_counter()
            data = event.get("data") or {}
            if event.get("event") == "status" and data.get("status") == "running":
                t_run = t_run or now
            if event.get("event") in ("done", "error"):
                t_done, final = now, event["event"]
        if final != "done":
            raise RuntimeError(f"{exp_id} ended {final!r}")
        report = client.result(exp_id)
        t_end = time.perf_counter()
        t_run = t_run or t_done
        op.latency = t_end - op.t0
        op.queue_wait = t_run - (op.t0 + op.submit_rtt)
        op.execute = t_done - t_run
        op.result_rtt = t_end - t_done
        op.digest = report_digest(report)

    # -- one unit ------------------------------------------------------------
    def closed_loop(self, url: str, unit: int) -> tuple[list[Op], tuple[float, int, int], dict]:
        """One client sends the unit's requests, each after the previous one's result.

        Returns the requests, ``(loop seconds, first mark, last mark)``
        and the server's stats.
        """
        client = self.Client(url, client_id="bench")
        finished: list[int] = []
        ops: list[Op] = []
        gauged = 0.0
        first = self.program.gauge.mark()
        start = time.perf_counter()
        for sent, (kind, arg) in enumerate(mix_plan(self.seed, unit)):
            if sent and sent % GAUGE_EVERY == 0:
                # Between requests, with the server idle; not loop time.
                paused = time.perf_counter()
                self.program.gauge.tick(1)
                gauged += time.perf_counter() - paused
            if kind == "repeat":
                if not finished:
                    self.tally.fail("repeat drawn before any spec finished")
                    continue
                arg = finished[random.Random(arg).randrange(len(finished))]
            batch = [Op("repeat" if kind == "repeat" else "fresh", arg)]
            if kind == "dup":
                # The same new spec twice before waiting on either: the
                # second rides the first's in-flight jobs (coalesced).
                batch.append(Op("dup", arg))
            spec = fresh_spec(self.seed, arg)
            try:
                ids = [self.submit(client, spec, op) for op in batch]
                for exp_id, op in zip(ids, batch):
                    self.finish(client, exp_id, op)
            except self.ServiceError as exc:
                self.refused += 1
                self.tally.fail(f"service refused {kind} mix-{arg}: {exc}")
                continue
            except (OSError, RuntimeError, KeyError, TimeoutError) as exc:
                self.tally.fail(f"{kind} mix-{arg}: {type(exc).__name__}: {exc}")
                continue
            ops.extend(batch)
            if kind != "repeat":
                finished.append(arg)
        wall = time.perf_counter() - start - gauged
        return ops, (wall, first, self.program.gauge.mark()), client.stats()

    def serve_unit(self, unit: int, ledger: Path | None, executed: int):
        cache = self.program.fresh_dir("service")
        try:
            proc, url, setup = self.boot(cache, ledger)
        except (RuntimeError, OSError) as exc:
            self.tally.fail(f"boot: {exc}")
            return None
        try:
            ops, loop, stats = self.closed_loop(url, unit)
        finally:
            code, rss, tail = self.stop(proc)
        self.tally.check(code == 0 and "drained and stopped" in tail,
                         f"server exit {code}: {tail.strip()[-300:]}")
        self.tally.check(stats["jobs"]["executed"] == executed,
                         f"unit {unit}: server executed {stats['jobs']['executed']} jobs, "
                         f"want {executed} (the in-process simulations)")
        journal = sum(p.stat().st_size for p in (cache / "service").rglob("*") if p.is_file())
        shutil.rmtree(cache, ignore_errors=True)
        return ops, loop, stats, setup, rss, journal

    def reference(self, index: int, recorded: list | None) -> int:
        """A unit's in-process references; returns the jobs its server must execute."""
        self.program.gauge.tick(GAUGE_JOBS)
        mark = self.program.gauge.mark()
        digests, record, times = unit_references(self.seed, index)
        self.refs.update(digests)
        self.samples["nocache"].extend((t, mark) for t in times)
        if recorded is not None and index >= len(recorded):
            recorded = None
        check_recorded(self.tally, self.notes, recorded and recorded[index],
                       f"service unit {index}", record)
        return record["experiments.harness.simulations_run"]

    def unit(self, index: int, probes: int, executed: int) -> None:
        plain = self.serve_unit(index, None, executed)
        if plain is None:
            return
        ops, loop, stats, setup, rss, journal = plain
        self.samples["setup"].append(setup)
        self.samples["rss"].append(rss)
        self.ops.extend(ops)
        self.samples["fresh"].extend((op.latency, op.mark) for op in ops if op.kind == "fresh")
        self.samples["repeat"].extend((op.latency, op.mark) for op in ops if op.kind == "repeat")
        self.samples["loop"].append((len(ops), *loop))
        for _ in range(probes - 1):
            self.boot_probe()
        if self.trace:
            ledger_path = self.program.work / "ledger-serve.json"
            traced = self.serve_unit(index, ledger_path, executed)
            if traced is None:
                return
            t_ops, t_loop, t_stats, _, _, t_journal = traced
            merged = json.loads(ledger_path.read_text())
            self.overhead.append(t_loop[0] - loop[0])
            self.uncovered.append(1.0 - merged["root_s"] / t_loop[0])
            timed = [op for op in t_ops if op.kind != "dup"]
            jobs = t_stats["jobs"]
            merged["service"] = {
                "service.submit_rtt_s": _mean([op.submit_rtt for op in timed]),
                "service.queue_wait_s": _mean([op.queue_wait for op in timed]),
                "service.execute_s": _mean([op.execute for op in timed]),
                "service.result_rtt_s": _mean([op.result_rtt for op in timed]),
                "service.jobs_executed": jobs["executed"],
                "service.jobs_cached": jobs["cached"],
                "service.jobs_coalesced": jobs["coalesced"],
                "service.refused": self.refused,
                "service.durable.journal_bytes_per_exp": t_journal / max(1, len(t_ops)),
            }
            self.layer_units.append(merged)
            self.ops.extend(t_ops)

    def check_results(self) -> None:
        """Compare every service result with its in-process reference."""
        for op in self.ops:
            self.tally.check(op.digest == self.refs.get(op.spec),
                             f"{op.kind} mix-{op.spec}: result differs from run_spec")

    def run(self, seconds: float, deadline: float) -> None:
        recorded = load_recorded().get("service_mix", {}).get(str(self.seed))
        units = unit_count(seconds, SERVICE_UNIT_S)
        probes = math.ceil(SETUP_SAMPLES / units)
        for index in range(units):
            if self.tally.failed:
                break
            if time.perf_counter() > deadline:
                self.notes.append(f"stopped after {index} of {units} units: run cap")
                break
            self.unit(index, probes, self.reference(index, recorded))
            self.units += 1
        self.check_results()

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Statistics of every request of the run, pooled, at nominal host speed."""
        gauge = self.program.gauge
        s = {kind: scaled(gauge, self.samples[kind])
             for kind in ("setup", "nocache", "fresh", "repeat")}
        fresh, repeat = s["fresh"], s["repeat"]
        pct, tail, n = tail_percentile(repeat)
        requests = sum(count for count, *_ in self.samples["loop"])
        # A unit's loop time is scaled by the jobs timed during it.
        loop_s = sum(wall * gauge.factor(first - GAUGE_JOBS, last + GAUGE_JOBS)
                     for _, wall, first, last in self.samples["loop"])
        self.notes.append(
            f"units={self.units}; per unit {FRESH_PER_UNIT} fresh "
            f"({FRESH_PER_UNIT // DUP_EVERY} sent twice) and {REPEATS_PER_UNIT} repeats; "
            f"{len(fresh)} fresh and {n} repeat latencies; repeat tail = p{pct:g}")
        self.notes.append(gauge_note(self.program.gauge))
        return {
            "setup_s": (median(s["setup"]), "s"),
            "nocache_s": (median(s["nocache"]), "s"),
            "cold_s": (_mean(fresh), "s"),
            "warm_s": (_mean(repeat), "s"),
            "peak_rss_mb": (median(self.samples["rss"]), "MB"),
            "exp_per_s": (requests / loop_s, "1/s"),
            "fresh_p50_s": (median(fresh), "s"),
            "repeat_p50_s": (median(repeat), "s"),
            "repeat_tail_s": (tail, "s"),
        }

    def per_layer(self) -> dict[str, float]:
        values = layer_metrics(self.layer_units)
        for name in SERVICE_METRICS:
            values[name] = median([u["service"][name] for u in self.layer_units])
        values["ledger.tracing_overhead_s"] = median(self.overhead)
        values["ledger.uncovered_share"] = median(self.uncovered)
        self.notes.append(f"units={len(self.layer_units)}; uncovered_share counts the "
                          "server's idle time between requests")
        return values


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def scaled(gauge: Gauge, samples: list[tuple[float, int]]) -> list[float]:
    """Each ``(seconds, mark)`` sample at the nominal host speed."""
    return [seconds * gauge.scale(mark) for seconds, mark in samples]


def gauge_note(gauge: Gauge) -> str:
    return (f"gauge: {len(gauge.times)} jobs, median {median(gauge.times) * 1e3:.2f} ms "
            f"(factor {gauge.factor(0, len(gauge.times)):.4f}); each sample is scaled by "
            f"the {2 * gauge.width} jobs around it (raw samples and marks below)")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = {
    "fig14_cache": CliWorkload(("figure14",), 500, ("gcc", "vpr", "gzip"), unit_s=5.0),
    "records_cache": CliWorkload(("figure5", "figure6", "figure8"), 1000,
                                 ("gcc", "vpr", "gzip"), unit_s=4.6),
    # hetero_sweep's spec fixes its six kernels; --benchmarks does not narrow it.
    "hetero_event": CliWorkload(("hetero_sweep",), 500, cached=False, unit_s=2.7),
    "service_mix": None,
}


def _terminate(*_) -> None:
    # A second SIGTERM must not cut the clean-up of the first one short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"e2ebench: the program is missing (no {SRC / 'repro'})", file=sys.stderr)
        return 2

    # A SIGTERM unwinds through the finally blocks, which stop and reap
    # every program process and remove the scratch directory.
    signal.signal(signal.SIGTERM, _terminate)
    # This process, the gauge and every program process (which inherit
    # the affinity) share one CPU.  The VM's CPUs slow down separately,
    # so a gauge on another CPU than the program misreads its speed, and
    # a reply that wakes an idle CPU waits for the host to schedule it.
    # The workloads run one process at a time, so one CPU is enough.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".e2ebench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        program = Program(work)
        workload = WORKLOADS[args.workload]
        if workload is None:
            bench = ServiceRun(program, args.seed, bool(args.trace))
        else:
            bench = CliRun(args.workload, workload, program, args.seed, bool(args.trace))
        bench.run(args.seconds, started + run_cap(args.seconds))
        program.gauge.tick(GAUGE_JOBS)  # the jobs after the last sample
        tally = bench.tally
        metrics: dict[str, dict] = {}
        if not tally.failed:
            if args.trace:
                values = bench.per_layer()
                metrics = {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]}
                           for name in sorted(values)}
            else:
                metrics = {name: {"value": value, "unit": unit}
                           for name, (value, unit) in bench.end_to_end().items()}
        for note in bench.notes:
            print(f"# {note}")
        print("# samples " + json.dumps({**bench.samples, "gauge": bench.program.gauge.times}))
        for name, metric in metrics.items():
            print(f"{args.workload}/{name} = {metric['value']:.6g} {metric['unit']}")
        for reason in tally.reasons:
            print(f"FAILED: {reason}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
