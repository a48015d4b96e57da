"""Record the simulated counts every benchmark run is checked against.

Run from the repository root::

    python3 e2ebench/record.py 0-63

For each seed in the range and each workload, this runs the untimed
``--no-cache`` reference of ``run.py`` (and, for ``service_mix``, the
in-process references of every unit a run can reach) and writes the
figure digest, simulated cycles and simulations run to
``expected.json``, keeping the entries of other seeds.  Run it only when
a change to the program is meant to change simulated results, and say so
where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# Service units recorded per seed: enough for --seconds up to 40.
SERVICE_UNITS = 8


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def dump(recorded: dict) -> str:
    """JSON text with one line per workload and seed, so a diff shows which moved."""
    blocks = []
    for name in sorted(recorded):
        rows = [f'  "{seed}": {json.dumps(entry, sort_keys=True)}'
                for seed, entry in sorted(recorded[name].items(), key=lambda kv: int(kv[0]))]
        blocks.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=seed_range, help="FIRST-LAST, inclusive")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS),
                        help="only this workload (repeatable); default all")
    args = parser.parse_args(argv)
    recorded = run.load_recorded()
    work = run.ROOT / ".e2ebench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        program = run.Program(work)
        for name in args.workload or sorted(run.WORKLOADS):
            table = recorded.setdefault(name, {})
            for seed in args.seeds:
                workload = run.WORKLOADS[name]
                if workload is None:
                    table[str(seed)] = [run.unit_references(seed, unit)[1]
                                        for unit in range(SERVICE_UNITS)]
                else:
                    bench = run.CliRun(name, workload, program, seed, trace=False)
                    observed = bench.reference()
                    if observed is None or bench.tally.failed:
                        print(f"{name} seed {seed}: {bench.tally.reasons}", file=sys.stderr)
                        return 1
                    table[str(seed)] = observed
                print(f"{name} seed {seed} recorded", file=sys.stderr)
            run.EXPECTED.write_text(dump(recorded))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
