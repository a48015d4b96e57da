"""The columnar result codec and the run cache that stores it.

``result_from_dict`` must be strict: a damaged payload raises
``ValueError`` instead of decoding into a shorter or re-ordered record
list (a plain ``zip`` over ragged columns would silently truncate, and
the truncated result would read as a wrong CPI in a figure).  The cache
turns that ``ValueError`` into a quarantine and a recomputation, so a
figure drawn over damaged entries is byte-identical to a clean one.
"""

from __future__ import annotations

import gzip
import json
import os
import threading

import pytest

from repro.core.config import clustered_machine, fp_less_thin_machine
from repro.core.serialize import result_from_dict, result_to_dict, results_identical
from repro.experiments.cache import CACHE_SCHEMA_VERSION, RunCache, job_key
from repro.experiments.fig14 import run_figure14
from repro.experiments.harness import Workbench
from repro.experiments.parallel import RunJob, execute_job
from repro.workloads.suite import get_kernel

INSTRUCTIONS = 300


def _columns(result: dict) -> dict:
    return result["records"]


# Each damage mutates a decoded ``result_to_dict`` payload in place.
DAMAGES = {
    "ragged column": lambda r: _columns(r)["issue_time"].pop(),
    "missing column": lambda r: _columns(r).pop("commit_reason"),
    "missing top-level key": lambda r: r.pop("cycles"),
    "unknown enum name": lambda r: _columns(r)["steer_cause"].__setitem__(0, "PSYCHIC"),
    "waiter past the end": lambda r: _columns(r)["waiters"].append(
        [0, [len(_columns(r)["index"])]]
    ),
    "negative waiter": lambda r: _columns(r)["waiters"].append([1, [-1]]),
    "out-of-order trace index": lambda r: _columns(r)["index"].reverse(),
}


@pytest.fixture(scope="module")
def result():
    job = RunJob(
        kernel="gcc",
        instructions=INSTRUCTIONS,
        seed=0,
        loc_mode="probabilistic",
        config=clustered_machine(4),
        policy="focused",
        collect_ilp=True,
    )
    return job, execute_job(job)


def _json_copy(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


class TestColumnarCodec:
    def test_records_are_columns_of_one_length(self, result):
        _, run = result
        columns = _columns(result_to_dict(run))
        waiters = columns.pop("waiters")
        assert {len(column) for column in columns.values()} == {len(run.records)}
        assert waiters == []  # every backend drains waiter lists by the end

    def test_round_trip_through_json_is_exact(self, result):
        _, run = result
        payload = result_to_dict(run)
        revived = result_from_dict(_json_copy(payload))
        assert result_to_dict(revived) == _json_copy(payload)
        assert results_identical(revived, run)
        assert revived.cpi == run.cpi

    def test_sparse_waiters_relink_to_records(self, result):
        _, run = result
        payload = _json_copy(result_to_dict(run))
        _columns(payload)["waiters"] = [[3, [5, 7]]]
        revived = result_from_dict(payload)
        assert revived.records[3].waiters == [revived.records[5], revived.records[7]]
        assert all(not r.waiters for i, r in enumerate(revived.records) if i != 3)

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_payload_raises_value_error(self, result, damage):
        _, run = result
        payload = _json_copy(result_to_dict(run))
        DAMAGES[damage](payload)
        with pytest.raises(ValueError):
            result_from_dict(payload)


def _damage_entry(path, damage) -> None:
    payload = json.loads(gzip.decompress(path.read_bytes()))
    DAMAGES[damage](payload["result"])
    path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8")))


class TestDamagedEntriesAreRecomputed:
    def test_each_damage_quarantined_and_figure_byte_identical(self, tmp_path):
        kernels = [get_kernel("gcc")]
        clean = str(run_figure14(Workbench(instructions=INSTRUCTIONS, benchmarks=kernels)))

        filled = RunCache(tmp_path)
        run_figure14(Workbench(instructions=INSTRUCTIONS, benchmarks=kernels, cache=filled))
        entries = sorted(tmp_path.rglob("*.json.gz"))
        assert len(entries) >= len(DAMAGES)
        victims = dict(zip(sorted(DAMAGES), entries))
        for damage, path in victims.items():
            _damage_entry(path, damage)

        cache = RunCache(tmp_path)
        bench = Workbench(instructions=INSTRUCTIONS, benchmarks=kernels, cache=cache)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            figure = str(run_figure14(bench))
        assert figure == clean
        assert cache.quarantined == len(DAMAGES)
        assert bench.simulations_run == len(DAMAGES)
        for path in victims.values():
            assert path.with_name(path.name + ".corrupt").exists()
            assert path.exists()  # recomputed and re-stored

        healed = RunCache(tmp_path)
        again = Workbench(instructions=INSTRUCTIONS, benchmarks=kernels, cache=healed)
        assert str(run_figure14(again)) == clean
        assert again.simulations_run == 0 and healed.quarantined == 0


    def test_garbled_deflate_body_is_quarantined(self, tmp_path, result):
        """Damage past the gzip header surfaces as ``zlib.error``, which
        must quarantine like any other corruption, not escape ``load``."""
        job, run = result
        cache = RunCache(tmp_path)
        cache.store(job, run)
        (path,) = tmp_path.rglob("*.json.gz")
        data = bytearray(path.read_bytes())
        data[200:260] = bytes(b ^ 0xA5 for b in data[200:260])
        path.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.load(job) is None
        assert cache.quarantined == 1


class TestStore:
    def test_entry_is_one_deterministic_gzip_member(self, tmp_path, result):
        job, run = result
        cache = RunCache(tmp_path)
        cache.store(job, run)
        (path,) = tmp_path.rglob("*.json.gz")
        first = path.read_bytes()
        payload = json.loads(gzip.decompress(first))
        assert payload["schema_version"] == CACHE_SCHEMA_VERSION == 5
        cache.store(job, run)
        assert path.read_bytes() == first  # mtime=0: same result, same bytes

    def test_two_threads_storing_one_key_do_not_collide(
        self, tmp_path, result, monkeypatch
    ):
        """Both threads finish writing their temp file before either
        publishes it; a temp name shared between the threads would make
        the second ``os.replace`` fail (or publish the other's file)."""
        job, run = result
        cache = RunCache(tmp_path)
        barrier = threading.Barrier(2, timeout=10.0)
        real_replace = os.replace

        def replace_when_both_wrote(src, dst):
            barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_when_both_wrote)
        errors: list[BaseException] = []

        def store() -> None:
            try:
                cache.store(job, run)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=store) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        monkeypatch.undo()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.stores == 2
        assert not [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]
        loaded = RunCache(tmp_path).load(job)
        assert loaded is not None and results_identical(loaded, run)


class TestPinnedKeys:
    """Literal cache keys: a refactor that moves a key fails here, loudly.

    Every cached entry is addressed by ``job_key``, so a changed digest
    silently orphans every existing cache.  The jobs go through
    ``Workbench.job`` so the backend choice is pinned along with the
    payload.  Bump these only together with ``CACHE_SCHEMA_VERSION``.
    """

    def test_uniform_job_key(self):
        job = Workbench(instructions=1000, seed=3).job(
            get_kernel("gcc"), clustered_machine(4), "l"
        )
        assert job.sim == "batched"
        assert job_key(job) == (
            "bb6f8244f97c916c6a3cfae7b12b3286c4755215ae920af797cdd3b2e109f712"
        )

    def test_heterogeneous_job_key(self):
        job = Workbench(instructions=1000, seed=3).job(
            get_kernel("mcf"), fp_less_thin_machine(), "affinity"
        )
        assert job.sim == "event"
        assert job_key(job) == (
            "509c0b08923a69c517496ab419c7efdce7432f805df6e0653890b36017d9b3c8"
        )
