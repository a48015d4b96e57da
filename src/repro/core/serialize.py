"""Exact JSON serialization of :class:`SimulationResult`.

The persistent run cache (:mod:`repro.experiments.cache`) and the
parallel-vs-serial determinism tests both need a lossless, canonical
representation of everything a run produced: the machine configuration,
every per-instruction :class:`~repro.core.instruction.InFlight` record
(including its event provenance enums and its consumer back-references),
the misprediction set and the optional ILP profile.

The representation is plain JSON types only, so ``result_to_dict(a) ==
result_to_dict(b)`` is the definition of "bit-identical results" used by
the test suite, and ``result_from_dict(result_to_dict(r))`` reproduces a
result whose every derived statistic (CPI, breakdowns, event
classifications) matches the original exactly.

Records are stored as columns (one list per field, in the batched
engine's structure-of-arrays order); ``InFlight.waiters`` are stored
sparsely as trace indices and re-linked on load.  Decoding is strict: a
damaged payload raises ``ValueError``, never a shorter record list.

Telemetry payloads (``SimulationResult.telemetry``) are optional and
round-trip losslessly, but are deliberately **absent** from the dict when
unset -- a telemetry-off result serializes byte-identically to the
pre-telemetry schema, so existing cache entries stay valid and
``CACHE_SCHEMA_VERSION`` did not need to move.  ``results_identical``
compares *simulation* output and ignores telemetry (an observational
payload that legitimately differs between the event and reference
simulators, which sample live state differently).
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from typing import Any

from repro.core.config import ClusterConfig, MachineConfig
from repro.core.instruction import (
    CommitReason,
    DispatchReason,
    InFlight,
    SteerCause,
)
from repro.core.rename import Dependences
from repro.core.results import IlpProfile, SimulationResult
from repro.frontend.fetch import FrontEndConfig
from repro.memory.cache import CacheConfig, MemoryConfig
from repro.vm.isa import OpClass
from repro.vm.trace import DynamicInstruction

# ---------------------------------------------------------------------------
# Machine configuration
# ---------------------------------------------------------------------------


def _cluster_to_dict(cluster: ClusterConfig) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "issue_width": cluster.issue_width,
        "int_ports": cluster.int_ports,
        "fp_ports": cluster.fp_ports,
        "mem_ports": cluster.mem_ports,
        "window_size": cluster.window_size,
    }
    # Key only present when set: a cluster without overrides serializes
    # byte-identically to the pre-heterogeneity schema.
    if cluster.latency_overrides:
        payload["latency_overrides"] = {
            name: cycles for name, cycles in cluster.latency_overrides
        }
    return payload


def _cluster_from_dict(data: dict[str, Any]) -> ClusterConfig:
    return ClusterConfig(**data)


def config_to_dict(config: MachineConfig) -> dict[str, Any]:
    """Flatten a :class:`MachineConfig` tree into JSON types.

    Uniform machines keep the legacy ``num_clusters``/``cluster`` spelling
    byte-for-byte (existing cache entries and goldens stay valid);
    heterogeneous machines serialize a ``clusters`` list instead.
    """
    memory = config.memory
    if config.is_uniform:
        core: dict[str, Any] = {
            "num_clusters": config.num_clusters,
            "cluster": _cluster_to_dict(config.cluster),
        }
    else:
        core = {"clusters": [_cluster_to_dict(c) for c in config.clusters]}
    return {
        **core,
        "rob_size": config.rob_size,
        "dispatch_width": config.dispatch_width,
        "commit_width": config.commit_width,
        "forwarding_latency": config.forwarding_latency,
        "forwarding_bandwidth": config.forwarding_bandwidth,
        "frontend": {
            "width": config.frontend.width,
            "depth_to_dispatch": config.frontend.depth_to_dispatch,
            "buffer_size": config.frontend.buffer_size,
            "break_on_taken_branch": config.frontend.break_on_taken_branch,
        },
        "memory": {
            "l1": _cache_config_to_dict(memory.l1),
            "l2_latency": memory.l2_latency,
            "l2": _cache_config_to_dict(memory.l2) if memory.l2 else None,
            "memory_latency": memory.memory_latency,
        },
    }


def config_from_dict(data: dict[str, Any]) -> MachineConfig:
    """Inverse of :func:`config_to_dict` (accepts both cluster spellings)."""
    memory = data["memory"]
    if "clusters" in data:
        clusters = tuple(_cluster_from_dict(c) for c in data["clusters"])
    else:
        clusters = (_cluster_from_dict(data["cluster"]),) * data["num_clusters"]
    return MachineConfig(
        clusters=clusters,
        rob_size=data["rob_size"],
        dispatch_width=data["dispatch_width"],
        commit_width=data["commit_width"],
        forwarding_latency=data["forwarding_latency"],
        forwarding_bandwidth=data["forwarding_bandwidth"],
        frontend=FrontEndConfig(**data["frontend"]),
        memory=MemoryConfig(
            l1=CacheConfig(**memory["l1"]),
            l2_latency=memory["l2_latency"],
            l2=CacheConfig(**memory["l2"]) if memory["l2"] else None,
            memory_latency=memory["memory_latency"],
        ),
    )


def _cache_config_to_dict(cache: CacheConfig) -> dict[str, Any]:
    return {
        "size_bytes": cache.size_bytes,
        "associativity": cache.associativity,
        "line_bytes": cache.line_bytes,
        "hit_latency": cache.hit_latency,
    }


# ---------------------------------------------------------------------------
# Per-instruction records, as columns
# ---------------------------------------------------------------------------

# One column per field, in the batched engine's structure-of-arrays order:
# the trace instruction, its dependences, then the InFlight timing and
# provenance (``index`` is the instruction's, ``waiters`` is sparse).
_INSTR_COLUMNS = tuple(f.name for f in fields(DynamicInstruction))
_DEPS_COLUMNS = tuple(f.name for f in fields(Dependences))
_RECORD_COLUMNS = tuple(
    name for name in InFlight.__slots__ if name not in ("instr", "deps", "index", "waiters")
)
_COLUMNS = _INSTR_COLUMNS + _DEPS_COLUMNS + _RECORD_COLUMNS
_INSTR_ROW = attrgetter(*_INSTR_COLUMNS)
_DEPS_ROW = attrgetter(*_DEPS_COLUMNS)
_RECORD_ROW = attrgetter(*_RECORD_COLUMNS)
# Enum columns hold member names (decoded through these name -> member
# maps); tuple columns are JSON lists.
_ENUMS = {
    "opclass": OpClass.__members__,
    "dispatch_reason": DispatchReason.__members__,
    "steer_cause": SteerCause.__members__,
    "commit_reason": CommitReason.__members__,
}
_TUPLES = ("srcs", "reg_deps")
_FIRST_DEP, _FIRST_RECORD = len(_INSTR_COLUMNS), len(_INSTR_COLUMNS) + len(_DEPS_COLUMNS)


def _records_to_columns(records: list[InFlight]) -> dict[str, Any]:
    """``{field: [value per record]}``, plus ``waiters`` as sparse pairs.

    ``waiters`` holds ``[index, [waiter indices]]`` for non-empty lists
    only: every backend drains them at the producer's issue, so a
    finished run's lists are all empty.
    """
    rows = [_INSTR_ROW(r.instr) + _DEPS_ROW(r.deps) + _RECORD_ROW(r) for r in records]
    transposed = zip(*rows)  # yields nothing for a record-less run
    columns = {name: list(next(transposed, ())) for name in _COLUMNS}
    for name in _ENUMS:
        # ``_name_`` is the plain attribute behind the ``name`` property.
        columns[name] = [member._name_ for member in columns[name]]
    for name in _TUPLES:
        columns[name] = [list(values) for values in columns[name]]
    # Sorted [cluster, arrival] pairs: JSON object keys would be strings.
    columns["forwarded_to_clusters"] = [
        [[c, t] for c, t in sorted(f.items())] for f in columns["forwarded_to_clusters"]
    ]
    columns["waiters"] = [
        [r.index, [w.index for w in r.waiters]] for r in records if r.waiters
    ]
    return columns


def _records_from_columns(columns: dict[str, Any]) -> list[InFlight]:
    """Inverse of :func:`_records_to_columns`: one ``zip`` over the columns.

    A ragged column raises ``ValueError`` (``zip`` alone would truncate),
    as do trace indices other than ``0..n-1`` and out-of-range waiters.
    """
    total = len(columns["index"])
    ragged = [name for name in _COLUMNS if len(columns[name]) != total]
    if ragged:
        raise ValueError(f"record columns {ragged} are not {total} long")
    if columns["index"] != list(range(total)):
        raise ValueError("record trace indices are not 0..n-1 in order")
    decoded = dict(columns)
    for name, members in _ENUMS.items():
        decoded[name] = [members[n] for n in columns[name]]
    for name in _TUPLES:
        decoded[name] = [tuple(values) for values in columns[name]]
    decoded["forwarded_to_clusters"] = [dict(f) for f in columns["forwarded_to_clusters"]]

    records: list[InFlight] = []
    new = InFlight.__new__
    for row in zip(*(decoded[name] for name in _COLUMNS)):
        rec = new(InFlight)
        rec.instr = DynamicInstruction(*row[:_FIRST_DEP])
        rec.deps = Dependences(*row[_FIRST_DEP:_FIRST_RECORD])
        rec.index = row[0]
        rec.waiters = []
        # Explicit targets in _RECORD_COLUMNS (InFlight.__slots__) order:
        # ~3x faster than a setattr loop; the round-trip tests pin it.
        (rec.cluster, rec.dispatch_time, rec.ready_time, rec.issue_time,
         rec.complete_time, rec.commit_time, rec.pending_deps, rec.operand_avail,
         rec.last_arriving_producer, rec.critical_operand_forwarded,
         rec.mem_latency_extra, rec.latency, rec.predicted_critical, rec.loc,
         rec.dispatch_reason, rec.dispatch_pred, rec.steer_cause,
         rec.commit_reason, rec.forwarded_to_clusters) = row[_FIRST_RECORD:]
        records.append(rec)
    # Trace indices are list positions, so waiters re-link by index.
    for index, waiters in columns["waiters"]:
        if not all(0 <= i < total for i in (index, *waiters)):
            raise ValueError(f"waiter edge out of range: {index} -> {waiters}")
        records[index].waiters = [records[i] for i in waiters]
    return records


# ---------------------------------------------------------------------------
# Whole results
# ---------------------------------------------------------------------------


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """Lossless JSON-type representation of a run.

    The ``telemetry`` key exists only when the run carried a payload, so
    telemetry-off results keep the exact pre-telemetry representation.
    """
    ilp = result.ilp_profile
    data = {
        "config": config_to_dict(result.config),
        "records": _records_to_columns(result.records),
        "cycles": result.cycles,
        "mispredicted": sorted(result.mispredicted),
        "global_values": result.global_values,
        "l1_hits": result.l1_hits,
        "l1_misses": result.l1_misses,
        "ilp_profile": None
        if ilp is None
        else {
            "issued_sum": {str(k): v for k, v in sorted(ilp.issued_sum.items())},
            "cycle_count": {str(k): v for k, v in sorted(ilp.cycle_count.items())},
        },
        "steering_name": result.steering_name,
        "scheduler_name": result.scheduler_name,
    }
    if result.telemetry is not None:
        from repro.telemetry.recorder import telemetry_to_dict

        data["telemetry"] = telemetry_to_dict(result.telemetry)
    return data


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`, re-linking consumer references.

    Strict: a missing key, a ragged column, an unknown enum name or an
    out-of-range waiter raises ``ValueError``, never a shorter result.
    """
    try:
        ilp = data["ilp_profile"]
        telemetry = data.get("telemetry")
        if telemetry is not None:
            from repro.telemetry.recorder import telemetry_from_dict

            telemetry = telemetry_from_dict(telemetry)
        return SimulationResult(
            config=config_from_dict(data["config"]),
            records=_records_from_columns(data["records"]),
            cycles=data["cycles"],
            mispredicted=frozenset(data["mispredicted"]),
            global_values=data["global_values"],
            l1_hits=data["l1_hits"],
            l1_misses=data["l1_misses"],
            ilp_profile=None
            if ilp is None
            else IlpProfile(
                issued_sum={int(k): v for k, v in ilp["issued_sum"].items()},
                cycle_count={int(k): v for k, v in ilp["cycle_count"].items()},
            ),
            steering_name=data["steering_name"],
            scheduler_name=data["scheduler_name"],
            telemetry=telemetry,
        )
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed result payload: {exc!r}") from exc


def results_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Whether two runs produced bit-identical results.

    Compares the canonical JSON forms, so every timing field, provenance
    enum, waiter edge and counter must match -- the invariant the parallel
    execution layer guarantees relative to serial execution.  Telemetry is
    observational metadata, not simulation output, and is excluded.
    """
    left = result_to_dict(a)
    right = result_to_dict(b)
    left.pop("telemetry", None)
    right.pop("telemetry", None)
    return left == right
