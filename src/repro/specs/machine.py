"""Serializable machine geometry: :class:`MachineSpec`.

A ``MachineSpec`` is the declarative form of the paper's machine
configurations -- the cluster count plus the knobs
:func:`repro.core.config.clustered_machine` accepts -- validated eagerly
(bad geometries fail at spec-construction time, before any simulation)
and hashable into cache keys via its canonical payload.

``clusters`` may also be a per-cluster list (heterogeneous machines):
each entry spells one :class:`~repro.core.config.ClusterConfig`,
including optional ``latency_overrides``.  The canonical payload
*collapses* a uniform list that matches the paper scaling back to the
legacy integer spelling, so a spec written either way hashes (and
caches) identically -- heterogeneous payloads are strictly new keys.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.config import (
    TOTAL_WIDTH,
    ClusterConfig,
    MachineConfig,
    clustered_machine,
    heterogeneous_machine,
)
from repro.specs.common import SpecError, reject_unknown_keys, require_type

__all__ = ["MachineSpec"]

_SCHEMA_KEYS = {
    "clusters",
    "forwarding_latency",
    "forwarding_bandwidth",
    "rob_size",
    "dispatch_width",
    "commit_width",
}

_CLUSTER_ENTRY_KEYS = {
    "issue_width",
    "int_ports",
    "fp_ports",
    "mem_ports",
    "window_size",
    "latency_overrides",
}


def _cluster_entry(data: Any, where: str) -> ClusterConfig:
    """One per-cluster spec entry -> a validated :class:`ClusterConfig`."""
    if isinstance(data, ClusterConfig):
        return data
    require_type(data, dict, where)
    reject_unknown_keys(data, _CLUSTER_ENTRY_KEYS, where)
    missing = _CLUSTER_ENTRY_KEYS - {"latency_overrides"} - set(data)
    if missing:
        raise SpecError(f"{where} missing keys: {sorted(missing)}")
    try:
        return ClusterConfig(**data)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc


def _cluster_payload(cluster: ClusterConfig) -> dict[str, Any]:
    """Canonical JSON form of one cluster entry (overrides key only if set)."""
    payload: dict[str, Any] = {
        "issue_width": cluster.issue_width,
        "int_ports": cluster.int_ports,
        "fp_ports": cluster.fp_ports,
        "mem_ports": cluster.mem_ports,
        "window_size": cluster.window_size,
    }
    if cluster.latency_overrides:
        payload["latency_overrides"] = dict(cluster.latency_overrides)
    return payload


@dataclass(frozen=True)
class MachineSpec:
    """Declarative form of a machine: the paper's N equal clusters, or an
    explicit per-cluster list (heterogeneous geometry).

    ``None`` overrides mean "use the :class:`MachineConfig` default"; they
    are omitted from the canonical payload so a spec that spells no
    override hashes identically to one that spells ``null``.
    """

    clusters: int | tuple[ClusterConfig, ...]
    forwarding_latency: int = 2
    forwarding_bandwidth: int | None = None
    rob_size: int | None = None
    dispatch_width: int | None = None
    commit_width: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.clusters, int) or isinstance(self.clusters, bool):
            require_type(self.clusters, (tuple, list), "MachineSpec.clusters")
            entries = tuple(
                _cluster_entry(entry, f"MachineSpec.clusters[{i}]")
                for i, entry in enumerate(self.clusters)
            )
            if not entries:
                raise SpecError("MachineSpec.clusters list cannot be empty")
            object.__setattr__(self, "clusters", entries)
        require_type(self.forwarding_latency, int, "MachineSpec.forwarding_latency")
        for field in ("forwarding_bandwidth", "rob_size", "dispatch_width", "commit_width"):
            value = getattr(self, field)
            if value is not None:
                require_type(value, int, f"MachineSpec.{field}")
        if isinstance(self.clusters, int) and (
            self.clusters <= 0 or TOTAL_WIDTH % self.clusters != 0
        ):
            raise SpecError(
                f"MachineSpec.clusters must divide the {TOTAL_WIDTH}-wide "
                f"machine, got {self.clusters}"
            )
        if self.forwarding_latency < 0:
            raise SpecError("MachineSpec.forwarding_latency cannot be negative")
        if self.forwarding_bandwidth is not None and self.forwarding_bandwidth <= 0:
            raise SpecError(
                "MachineSpec.forwarding_bandwidth must be positive or omitted"
            )
        # Build once to surface every MachineConfig invariant (e.g. a ROB
        # smaller than the aggregate window) at spec time.
        try:
            self.build()
        except ValueError as exc:
            raise SpecError(f"invalid machine geometry: {exc}") from exc

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Paper-style name, e.g. ``4x2w``; ``4w+2w+2w`` for hetero lists."""
        if isinstance(self.clusters, int):
            return f"{self.clusters}x{TOTAL_WIDTH // self.clusters}w"
        return self.build().name

    def overrides(self) -> dict[str, int]:
        """The non-default MachineConfig overrides this spec carries."""
        return {
            field: value
            for field in ("forwarding_bandwidth", "rob_size", "dispatch_width", "commit_width")
            if (value := getattr(self, field)) is not None
        }

    def build(self) -> MachineConfig:
        """The live :class:`MachineConfig` this spec describes."""
        if isinstance(self.clusters, int):
            return clustered_machine(
                self.clusters,
                forwarding_latency=self.forwarding_latency,
                **self.overrides(),
            )
        overrides = self.overrides()
        rob_size = overrides.pop("rob_size", None)
        return heterogeneous_machine(
            self.clusters,
            forwarding_latency=self.forwarding_latency,
            rob_size=rob_size,
            **overrides,
        )

    # ------------------------------------------------------------------
    def _legacy_collapse(self) -> int | None:
        """The legacy integer spelling of a uniform cluster list, if any.

        A list collapses only when the built machine is exactly what
        ``clustered_machine(n)`` (plus this spec's overrides) would
        produce -- the condition under which the legacy payload already
        names this machine, keeping homogeneous hashes unchanged.
        """
        clusters = self.clusters
        if isinstance(clusters, int):
            return clusters
        n = len(clusters)
        if any(entry != clusters[0] for entry in clusters[1:]):
            return None
        if TOTAL_WIDTH % n != 0:
            return None
        try:
            legacy = clustered_machine(
                n, forwarding_latency=self.forwarding_latency, **self.overrides()
            )
        except ValueError:
            return None
        return n if legacy == self.build() else None

    def canonical_payload(self) -> dict[str, Any]:
        """Hash-stable dict: defaults materialized, None overrides dropped,
        uniform cluster lists collapsed to the legacy integer spelling."""
        collapsed = self._legacy_collapse()
        if collapsed is not None:
            clusters: Any = collapsed
        else:
            clusters = [_cluster_payload(entry) for entry in self.clusters]
        payload = {
            "clusters": clusters,
            "forwarding_latency": self.forwarding_latency,
        }
        payload.update(self.overrides())
        return payload

    def to_dict(self) -> dict[str, Any]:
        return self.canonical_payload()

    @classmethod
    def from_dict(cls, data: Any) -> "MachineSpec":
        if isinstance(data, cls):
            return data
        if isinstance(data, int) and not isinstance(data, bool):
            # Shorthand: a bare cluster count.
            return cls(clusters=data)
        require_type(data, dict, "MachineSpec")
        reject_unknown_keys(data, _SCHEMA_KEYS, "MachineSpec")
        if "clusters" not in data:
            raise SpecError("MachineSpec requires 'clusters'")
        kwargs = dict(data)
        clusters = kwargs.pop("clusters")
        if isinstance(clusters, list):
            clusters = tuple(
                _cluster_entry(entry, f"MachineSpec.clusters[{i}]")
                for i, entry in enumerate(clusters)
            )
        return cls(clusters=clusters, **kwargs)

    @classmethod
    def from_config(cls, config: MachineConfig) -> "MachineSpec":
        """The spec for a ``MachineConfig``.

        Paper-shaped configs produce the legacy integer spelling; any
        other shape (heterogeneous lists, custom uniform clusters) gets
        the explicit per-cluster spelling.  Raises :class:`SpecError`
        only when neither reproduces ``config`` exactly.
        """
        defaults = {
            f.name: f.default for f in dataclasses.fields(MachineConfig)
        }
        overrides = {
            field: getattr(config, field)
            for field in ("forwarding_bandwidth", "rob_size", "dispatch_width", "commit_width")
            if getattr(config, field) != defaults[field]
        }
        try:
            spec = cls(
                clusters=config.num_clusters,
                forwarding_latency=config.forwarding_latency,
                **overrides,
            )
            if spec.build() == config:
                return spec
        except SpecError:
            pass
        # rob_size always rides along for the explicit spelling:
        # heterogeneous_machine defaults it dynamically (max(256, total
        # window)), so reproducing ``config`` requires pinning it.
        overrides["rob_size"] = config.rob_size
        spec = cls(
            clusters=config.clusters,
            forwarding_latency=config.forwarding_latency,
            **overrides,
        )
        if spec.build() != config:
            raise SpecError(
                f"machine config {config.name} is not expressible as a MachineSpec"
            )
        return spec
