"""Consolidated, validated construction configuration for ExSPAN networks.

:class:`ExspanNetwork` grew one keyword argument per PR — query-cache
capacity, coalescing/batching ablation flags, bounded traffic statistics,
sharding placement — until every caller (and every layer forwarding the
kwargs, like the sharded engine's worker bootstrap) had to repeat the whole
sprawl.  :class:`ExspanConfig` freezes that surface into one validated
value object with documented defaults:

* every knob is validated eagerly at construction (bad values fail where
  the config is *written*, not deep inside network bootstrap);
* the config is immutable, so it can be shared between shards, embedded in
  a service description, or fingerprinted without defensive copies;
* :meth:`ExspanConfig.to_dict` / :meth:`ExspanConfig.from_dict` give the
  canonical JSON form the always-on query service uses to describe the
  network it hosts over the wire.

``ExspanNetwork(topology, program, config=ExspanConfig(...))`` is the one
way to build a network.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from .errors import ProvenanceError
from .modes import ProvenanceMode

__all__ = ["ExspanConfig", "coerce_mode", "MODE_NAMES"]

#: Canonical short names for provenance modes (the JSON wire form).
MODE_NAMES: Dict[ProvenanceMode, str] = {
    ProvenanceMode.NONE: "none",
    ProvenanceMode.REFERENCE: "ref",
    ProvenanceMode.VALUE: "value",
    ProvenanceMode.CENTRALIZED: "centralized",
}

_MODES_BY_NAME: Dict[str, ProvenanceMode] = {
    **{name: mode for mode, name in MODE_NAMES.items()},
    # Long spellings accepted on input for readability.
    "reference": ProvenanceMode.REFERENCE,
}

_VALUE_POLICIES = ("bdd", "polynomial")


def coerce_mode(mode: Any) -> ProvenanceMode:
    """Accept a :class:`ProvenanceMode` or its short/long string name."""
    if isinstance(mode, ProvenanceMode):
        return mode
    if isinstance(mode, str):
        try:
            return _MODES_BY_NAME[mode.lower()]
        except KeyError:
            raise ProvenanceError(
                f"unknown provenance mode {mode!r}; expected one of "
                f"{sorted(set(_MODES_BY_NAME))}"
            ) from None
    raise ProvenanceError(f"unknown provenance mode {mode!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProvenanceError(f"invalid ExspanConfig: {message}")


@dataclass(frozen=True)
class ExspanConfig:
    """Every construction-time knob of an :class:`~repro.core.api.ExspanNetwork`.

    Engine selection
        ``mode`` — provenance mode (``ProvenanceMode`` or ``"ref"`` /
        ``"value"`` / ``"none"`` / ``"centralized"``);
        ``value_policy`` — annotation representation for value mode
        (``"bdd"`` or ``"polynomial"``);
        ``collector`` — collector node for centralized mode (defaults to
        the topology's first node).

    Workload
        ``link_cost`` — default cost for runtime-added links;
        ``seed`` — RNG seed for :meth:`ExspanNetwork.random_tuple`.

    Query engine
        ``query_cache_capacity`` — per-node bounded result-cache capacity
        (``None`` = engine default);
        ``query_coalescing`` / ``query_batching`` — concurrency ablations,
        both on by default.

    Statistics
        ``traffic_record_cap`` — bounded traffic-statistics mode
        (``None`` = unbounded history).

    Sharding placement
        ``local_addresses`` / ``shard_map`` — configure the instance as
        one shard of a larger simulation (see :mod:`repro.net.sharding`).

    Storage
        ``storage`` — storage backend spec (``None`` = process default,
        ``"memory"``, ``"sqlite"``, or ``"sqlite:<path>"``).  An
        execution-environment knob: results are byte-identical under any
        backend, and the spec is only emitted in :meth:`to_dict` when
        explicitly set.
    """

    mode: ProvenanceMode = ProvenanceMode.REFERENCE
    collector: Optional[Any] = None
    value_policy: str = "bdd"
    link_cost: int = 1
    seed: int = 0
    query_cache_capacity: Optional[int] = None
    query_coalescing: bool = True
    query_batching: bool = True
    traffic_record_cap: Optional[int] = None
    local_addresses: Optional[Tuple[Any, ...]] = None
    shard_map: Optional[Mapping[Any, int]] = field(default=None)
    storage: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", coerce_mode(self.mode))
        _require(
            self.value_policy in _VALUE_POLICIES,
            f"value_policy must be one of {_VALUE_POLICIES}, got {self.value_policy!r}",
        )
        _require(
            isinstance(self.link_cost, int) and not isinstance(self.link_cost, bool),
            f"link_cost must be an int, got {self.link_cost!r}",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an int, got {self.seed!r}",
        )
        for name in ("query_cache_capacity", "traffic_record_cap"):
            value = getattr(self, name)
            _require(
                value is None
                or (isinstance(value, int) and not isinstance(value, bool) and value >= 0),
                f"{name} must be None or a non-negative int, got {value!r}",
            )
        for name in ("query_coalescing", "query_batching"):
            _require(
                isinstance(getattr(self, name), bool),
                f"{name} must be a bool, got {getattr(self, name)!r}",
            )
        if self.local_addresses is not None:
            object.__setattr__(self, "local_addresses", tuple(self.local_addresses))
        if self.shard_map is not None:
            object.__setattr__(self, "shard_map", dict(self.shard_map))
        _require(
            (self.shard_map is None) == (self.local_addresses is None),
            "local_addresses and shard_map must be given together",
        )
        if self.storage is not None:
            from ..storage.backend import StorageError, validate_storage_spec

            try:
                validate_storage_spec(self.storage)
            except StorageError as exc:
                raise ProvenanceError(f"invalid ExspanConfig: {exc}") from None

    # ------------------------------------------------------------------ #
    # derivation / serialization
    # ------------------------------------------------------------------ #
    def replace(self, **changes: Any) -> "ExspanConfig":
        """A copy with *changes* applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form (the wire description of a network).

        ``collector`` and the sharding placement are emitted as-is, so the
        dict is JSON-serializable whenever node addresses are (they are
        strings in every in-repo topology).
        """
        payload: Dict[str, Any] = {
            "mode": MODE_NAMES[self.mode],
            "collector": self.collector,
            "value_policy": self.value_policy,
            "link_cost": self.link_cost,
            "seed": self.seed,
            "query_cache_capacity": self.query_cache_capacity,
            "query_coalescing": self.query_coalescing,
            "query_batching": self.query_batching,
            "traffic_record_cap": self.traffic_record_cap,
        }
        if self.local_addresses is not None:
            payload["local_addresses"] = list(self.local_addresses)
            payload["shard_map"] = dict(self.shard_map or {})
        if self.storage is not None:
            payload["storage"] = self.storage
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExspanConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ProvenanceError(f"unknown ExspanConfig keys: {unknown}")
        return cls(**dict(payload))
