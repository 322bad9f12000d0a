"""Consolidated, validated construction configuration for ExSPAN networks.

:class:`ExspanConfig` holds the six construction settings of an
:class:`ExspanNetwork` — provenance mode, value policy, RNG seed, sharding
placement and storage backend — in one validated value object with
documented defaults:

* every knob is validated eagerly at construction (bad values fail where
  the config is *written*, not deep inside network bootstrap);
* the config is immutable, so it can be shared between shards, embedded in
  a service description, or fingerprinted without defensive copies;
* :meth:`ExspanConfig.to_dict` / :meth:`ExspanConfig.from_dict` give the
  canonical JSON form the always-on query service uses to describe the
  network it hosts over the wire.

A behaviour with one value in every workload is code, not a setting: the
query service always coalesces in-flight resolutions and batches per
destination, a runtime-added link costs ``LinkSpec().cost``, centralized
provenance collects at the topology's first node, and every node's query
cache holds ``repro.core.cache.DEFAULT_CACHE_CAPACITY`` results.

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

#: Config keys that older :meth:`ExspanConfig.to_dict` forms carried and
#: :meth:`ExspanConfig.from_dict` now ignores: the traffic log's retired
#: record cap, the query service's coalescing/batching switches, the
#: runtime-added link cost, the centralized collector and the query-cache
#: capacity.
_RETIRED_KEYS = frozenset(
    {
        "traffic_record_cap",
        "query_coalescing",
        "query_batching",
        "link_cost",
        "collector",
        "query_cache_capacity",
    }
)

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
        (``"bdd"`` or ``"polynomial"``).

    Workload
        ``seed`` — RNG seed for :meth:`ExspanNetwork.random_tuple`.

    Sharding placement
        ``local_addresses`` / ``shard_map`` — configure the instance as
        one shard of a larger simulation (see :mod:`repro.net.sharding`).

    Storage
        ``storage`` — storage backend spec (``None`` = memory,
        ``"memory"``, ``"sqlite"``, or ``"sqlite:<path>"``).  An
        execution-environment knob: results are byte-identical under any
        backend, and the spec is only emitted in :meth:`to_dict` when
        explicitly set.
    """

    mode: ProvenanceMode = ProvenanceMode.REFERENCE
    value_policy: str = "bdd"
    seed: int = 0
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
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an int, got {self.seed!r}",
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

        The sharding placement is emitted as-is, so the dict is
        JSON-serializable whenever node addresses are (they are strings in
        every in-repo topology).
        """
        payload: Dict[str, Any] = {
            "mode": MODE_NAMES[self.mode],
            "value_policy": self.value_policy,
            "seed": self.seed,
        }
        if self.local_addresses is not None:
            payload["local_addresses"] = list(self.local_addresses)
            payload["shard_map"] = dict(self.shard_map or {})
        if self.storage is not None:
            payload["storage"] = self.storage
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExspanConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys.

        Keys of retired knobs (:data:`_RETIRED_KEYS`) are accepted and
        ignored, so checkpoints written before a knob was removed restore.
        """
        payload = {key: value for key, value in payload.items() if key not in _RETIRED_KEYS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ProvenanceError(f"unknown ExspanConfig keys: {unknown}")
        return cls(**payload)
