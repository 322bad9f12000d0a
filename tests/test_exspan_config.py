"""ExspanConfig validation and the one way to construct a network.

The consolidation contract: every constructor knob lives on one frozen,
validated ``ExspanConfig``, passed as ``config=``; the pre-config keyword
and positional forms are type errors.
"""

import dataclasses

import pytest

from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.errors import ProvenanceError
from repro.core.modes import ProvenanceMode
from repro.net.topology import ring_topology
from repro.protocols.mincost import mincost_program


class TestValidation:
    def test_defaults(self):
        config = ExspanConfig()
        assert config.mode is ProvenanceMode.REFERENCE
        assert config.seed == 0
        assert config.query_coalescing is True

    def test_frozen(self):
        config = ExspanConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 7

    def test_mode_coercion_from_string(self):
        assert ExspanConfig(mode="none").mode is ProvenanceMode.NONE
        assert ExspanConfig(mode="ref").mode is ProvenanceMode.REFERENCE
        assert ExspanConfig(mode="reference").mode is ProvenanceMode.REFERENCE
        assert ExspanConfig(mode="value").mode is ProvenanceMode.VALUE
        assert ExspanConfig(mode="centralized").mode is ProvenanceMode.CENTRALIZED

    def test_bad_mode_rejected(self):
        with pytest.raises(ProvenanceError):
            ExspanConfig(mode="bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_cost": "cheap"},
            {"value_policy": "magic"},
            {"seed": "7"},
            {"traffic_record_cap": -3},
            {"query_cache_capacity": -1},
            {"query_batching": 1},
            {"storage": "tape"},
            {"query_coalescing": "yes"},
            {"local_addresses": ("n0",)},  # requires shard_map too
        ],
    )
    def test_invalid_combinations_rejected(self, kwargs):
        with pytest.raises(ProvenanceError):
            ExspanConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("planner", "greedy"),
            ("pipeline", "batched"),
            ("compact_min_cancelled", 7),
            ("compact_ratio", 2.5),
        ],
    )
    def test_removed_knobs_are_rejected(self, name, value):
        # One executor and simulator-default compaction: the old keywords
        # are not fields, and a description carrying one is unknown.
        with pytest.raises(TypeError):
            ExspanConfig(**{name: value})
        with pytest.raises(ProvenanceError, match=name):
            ExspanConfig.from_dict({"mode": "ref", name: value})

    def test_twelve_fields(self):
        assert len(dataclasses.fields(ExspanConfig)) == 12

    def test_round_trip_through_dict(self):
        config = ExspanConfig(mode="value", seed=3, query_batching=False)
        clone = ExspanConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ProvenanceError):
            ExspanConfig.from_dict({"mode": "ref", "warp_drive": True})

    def test_replace(self):
        config = ExspanConfig(seed=1)
        assert config.replace(seed=9).seed == 9
        assert config.seed == 1


class TestDeprecationShim:
    """The removed pre-config forms fail fast, at the call."""

    def test_legacy_kwargs_rejected(self):
        defaults = ExspanConfig()
        for field in dataclasses.fields(ExspanConfig):
            with pytest.raises(TypeError):
                ExspanNetwork(
                    ring_topology(4, seed=0),
                    mincost_program(),
                    **{field.name: getattr(defaults, field.name)},
                )

    def test_positional_mode_is_a_type_error(self):
        with pytest.raises(TypeError, match="ExspanConfig"):
            ExspanNetwork(ring_topology(4, seed=0), mincost_program(), ProvenanceMode.NONE)

    def test_config_plus_kwargs_is_an_error(self):
        with pytest.raises(TypeError):
            ExspanNetwork(
                ring_topology(4, seed=0),
                mincost_program(),
                config=ExspanConfig(),
                seed=1,
            )

    def test_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError):
            ExspanNetwork(ring_topology(4, seed=0), mincost_program(), warp_drive=True)
