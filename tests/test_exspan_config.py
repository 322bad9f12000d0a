"""ExspanConfig validation and the one way to construct a network.

The consolidation contract: every constructor knob lives on one frozen,
validated ``ExspanConfig``, passed as ``config=``; the pre-config keyword
and positional forms are type errors.
"""

import dataclasses
import inspect
import json

import pytest

from repro.core.api import ExspanNetwork
from repro.core.bdd import BddManager
from repro.core.config import ExspanConfig
from repro.core.errors import ProvenanceError
from repro.core.modes import ProvenanceMode
from repro.core.query import ProvenanceQueryService, QuerySpec
from repro.datalog import StandaloneNetwork
from repro.datalog.engine import NDlogEngine
from repro.net.simulator import Simulator
from repro.net.topology import ring_topology
from repro.obs import Tracer
from repro.protocols.mincost import mincost_program
from repro.service import ExspanService, ServiceClient, ServiceServer

#: Every value a caller can set when building these objects: the fields of
#: the two config records and the constructor parameters.  A new knob fails
#: here until it is added, with the caller outside the tests that needs a
#: value other than its default.
SETTABLE = {
    ExspanConfig: ("mode", "value_policy", "seed", "local_addresses", "shard_map", "storage"),
    QuerySpec: (
        "name",
        "f_edb",
        "f_idb",
        "f_rule",
        "missing",
        "traversal",
        "threshold_met",
        "moonwalk_width",
        "use_cache",
        "max_depth",
    ),
    NDlogEngine: ("address", "program", "send", "annotation_policy"),
    StandaloneNetwork: ("addresses", "program"),
    Simulator: (),
    Tracer: ("clock", "shard"),
    BddManager: (),
    ProvenanceQueryService: ("host", "store", "clock", "tracer"),
    ExspanService: ("network",),
    ServiceServer: ("service", "host", "port"),
    ServiceClient: ("host", "port", "timeout"),
}


@pytest.mark.parametrize("cls", SETTABLE, ids=lambda cls: cls.__name__)
def test_the_settable_surface_is_pinned(cls):
    if dataclasses.is_dataclass(cls):
        settable = tuple(field.name for field in dataclasses.fields(cls))
    else:
        settable = tuple(inspect.signature(cls).parameters)
    assert settable == SETTABLE[cls]


class TestValidation:
    def test_defaults(self):
        config = ExspanConfig()
        assert config.mode is ProvenanceMode.REFERENCE
        assert config.seed == 0

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
            {"value_policy": "magic"},
            {"seed": "7"},
            {"storage": "tape"},
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

    def test_retired_traffic_record_cap_is_ignored_on_restore(self, tmp_path):
        # The bounded traffic log is gone; a checkpoint written while the
        # knob existed still names it in its config and must restore.
        with pytest.raises(TypeError):
            ExspanConfig(traffic_record_cap=10)
        assert ExspanConfig.from_dict(
            {"mode": "ref", "traffic_record_cap": 10}
        ) == ExspanConfig(mode="ref")
        network = ExspanNetwork(ring_topology(4), mincost_program())
        network.seed_links()
        path = tmp_path / "old.ckpt"
        network.checkpoint(str(path))
        payload = json.loads(path.read_text())
        payload["config"]["traffic_record_cap"] = None
        path.write_text(json.dumps(payload))
        restored = ExspanNetwork.restore(str(path), ring_topology(4), mincost_program())
        assert restored.config == network.config
        assert restored.tuples("bestPathCost") == network.tuples("bestPathCost")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("query_coalescing", False),
            ("query_batching", False),
            ("link_cost", 3),
            ("collector", "n1"),
            ("query_cache_capacity", 5),
        ],
    )
    def test_retired_query_and_link_knobs_are_not_fields(self, name, value):
        with pytest.raises(TypeError):
            ExspanConfig(**{name: value})
        assert name not in ExspanConfig().to_dict()

    def test_retired_query_and_link_keys_are_ignored_on_load(self, tmp_path):
        # Service descriptions and checkpoints written while the knobs
        # existed name them; they load to the surviving fields.
        old_keys = {
            "query_coalescing": True,
            "query_batching": False,
            "link_cost": 5,
            "collector": None,
            "query_cache_capacity": None,
        }
        assert ExspanConfig.from_dict(
            {"mode": "value", "seed": 3, **old_keys}
        ) == ExspanConfig(mode="value", seed=3)
        network = ExspanNetwork(ring_topology(4), mincost_program())
        network.seed_links()
        network.run_to_fixpoint()
        path = tmp_path / "old.ckpt"
        network.checkpoint(str(path))
        payload = json.loads(path.read_text())
        payload["config"].update(old_keys)
        path.write_text(json.dumps(payload))
        restored = ExspanNetwork.restore(str(path), ring_topology(4), mincost_program())
        assert restored.config == network.config
        assert restored.tuples("bestPathCost") == network.tuples("bestPathCost")

    def test_round_trip_through_dict(self):
        config = ExspanConfig(mode="value", seed=3, storage="memory")
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
