"""``NDlogEngine.run()``'s delta dispatch: resolved once, fused, invalidated.

The delta loop resolves a predicate's event flag, table and firing list
once, and — with no annotation policy — applies and fires a delta in
place.  Neither may be observable: a rule added later must fire, and
attaching or detaching an update listener or a tracer between ``run()``
calls must leave the same state and the same ``engine.stats`` as an engine
that never switched paths.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.datalog import Fact
from repro.datalog.ast import TableDecl
from repro.datalog.engine import DELETE, INSERT, REFRESH, Delta, NDlogEngine
from repro.datalog.parser import parse_program
from repro.net.sharding import collect_digest, collect_summary
from repro.net.topology import TIER_STUB, transit_stub_topology
from repro.obs import Tracer
from repro.protocols import mincost_program, pathvector_program

from oracle import ENGINES, built_with
from helpers import table_rows

#: Everything the fused path special-cases, on one node: a keyed table
#: (primary-key replacement), an event predicate, a two-step join (nested
#: probes in one generated function) whose literals test a body variable
#: and then overwrite it — their order is observable —
#: an aggregate and a plain copy rule.
SOURCE = """
    k1 cost(@S,D,C) :- link(@S,D,C).
    k2 eSeen(@S,D) :- cost(@S,D,C).
    k3 seen(@S,D) :- eSeen(@S,D).
    k4 two(@S,E,C) :- cost(@S,D,C), hop(@S,D,E,C2), known(@S,E), C < 3, C=C+C2.
    k5 best(@S,min<C>) :- cost(@S,D,C).
"""
TABLES = ("link", "cost", "seen", "hop", "known", "two", "best")


def program():
    parsed = parse_program(SOURCE, name="dispatch")
    parsed.add_declaration(TableDecl("link", 3, (0, 1)))
    return parsed


def fact_of(relation: str, key: int) -> Fact:
    if relation == "link":
        return Fact("link", ("n", f"d{key % 2}", key))  # same key, new cost: replacement
    if relation == "hop":
        return Fact("hop", ("n", f"d{key % 2}", f"e{key % 3}", key))
    return Fact("known", ("n", f"e{key % 3}"))


def apply(engine: NDlogEngine, operations) -> None:
    """One ``run()`` per operation."""
    for action, relation, key in operations:
        fact = fact_of(relation, key)
        if action == INSERT:
            engine.insert(fact)
        elif action == DELETE:
            engine.delete(fact)
        else:
            engine.enqueue(Delta(REFRESH, fact))
        engine.run()


def state(engine: NDlogEngine):
    return {name: table_rows(engine, name) for name in TABLES}, dict(engine.stats)


operations = st.lists(
    st.tuples(
        st.sampled_from([INSERT, INSERT, DELETE, REFRESH]),
        st.sampled_from(["link", "hop", "known"]),
        st.integers(0, 5),
    ),
    min_size=4,
    max_size=30,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(operations)
def test_fused_singletons_equal_delta(ops):
    """No policy: the engine takes the fused path; same everything.

    Update-listener sequences are compared per table: a sink row is
    announced when it is emitted, so the interleaving across tables may
    differ from the queued oracle's (see ``NDlogEngine._refresh_sinks``).
    """
    states = {}
    for name, engine_class in ENGINES.items():
        engine = engine_class("n", program())
        updates = {}
        engine.add_update_listener(
            lambda action, fact: updates.setdefault(fact.name, []).append((action, fact))
        )
        apply(engine, ops)
        states[name] = (state(engine), updates)
    assert states["compiled"] == states["interpreted"]


def test_rule_added_after_its_predicate_was_seen_fires():
    engine = NDlogEngine("n")
    engine.insert(Fact("red", ("n", "a")))
    engine.run()  # `red` is now resolved with no firings
    engine.load_program(parse_program("r1 mid(@S,D) :- red(@S,D)."))
    engine.insert(Fact("red", ("n", "b")))
    engine.run()
    assert table_rows(engine, "mid") == [("n", "b")]


def test_load_program_twice_matches_the_interpreter():
    first = "r1 mid(@S,D) :- red(@S,D)."
    second = "r2 top(@S,D) :- mid(@S,D)."
    states = {}
    for name, engine_class in ENGINES.items():
        engine = engine_class("n")
        for index, source in enumerate((first, second, first)):
            engine.load_program(parse_program(source))
            engine.insert(Fact("red", ("n", f"d{index}")))
            engine.run()
        states[name] = (
            {table: engine.catalog.table(table).rows_with_counts() for table in ("red", "mid", "top")},
            dict(engine.stats),
        )
    # d1 reached top through r2; d2 was derived by both copies of r1.
    assert states["compiled"][0]["mid"][-1] == (("n", "d2"), 2)
    assert states["compiled"][0]["top"] == [(("n", "d1"), 1), (("n", "d2"), 1)]
    assert states["compiled"] == states["interpreted"]


PHASES = [
    [(INSERT, "link", 1), (INSERT, "hop", 1), (INSERT, "known", 1), (INSERT, "link", 3)],
    [(INSERT, "link", 5), (DELETE, "hop", 1), (INSERT, "hop", 4), (INSERT, "known", 4)],
    [(DELETE, "link", 5), (REFRESH, "known", 1), (INSERT, "link", 2), (DELETE, "known", 4)],
]


def update_listener():
    seen = []

    def listener(action, fact):
        seen.append((action, fact))

    return (
        lambda engine: engine.add_update_listener(listener),
        lambda engine: engine.remove_update_listener(listener),
        seen,
    )


def tracer():
    installed = Tracer()

    def attach(engine):
        engine.tracer = installed

    def detach(engine):
        engine.tracer = None

    return attach, detach, installed.spans


@pytest.mark.parametrize("instrument", [update_listener, tracer])
def test_attaching_between_runs_switches_paths_without_a_trace_in_stats(instrument):
    def drive(attach_at, detach_at):
        """Final state, and what the instrument saw during each phase."""
        attach, detach, seen = instrument()
        engine = NDlogEngine("n", program())
        per_phase = []
        for index, phase in enumerate(PHASES):
            if index == attach_at:
                attach(engine)
            if index == detach_at:
                detach(engine)
            before = len(seen)
            apply(engine, phase)
            per_phase.append(list(seen[before:]))
        return state(engine), per_phase

    never, nothing = drive(None, None)
    always, everything = drive(0, None)
    middle, some = drive(1, 2)
    assert nothing == [[], [], []] and all(everything)
    assert always == never and middle == never
    # The middle phase was observed, and only it.
    assert some[0] == [] and some[2] == []
    if instrument is tracer:  # span records carry ids: compare their names
        names = lambda spans: [span.name for span in spans]  # noqa: E731
        assert names(some[1]) == names(everything[1])
    else:
        assert some[1] == everything[1]


def flap_script(program_factory, mode, traced: bool):
    topology = transit_stub_topology(
        domains=1, transit_per_domain=2, stubs_per_transit=2, nodes_per_stub=3, seed=0
    )
    installed = Tracer() if traced else None
    network = ExspanNetwork(
        topology, program_factory(), config=ExspanConfig(mode=mode), tracer=installed
    )
    network.seed_links()
    network.run_to_fixpoint()
    for a, b in sorted((a, b) for a, b, _ in topology.links_by_tier(TIER_STUB))[:4]:
        cost = topology.link(a, b).cost
        network.remove_link(a, b)
        network.run_to_fixpoint()
        network.add_link(a, b, cost)
        network.run_to_fixpoint()
    return network, installed


#: Spans per name of the traced scripts below, recorded on the commit before
#: the engine's batch drain was deleted, less its ``engine.batch`` spans and
#: the ``plan.exec`` spans of sink rows that fired nothing (5,344 of
#: pathvector-ref's 11,374): a tracer no longer changes what is queued.
#: pathvector-ref's ``plan.exec`` then fell from 6,030 to 5,480 when
#: ``bestPath`` became ``min<P>``: a tie no longer evicts the winner.
PARENT_SPANS = {
    "mincost-value": {
        "plan.exec": 1808,
        "fixpoint.round": 1448,
        "sim.event": 1418,
        "net.fixpoint": 9,
    },
    "pathvector-ref": {
        "plan.exec": 5480,
        "fixpoint.round": 702,
        "sim.event": 672,
        "net.fixpoint": 9,
    },
}


@pytest.mark.parametrize(
    "label, program_factory, mode",
    [
        ("mincost-value", lambda: mincost_program(max_cost=16), ProvenanceMode.VALUE),
        ("pathvector-ref", pathvector_program, ProvenanceMode.REFERENCE),
    ],
)
def test_traced_flaps_equal_untraced_and_keep_their_spans(label, program_factory, mode):
    plain, _ = flap_script(program_factory, mode, traced=False)
    traced, installed = flap_script(program_factory, mode, traced=True)
    assert collect_summary(traced) == collect_summary(plain)
    assert collect_digest(traced) == collect_digest(plain)
    assert traced.planner_stats() == plain.planner_stats()
    assert Counter(span.name for span in installed.spans) == PARENT_SPANS[label]


class CountingEngine(NDlogEngine):
    """Sums what every ``run()`` returns: the deltas that were queued."""

    queued = 0

    def run(self) -> int:
        steps = super().run()
        CountingEngine.queued += steps
        return steps


def test_a_traced_run_queues_what_an_untraced_one_does():
    """The ``fixpoint.round`` spans count the deltas an untraced run takes
    off its queues: a tracer applies sink rows at emission too."""
    CountingEngine.queued = 0
    with built_with(CountingEngine):
        flap_script(pathvector_program, ProvenanceMode.REFERENCE, traced=False)
    _, installed = flap_script(pathvector_program, ProvenanceMode.REFERENCE, traced=True)
    rounds = [span for span in installed.spans if span.name == "fixpoint.round"]
    assert CountingEngine.queued > 0
    assert sum(dict(span.args)["deltas"] for span in rounds) == CountingEngine.queued
