"""Billed bytes and encoded results equal the straightforward definitions.

``payload_size`` sizes common containers in one loop and dispatches objects
that know their own ``wire_size`` first; ``Sum``/``Product`` size themselves
once, at construction; ``encode_annotation`` renders a polynomial's text and
tree in one walk.  Each is checked here against the plain definition it
replaced, kept below as an oracle: the ``isinstance`` ladder, the recursive
``wire_size`` and the three-walk encoder (``str`` + tree + size).  The
payloads are random nested values of every type a message can carry, with
polynomials that share subterms and carry ``None`` and ``""`` locations.
The encoder memoizes a ``Sum``/``Product``'s encoding on the node at its
second encoding, so every value is encoded three times (the third answer
comes from the memo) and shared subterms meet the memo inside the walks.
Seeded mutants of the fast paths, the memo among them, must fail the same
check.
"""

from __future__ import annotations

import inspect
import json
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings, strategies as st

from paper_example import figure3_topology
from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode, QueryRequest, requests
from repro.core.bdd import Bdd, BddManager, export_bdd
from repro.core.requests import QueryResult, SpecDescriptor, canonical_json, decode_annotation
from repro.datalog import Fact
from repro.core.semiring import EMPTY, Literal, Product, ProvenanceExpression, Sum
from repro.net import message
from repro.net.message import HEADER_OVERHEAD, TRACE_CONTEXT_KEY, Message
from repro.net.network import Network
from repro.protocols import mincost_program


# ---------------------------------------------------------------------- #
# oracles: the definitions the fast paths must agree with
# ---------------------------------------------------------------------- #
def oracle_wire_size(expression):
    if isinstance(expression, Literal):
        return len(expression.label)
    if isinstance(expression, Sum):
        overhead = 2 + (len(expression.location) if expression.location else 0)
        return overhead + sum(oracle_wire_size(term) for term in expression.terms)
    if isinstance(expression, Product):
        overhead = 2 + (len(expression.rule) if expression.rule else 0)
        overhead += len(expression.location) if expression.location else 0
        return overhead + sum(oracle_wire_size(factor) for factor in expression.factors)
    return 1  # EMPTY


def oracle_payload_size(value):
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(oracle_payload_size(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(
            oracle_payload_size(key) + oracle_payload_size(item)
            for key, item in value.items()
            if key != TRACE_CONTEXT_KEY
        )
    if isinstance(value, ProvenanceExpression):
        return oracle_wire_size(value)
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    return len(repr(value))


def oracle_tree(expression):
    if isinstance(expression, Literal):
        return {"op": "lit", "label": expression.label}
    if isinstance(expression, Sum):
        node = {"op": "sum", "terms": [oracle_tree(term) for term in expression.terms]}
        if expression.location is not None:
            node["loc"] = expression.location
        return node
    if isinstance(expression, Product):
        node = {"op": "prod", "factors": [oracle_tree(factor) for factor in expression.factors]}
        if expression.rule is not None:
            node["rule"] = expression.rule
        if expression.location is not None:
            node["loc"] = expression.location
        return node
    return {"op": "empty"}


def oracle_encode_annotation(value):
    if value is None:
        return {"kind": "none"}
    if isinstance(value, bool):
        return {"kind": "bool", "value": value}
    if isinstance(value, int):
        return {"kind": "int", "value": value}
    if isinstance(value, str):
        return {"kind": "str", "value": value}
    if isinstance(value, ProvenanceExpression):
        return {
            "kind": "polynomial",
            "text": str(value),
            "tree": oracle_tree(value),
            "wire_size": oracle_wire_size(value),
        }
    if isinstance(value, Bdd):
        root, nodes = export_bdd(value)
        return {
            "kind": "bdd",
            "root": root,
            "nodes": [list(node) for node in nodes],
            "node_count": value.node_count(),
            "products": sorted(
                (sorted(product) for product in value.satisfying_products()),
                key=lambda product: (len(product), product),
            ),
        }
    if isinstance(value, (set, frozenset)):
        return {"kind": "set", "values": sorted(value, key=lambda item: (str(item)))}
    if isinstance(value, float):
        return {"kind": "float", "value": value}
    return {"kind": "repr", "value": repr(value)}


# ---------------------------------------------------------------------- #
# random payloads
# ---------------------------------------------------------------------- #
LOCATIONS = st.sampled_from([None, "", "n1", "n22"])
RULES = st.sampled_from([None, "", "r1", "sp2"])
MANAGER = BddManager()


@st.composite
def polynomial_pools(draw):
    """Polynomials built bottom-up out of a pool, so later ones share subterms."""
    leaves = st.one_of(st.text(alphabet="ab@(0", max_size=3).map(Literal), st.just(EMPTY))
    pool = draw(st.lists(leaves, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 6))):
        children = tuple(draw(st.lists(st.sampled_from(pool), max_size=3)))
        if draw(st.booleans()):
            pool.append(Sum(children, location=draw(LOCATIONS)))
        else:
            pool.append(Product(children, rule=draw(RULES), location=draw(LOCATIONS)))
    return pool


@st.composite
def bdds(draw):
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4))
    result = MANAGER.var(names[0])
    for name in names[1:]:
        other = MANAGER.var(name)
        result = (result & other) if draw(st.booleans()) else (result | other)
    return result


SCALARS = st.one_of(
    st.text(max_size=6),
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.binary(max_size=6),
)
POLYNOMIALS = polynomial_pools().map(lambda pool: pool[-1])
HASHABLE = st.one_of(SCALARS, POLYNOMIALS)
KEYS = st.one_of(
    st.text(max_size=4), st.integers(), st.booleans(), st.none(), st.just(TRACE_CONTEXT_KEY)
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, POLYNOMIALS, bdds()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(HASHABLE, max_size=4),
        st.frozensets(HASHABLE, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)
CASES = st.tuples(PAYLOADS, polynomial_pools(), bdds())


def mismatches(case):
    """Names of the checks where the code under test disagrees with an oracle."""
    payload, pool, bdd = case
    wrong = []
    expected = oracle_payload_size(payload)
    if message.payload_size(payload) != expected:
        wrong.append("payload_size")
    if Message("a", "b", "prov", payload).compute_size() != HEADER_OVERHEAD + 4 + expected:
        wrong.append("compute_size")
    if message.batch_size("prov", [payload, pool[-1]]) != (
        HEADER_OVERHEAD + 4 + 2 + expected + oracle_payload_size(pool[-1])
    ):
        wrong.append("batch_size")
    for expression in pool:
        if expression.wire_size() != oracle_wire_size(expression):
            wrong.append(f"wire_size of {expression!r}")
    for value in (*pool, bdd, payload):
        expected_annotation = oracle_encode_annotation(value)
        for call in ("first", "memoizing", "memoized"):
            annotation = requests.encode_annotation(value)
            try:
                same = canonical_json(annotation) == canonical_json(expected_annotation)
            except TypeError:  # a set holding bytes or polynomials is no JSON
                same = annotation == expected_annotation
            if not same:
                wrong.append(f"{call} encode_annotation of {value!r}")
    return wrong


CHECK_SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@CHECK_SETTINGS
@given(CASES)
def test_sizes_and_encodings_equal_the_oracles(case):
    assert mismatches(case) == []


def test_empty_location_renders_without_at_sign():
    value = Sum((Literal("a"), Product((Literal("b"),), rule="r", location="")), location="")
    annotation = requests.encode_annotation(value)
    assert annotation["text"] == "(a + <r@>(b))"
    assert annotation["tree"]["loc"] == "" and annotation["tree"]["terms"][1]["loc"] == ""
    assert annotation == oracle_encode_annotation(value)


# ---------------------------------------------------------------------- #
# seeded mutants: the check has teeth
# ---------------------------------------------------------------------- #
def mutant(owner, name, old, new):
    """*owner*.*name* with one fragment of its source replaced.

    Compiled against the owner's module globals, so once installed on the
    module a recursive function recurses into the mutant too.
    """
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{name} no longer reads {old!r}: reseed this mutant"
    module = owner if inspect.ismodule(owner) else sys.modules[owner.__module__]
    built = {}
    exec(compile(source.replace(old, new), f"<mutant {name}>", "exec"), vars(module), built)
    return built[name]


MUTANTS = {
    "_tc billed": (
        message,
        "payload_size",
        "            if key != TRACE_CONTEXT_KEY:\n",
        "            if True:\n",
    ),
    "bool billed as an int": (
        message,
        "payload_size",
        "if value is None or cls is bool:",
        "if value is None:",
    ),
    "stale size after building a parent from a sized child": (
        Sum,
        "__post_init__",
        'object.__setattr__(self, "_size",',
        'setattr(type(self), "_size",',
    ),
    "empty-location text rule flipped": (
        requests,
        "_encode_polynomial",
        'if location else ""',
        'if location is not None else ""',
    ),
    "encoding memoized on the class, not the node": (
        requests,
        "_encode_polynomial",
        'object.__setattr__(expression, "_encoded",',
        'setattr(type(expression), "_encoded",',
    ),
    "memo hit returns a stale tree": (
        requests,
        "_encode_polynomial",
        "if memo:\n        return memo\n",
        'if memo:\n        return memo[0], {"op": "empty"}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutants_fail_the_oracle_check(name, monkeypatch):
    owner, attribute, old, new = MUTANTS[name]
    # Two mutants write class attributes; undo removes them.
    monkeypatch.setattr(Sum, "_size", None, raising=False)
    for cls in (Sum, Product):
        monkeypatch.setattr(cls, "_encoded", None, raising=False)
    monkeypatch.setattr(owner, attribute, mutant(owner, attribute, old, new))
    find(
        CASES,
        lambda case: bool(mismatches(case)),
        settings=settings(CHECK_SETTINGS, max_examples=2000, phases=[Phase.generate]),
    )


def test_a_cached_answer_equals_its_wire_round_trip():
    """Two answers of one cached query share memoized trees; a round trip
    through the wire form changes neither of them."""
    network = ExspanNetwork(
        figure3_topology(),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
    )
    network.seed_links()
    network.run_to_fixpoint()
    request = QueryRequest(
        Fact("bestPathCost", ("a", "c", 5)), SpecDescriptor(kind="polynomial", use_cache=True)
    )
    first, second, third = (network.execute(request) for _ in range(3))
    assert first.annotation["kind"] == "polynomial"
    assert second.annotation["tree"] is third.annotation["tree"]  # served from the memo
    before = third.canonical_bytes()
    wire = json.loads(canonical_json(second.to_dict()))
    body = {key: wire[key] for key in wire if key != "meta"}
    assert canonical_json(body).encode() == second.canonical_bytes() == before
    assert third.canonical_bytes() == first.canonical_bytes() == before
    assert decode_annotation(wire["annotation"], None) == third.result  # no BDD, no manager


# ---------------------------------------------------------------------- #
# the query protocol's wire shapes
# ---------------------------------------------------------------------- #
#: Every ``prov`` payload of one cached MINCOST query issued at ``c`` for
#: ``bestPathCost(@a,c,5)`` (the root crosses to ``a``, whose ``sp2`` fired
#: at ``b``), then the ``invalidate`` that deleting link b-c sends back from
#: ``b``: type, key sequence and billed size, in send order.  A renamed,
#: reordered or resized key changes bytes only the comparison run would
#: otherwise see.
QUERY_WIRE_SHAPES = [
    ("provQuery", ("type", "qid", "vid", "spec", "ret", "parent", "depth"), 84),
    ("ruleQuery", ("type", "qid", "rid", "spec", "ret", "parent", "depth"), 125),
    ("ruleResult", ("type", "qid", "rid", "result", "h"), 108),
    ("provResult", ("type", "qid", "vid", "result", "h"), 140),
    ("invalidate", ("type", "key"), 58),
]


def test_query_messages_keep_their_wire_shapes(monkeypatch):
    network = ExspanNetwork(
        figure3_topology(), mincost_program(), config=ExspanConfig(mode=ProvenanceMode.REFERENCE)
    )
    network.seed_links()
    network.run_to_fixpoint()
    sent = []
    transmit = Network.transmit

    def recording(self, wire):
        if wire.kind == "prov":
            sent.extend(wire.payload if wire.batch else (wire.payload,))
        return transmit(self, wire)

    monkeypatch.setattr(Network, "transmit", recording)
    request = QueryRequest(
        Fact("bestPathCost", ("a", "c", 5)),
        SpecDescriptor(kind="polynomial", use_cache=True),
        issuer="c",
    )
    network.execute(request)
    network.remove_link("b", "c")
    network.run_to_fixpoint()
    shapes = [(payload["type"], tuple(payload), message.payload_size(payload)) for payload in sent]
    assert shapes == QUERY_WIRE_SHAPES
