"""Tests for vertex identifiers and provenance polynomials."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EMPTY,
    count_derivations,
    fact_vid,
    product_of,
    rule_rid,
    sum_of,
    tuple_vid,
    var,
)
from repro.core.semiring import Literal, Product, Sum
from repro.core.vid import clear_vid_caches
from repro.datalog import Fact
from repro.datalog.functions import default_registry, sha1_cache_stats, sha1_hex


#: Attribute values of every kind a VID preimage renders: text, int,
#: integral and fractional float, bool, None, lists, nested tuples, sets.
SCALARS = (
    st.text(max_size=4)
    | st.integers(-99, 99)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.booleans()
    | st.none()
)
VALUES = st.recursive(
    SCALARS | st.frozensets(st.integers(0, 9), max_size=3) | st.sets(st.text(max_size=2), max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


class TestVids:
    def test_tuple_vid_matches_paper_formula(self):
        # VID = SHA1("link" + b + c + 2)
        assert tuple_vid("link", ("b", "c", 2)) == sha1_hex("linkbc2")

    def test_fact_vid_equals_tuple_vid(self):
        fact = Fact("pathCost", ("a", "c", 5))
        assert fact_vid(fact) == tuple_vid("pathCost", ("a", "c", 5))

    def test_rule_rid_matches_paper_formula(self):
        vid = tuple_vid("link", ("b", "c", 2))
        # RID = SHA1("sp1" + b + VID1)
        assert rule_rid("sp1", "b", [vid]) == sha1_hex("sp1b" + vid)

    def test_vid_agrees_with_f_sha1_builtin(self):
        registry = default_registry()
        assert tuple_vid("link", ("a", "c", 5)) == registry.call(
            "f_sha1", ["link", "a", "c", 5]
        )

    def test_rid_agrees_with_f_sha1_over_vid_list(self):
        registry = default_registry()
        vids = [tuple_vid("link", ("b", "a", 3)), tuple_vid("bestPathCost", ("b", "c", 2))]
        assert rule_rid("sp2", "b", vids) == registry.call("f_sha1", ["sp2", "b", vids])

    def test_memoized_vid_equals_uncached_and_survives_odd_values(self):
        """The bounded memo must change nothing — including for values the
        memo key cannot hash (lists and sets fall through to direct
        computation)."""
        cases = [
            ("link", ("b", "c", 2), "linkbc2"),
            ("path", ("a", "b", 3, ["a", "b"]), "pathab3ab"),  # list attribute
            ("odd", ({"x"},), "odd" + str({"x"})),  # unhashable attribute
            ("odd", (None, True, 2.0), "odd12"),
        ]
        uncached = [sha1_hex(preimage) for _, _, preimage in cases]
        clear_vid_caches()
        cached_cold = [tuple_vid(name, values) for name, values, _ in cases]
        cached_warm = [tuple_vid(name, values) for name, values, _ in cases]
        assert uncached == cached_cold == cached_warm
        assert sha1_cache_stats()["hits"] == 2  # the hashable cases hit on re-query

    @settings(max_examples=200)
    @given(
        st.text(max_size=6),
        st.lists(VALUES, max_size=5),
        st.text(max_size=4) | st.integers(-9, 99) | st.none(),
    )
    def test_vid_and_rid_equal_the_rule_side_f_sha1(self, name, values, location):
        """``tuple_vid`` / ``rule_rid`` hash what a rewritten rule's
        ``f_sha1(name, values...)`` / ``f_sha1(label, RLoc, List)`` does,
        memo cold or warm."""
        registry = default_registry()
        expected_vid = registry.call("f_sha1", [name, *values])
        expected_rid = registry.call("f_sha1", [name, location, (expected_vid,)])
        clear_vid_caches()
        for _ in range(2):
            assert tuple_vid(name, values) == expected_vid
            assert rule_rid(name, location, [expected_vid]) == expected_rid

    def test_stored_rows_find_their_vids_in_the_rule_memo(self, monkeypatch):
        """After a REF fixpoint the rewritten rules have hashed every stored
        row's VID: ``fact_vid`` of each row computes no new SHA-1 digest."""
        import hashlib
        from types import SimpleNamespace

        from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
        from repro.core.rewrite import PROV_TABLE, RULE_EXEC_TABLE
        from repro.datalog import functions, is_event_predicate
        from repro.net import ring_topology
        from repro.protocols import pathvector_program

        clear_vid_caches()
        network = ExspanNetwork(
            ring_topology(5, seed=0),
            pathvector_program(),
            config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
        )
        network.seed_links()
        network.run_to_fixpoint()
        digested = []
        spy = lambda data: digested.append(data) or hashlib.sha1(data)  # noqa: E731
        monkeypatch.setattr(functions, "hashlib", SimpleNamespace(sha1=spy))
        stored = 0
        for node in network.nodes.values():
            for table in node.engine.catalog.tables():
                if table.name in (PROV_TABLE, RULE_EXEC_TABLE) or is_event_predicate(table.name):
                    continue
                for row in table.rows():
                    fact_vid(Fact(table.name, row))
                    stored += 1
        assert stored > 100
        assert digested == []

    def test_float_costs_render_like_ints(self):
        assert tuple_vid("link", ("a", "b", 3.0)) == tuple_vid("link", ("a", "b", 3))

    @given(
        st.text(min_size=1, max_size=10),
        st.lists(st.one_of(st.text(max_size=5), st.integers(0, 99)), max_size=5),
    )
    def test_vid_is_deterministic(self, name, values):
        assert tuple_vid(name, values) == tuple_vid(name, list(values))

    def test_different_tuples_have_different_vids(self):
        assert tuple_vid("link", ("a", "b", 1)) != tuple_vid("link", ("a", "b", 2))
        assert tuple_vid("link", ("a", "b", 1)) != tuple_vid("pathCost", ("a", "b", 1))


class TestPolynomialConstruction:
    def test_figure4_polynomial(self):
        # provenance of bestPathCost(@a,c,5): alpha + beta * gamma
        alpha, beta, gamma = var("alpha"), var("beta"), var("gamma")
        expression = sum_of([alpha, product_of([beta, gamma], rule="sp2", location="b")])
        assert count_derivations(expression) == 2
        assert set(expression.literals()) == {"alpha", "beta", "gamma"}

    def test_sum_flattens_and_drops_empty(self):
        expression = sum_of([var("a"), sum_of([var("b"), var("c")]), EMPTY])
        assert isinstance(expression, Sum)
        assert len(expression.terms) == 3

    def test_product_with_empty_is_empty(self):
        assert product_of([var("a"), EMPTY]) is EMPTY

    def test_singleton_sum_and_product_collapse(self):
        assert sum_of([var("a")]) == var("a")
        assert product_of([var("a")]) == var("a")

    def test_empty_sum_is_empty(self):
        assert sum_of([]) is EMPTY
        assert product_of([]) is EMPTY

    def test_string_rendering_includes_rule_annotations(self):
        expression = product_of([var("b"), var("g")], rule="sp2", location="b")
        assert "<sp2@b>" in str(expression)

    def test_wire_size_grows_with_content(self):
        small = var("a")
        large = sum_of([var("a" * 10), var("b" * 10)], location="node")
        assert large.wire_size() > small.wire_size()


class TestSemiringEvaluations:
    def test_count_derivations_multiplies_joins(self):
        # (a + b) * (c + d) has 4 derivations
        expression = product_of([sum_of([var("a"), var("b")]), sum_of([var("c"), var("d")])])
        assert count_derivations(expression) == 4

    def test_empty_has_zero_derivations(self):
        assert count_derivations(EMPTY) == 0


class TestAbsorption:
    def test_paper_example_a_plus_ab_absorbs_to_a(self):
        # a * (a + b) = a  (Section 6.3)
        expression = product_of([var("a"), sum_of([var("a"), var("b")])])
        assert expression.to_dnf() == frozenset({frozenset({"a"})})

    def test_absorption_keeps_incomparable_products(self):
        expression = sum_of([product_of([var("a"), var("b")]), product_of([var("c"), var("d")])])
        assert expression.to_dnf() == frozenset(
            {frozenset({"a", "b"}), frozenset({"c", "d"})}
        )

    def test_absorption_removes_supersets(self):
        expression = sum_of([var("a"), product_of([var("a"), var("b")])])
        assert expression.to_dnf() == frozenset({frozenset({"a"})})


# strategy for random provenance expressions over a small literal alphabet
_literals = st.sampled_from(["a", "b", "c", "d", "e"])


def _expressions(depth: int = 3):
    base = _literals.map(var)
    if depth == 0:
        return base
    sub = _expressions(depth - 1)
    return st.one_of(
        base,
        st.lists(sub, min_size=1, max_size=3).map(sum_of),
        st.lists(sub, min_size=1, max_size=3).map(product_of),
    )


def _derivable(expression, trusted) -> bool:
    """Whether *expression* derives from the *trusted* literals alone."""
    if isinstance(expression, Literal):
        return expression.label in trusted
    if isinstance(expression, Sum):
        return any(_derivable(term, trusted) for term in expression.terms)
    if isinstance(expression, Product):
        return all(_derivable(factor, trusted) for factor in expression.factors)
    return False  # EMPTY


class TestPolynomialProperties:
    @given(_expressions())
    def test_count_derivations_is_positive_for_nonempty(self, expression):
        assert count_derivations(expression) >= 1

    @given(_expressions())
    def test_dnf_products_only_use_expression_literals(self, expression):
        literals = set(expression.literals())
        for product in expression.to_dnf():
            assert set(product) <= literals

    @given(_expressions(), st.sets(_literals, max_size=5))
    def test_dnf_equivalent_to_expression_for_derivability(self, expression, trusted):
        """Absorption is lossless for derivability tests (Section 6.3)."""
        via_dnf = any(product <= trusted for product in expression.to_dnf())
        assert _derivable(expression, trusted) == via_dnf

    @given(_expressions())
    def test_dnf_is_antichain(self, expression):
        """After absorption no product contains another."""
        products = list(expression.to_dnf())
        for index, left in enumerate(products):
            for right in products[index + 1 :]:
                assert not (left <= right or right <= left)
