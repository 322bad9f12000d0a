"""Tests for the pure-Python ROBDD implementation (absorption provenance)."""

from __future__ import annotations

from itertools import product as iter_product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.bdd
from repro.core import BddManager
from repro.core.bdd import Bdd, export_bdd, import_bdd


class TestBasics:
    def test_constants(self):
        manager = BddManager()
        assert manager.true().evaluate({})
        assert not manager.false().evaluate({})
        assert manager.var("x") not in (manager.true(), manager.false())

    def test_variable_evaluation(self):
        manager = BddManager()
        x = manager.var("x")
        assert x.evaluate({"x": True})
        assert not x.evaluate({"x": False})
        assert not x.evaluate({})

    def test_and_or(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        both = x & y
        either = x | y
        assert both.evaluate({"x": True, "y": True})
        assert not both.evaluate({"x": True, "y": False})
        assert either.evaluate({"x": False, "y": True})
        assert not either.evaluate({"x": False, "y": False})

    def test_canonicity_same_function_same_node(self):
        manager = BddManager()
        x, y, z = manager.var("x"), manager.var("y"), manager.var("z")
        assert (x | (x & y)) == x  # absorption simplifies to x
        assert (x | y) == (y | x)
        assert (x & (y | z)) == ((x & y) | (x & z))  # distributivity
        assert ((x & y) & z) == (x & (y & z))

    def test_idempotence_and_identity_laws(self):
        manager = BddManager()
        x = manager.var("x")
        assert (x & x) == x
        assert (x | x) == x
        assert (x & manager.true()) == x
        assert (x | manager.false()) == x
        assert (x & manager.false()) == manager.false()
        assert (x | manager.true()) == manager.true()
        assert (manager.true() & x) == x
        assert (manager.false() | x) == x

    def test_different_managers_cannot_mix(self):
        a, b = BddManager(), BddManager()
        with pytest.raises(ValueError):
            _ = a.var("x") & b.var("x")

    def test_support(self):
        manager = BddManager()
        x, y, z = manager.var("x"), manager.var("y"), manager.var("z")
        expression = (x & y) | x  # == x
        assert expression.support() == frozenset({"x"})
        assert manager.true().support() == frozenset()
        assert ((x & y) | z).support() == frozenset({"x", "y", "z"})

    def test_node_count_and_wire_size(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        expression = x & y
        assert expression.node_count() == 2
        assert expression.wire_size() > expression.node_count()
        assert manager.true().node_count() == 0


class TestAbsorptionProvenance:
    def test_paper_absorption_example(self):
        """a + a*b condenses to a (Section 6.3)."""
        manager = BddManager()
        a, b = manager.var("a"), manager.var("b")
        condensed = a | (a & b)
        assert condensed == a
        assert condensed.support() == frozenset({"a"})

    def test_satisfying_products_minimal_dnf(self):
        manager = BddManager()
        bdd = manager.from_dnf([["a"], ["a", "b"]])  # a * (a + b), distributed
        assert bdd.satisfying_products() == frozenset({frozenset({"a"})})

    def test_satisfying_products_do_not_walk_every_path(self):
        # (x00a & x00b) | ... | (x39a & x39b) has 40 minimal products but about
        # 2**39 paths to True: a failed pair leaves by two routes.
        pairs = [[f"x{index:02d}a", f"x{index:02d}b"] for index in range(40)]
        bdd = BddManager().from_dnf(pairs)
        assert bdd.satisfying_products() == {frozenset(pair) for pair in pairs}

    def test_from_dnf(self):
        manager = BddManager()
        bdd = manager.from_dnf([["a", "b"], ["c"]])
        assert bdd.evaluate({"c": True})
        assert bdd.evaluate({"a": True, "b": True})
        assert not bdd.evaluate({"a": True})

    def test_empty_dnf_is_false(self):
        manager = BddManager()
        assert manager.from_dnf([]) == manager.false()


# random monotone DNF formulas over a tiny alphabet
_VARIABLES = ["v0", "v1", "v2", "v3"]
_dnfs = st.lists(
    st.lists(st.sampled_from(_VARIABLES), min_size=1, max_size=3, unique=True),
    min_size=0,
    max_size=5,
)


def _truth_table_matches(bdd, dnf) -> bool:
    for assignment_bits in iter_product([False, True], repeat=len(_VARIABLES)):
        assignment = dict(zip(_VARIABLES, assignment_bits))
        expected = any(all(assignment[name] for name in product) for product in dnf)
        if bdd.evaluate(assignment) != expected:
            return False
    return True


class TestBddProperties:
    @settings(deadline=None, max_examples=60)
    @given(_dnfs)
    def test_bdd_agrees_with_brute_force_truth_table(self, dnf):
        manager = BddManager()
        bdd = manager.from_dnf(dnf)
        assert _truth_table_matches(bdd, dnf)

    @settings(deadline=None, max_examples=60)
    @given(_dnfs, _dnfs)
    def test_or_and_are_sound(self, left, right):
        manager = BddManager()
        combined_or = manager.from_dnf(left) | manager.from_dnf(right)
        assert _truth_table_matches(combined_or, list(left) + list(right))

    @settings(deadline=None, max_examples=60)
    @given(_dnfs)
    def test_satisfying_products_round_trip(self, dnf):
        """from_dnf -> satisfying_products -> from_dnf is the same function."""
        manager = BddManager()
        bdd = manager.from_dnf(dnf)
        round_tripped = manager.from_dnf(bdd.satisfying_products())
        assert round_tripped == bdd

    @settings(deadline=None, max_examples=100)
    @given(_dnfs)
    def test_satisfying_products_are_the_minimal_input_products(self, dnf):
        """A monotone DNF's minimal form is its products minus absorbed ones."""
        products = {frozenset(product) for product in dnf}
        minimal = {
            product
            for product in products
            if not any(other < product for other in products)
        }
        assert BddManager().from_dnf(dnf).satisfying_products() == minimal

    @settings(deadline=None, max_examples=40)
    @given(_dnfs)
    def test_canonical_equality_of_reordered_dnf(self, dnf):
        manager = BddManager()
        assert manager.from_dnf(dnf) == manager.from_dnf(list(reversed(dnf)))


class TestComputedTableAndTransport:
    """PR 5 satellites: bounded computed table, walk caches, canonical order."""

    def test_computed_table_is_bounded_and_flushes(self):
        # The limit must comfortably hold one top-level apply's working set
        # (a flush mid-recursion forfeits that call's memoization); what is
        # bounded is the *cumulative* growth across many applies.
        def build(manager):
            accumulator = manager.false()
            for index in range(14):
                # pair members adjacent in the (lexicographic) variable
                # order, so the accumulated BDD stays linear-sized
                accumulator = accumulator | (
                    manager.var(f"x{index:02d}a") & manager.var(f"x{index:02d}b")
                )
            return accumulator

        roomy = BddManager()
        unbounded = build(roomy)
        bounded_manager = BddManager()
        with mock.patch.object(repro.core.bdd, "APPLY_CACHE_LIMIT", 64):
            bounded = build(bounded_manager)
        # the same work overflows 64 entries, so the bounded table flushed
        assert len(roomy._apply_cache) > 64
        assert 0 < len(bounded_manager._apply_cache) <= 64
        # flushing is pure memoization policy: results stay canonical
        assert export_bdd(bounded) == export_bdd(unbounded)
        rebuilt = BddManager().from_dnf(bounded.satisfying_products())
        assert rebuilt.node_count() == bounded.node_count()

    def test_node_count_and_wire_size_cached_per_node_id(self):
        manager = BddManager()
        bdd = manager.from_dnf([["aa", "bb"], ["cc"]])
        count, size = bdd.node_count(), bdd.wire_size()
        assert bdd.node_id in manager._size_cache
        # a fresh handle to the same node reuses the cached walk results
        handle = Bdd(manager, bdd.node_id)
        assert handle.node_count() == count
        assert handle.wire_size() == size

    def test_variable_order_is_name_canonical_across_managers(self):
        left = BddManager()
        one = (left.var("zz") & left.var("aa")) | left.var("mm")
        right = BddManager()
        other = right.var("mm") | (right.var("aa") & right.var("zz"))
        assert one.node_count() == other.node_count()
        assert one.wire_size() == other.wire_size()
        assert export_bdd(one) == export_bdd(other)

    def test_export_import_round_trip(self):
        source = BddManager()
        bdd = source.from_dnf([["aa", "bb"], ["bb", "cc"], ["dd"]])
        destination = BddManager()
        imported = import_bdd(destination, export_bdd(bdd))
        assert imported.node_count() == bdd.node_count()
        assert imported.wire_size() == bdd.wire_size()
        assert imported.satisfying_products() == bdd.satisfying_products()
        # importing into the source manager resolves to the very same node
        assert import_bdd(source, export_bdd(bdd)) == bdd


class _RecursiveManager(BddManager):
    """The textbook apply, one helper per step, as the kernel's oracle.

    ``BddManager._apply`` folds the terminal cases, the computed-table
    probe, the cofactors and the unique-table probe into one function; it
    must build the same nodes under the same ids and leave the same
    computed table behind, flushes included.
    """

    def _apply(self, op, left, right):
        terminal = self._terminal(op, left, right)
        if terminal is not None:
            return terminal
        key = (op, left, right) if left <= right else (op, right, left)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        left_var = None if self._is_terminal(left) else self._node(left).var
        right_var = None if self._is_terminal(right) else self._node(right).var
        if right_var is None or (left_var is not None and left_var <= right_var):
            top = left_var
        else:
            top = right_var
        left_low, left_high = self._cofactors(left, top)
        right_low, right_high = self._cofactors(right, top)
        low = self._apply(op, left_low, right_low)
        high = self._apply(op, left_high, right_high)
        result = self._make_node(top, low, high)
        self._cache_put(key, result)
        return result

    def _terminal(self, op, left, right):
        if op == "and":
            if left == self.FALSE_ID or right == self.FALSE_ID:
                return self.FALSE_ID
            if left == self.TRUE_ID:
                return right
            if right == self.TRUE_ID or left == right:
                return left
        else:
            if left == self.TRUE_ID or right == self.TRUE_ID:
                return self.TRUE_ID
            if left == self.FALSE_ID:
                return right
            if right == self.FALSE_ID or left == right:
                return left
        return None

    def _cofactors(self, node_id, var):
        if self._is_terminal(node_id):
            return node_id, node_id
        node = self._node(node_id)
        if var is None or node.var != var:
            return node_id, node_id
        return node.low, node.high


_KERNEL_NAMES = st.sampled_from("abcdefgh")
#: Handles are picked counting back from the newest, so steps keep
#: combining the larger diagrams built so far.
_HANDLE = st.integers(min_value=0, max_value=7)
_KERNEL_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("var"), _KERNEL_NAMES),
        st.tuples(st.sampled_from(["and", "or", "merge"]), _HANDLE, _HANDLE),
        st.tuples(st.just("combine"), st.lists(_HANDLE, max_size=4)),
        st.tuples(
            st.just("dnf"),
            st.lists(st.lists(_KERNEL_NAMES, min_size=1, max_size=4), max_size=6),
        ),
    ),
    min_size=1,
    max_size=40,
)


def _play_kernel(manager, steps, folded):
    """Run *steps*; *folded* uses the value policy's combine / merge."""
    from repro.core.modes import BddValuePolicy

    policy = BddValuePolicy(manager)
    handles = [manager.false(), manager.true()]
    for step in steps:
        kind = step[0]
        pick = lambda index: handles[-1 - index % len(handles)]  # noqa: E731
        if kind == "var":
            handles.append(manager.var(step[1]))
        elif kind == "and":
            handles.append(pick(step[1]) & pick(step[2]))
        elif kind == "or":
            handles.append(pick(step[1]) | pick(step[2]))
        elif kind == "merge":
            left, right = pick(step[1]), pick(step[2])
            handles.append(policy.merge(left, right) if folded else left | right)
        elif kind == "combine":
            inputs = [pick(index) for index in step[1]]
            if folded:
                handles.append(policy.combine(None, inputs, None))
            else:
                result = manager.true()
                for annotation in inputs:
                    result = result & annotation
                handles.append(result)
        else:
            handles.append(manager.from_dnf(step[1]))
    return [handle.node_id for handle in handles]


class TestApplyKernel:
    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(steps=_KERNEL_STEPS)
    # Both cofactor results are new nodes: ids follow the recursion order.
    @example(steps=[("dnf", [["a", "b"], ["c"]]), ("dnf", [["a", "d"], ["e"]]), ("or", 0, 1)])
    @pytest.mark.parametrize("cache_limit", [1 << 18, 3], ids=["roomy", "flushing"])
    def test_apply_equals_the_recursive_oracle(self, cache_limit, steps):
        """Same node ids, unique table and computed table."""
        kernel, oracle = BddManager(), _RecursiveManager()
        with mock.patch.object(repro.core.bdd, "APPLY_CACHE_LIMIT", cache_limit):
            assert _play_kernel(kernel, steps, folded=True) == _play_kernel(
                oracle, steps, folded=False
            )
        assert list(kernel._unique.items()) == list(oracle._unique.items())
        assert list(kernel._nodes.items()) == list(oracle._nodes.items())
        assert list(kernel._apply_cache.items()) == list(oracle._apply_cache.items())
        assert len(kernel._apply_cache) <= cache_limit

    def test_combine_rejects_a_foreign_manager(self):
        from repro.core.modes import BddValuePolicy

        policy = BddValuePolicy(BddManager())
        stranger = BddManager().var("x")
        with pytest.raises(ValueError):
            policy.combine(None, [stranger], None)
        with pytest.raises(ValueError):
            policy.merge(policy.manager.var("x"), stranger)
