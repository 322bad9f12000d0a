"""Mutation gate: do the tests still catch the faults they were written for?

Each mutant in :data:`MUTANTS` is one data row: a file under ``src/repro``,
an exact piece of its text, the text that replaces it, and the pytest node
ids that must fail once it is replaced.  The gate copies ``src/``, ``tests/``
and the pytest configuration into a temporary directory, checks that every
node id passes on the unmutated copy, then applies one mutant at a time,
runs that mutant's node ids with ``-x`` and restores the file.  A mutant is

* **caught** when pytest reports a failing test (exit status 1);
* **survived** when its tests pass, or when pytest runs none of them (a
  deleted or renamed test does not catch anything);
* **equivalent** when the row names a reason instead of tests: the change
  cannot alter behaviour, and it is applied only to check that its text
  still exists.

The gate exits 1 when any non-equivalent mutant survives, when a mutant's
text no longer occurs exactly once, or when the unmutated copy fails.

Usage::

    python benchmarks/mutants.py           # every mutant, two at a time
    python benchmarks/mutants.py --list    # names and node ids only

It takes about a minute and a half on 2 cores.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: What a copy needs to run the tests: the sources, the tests, and the
#: pytest configuration with its path bootstrap.
COPIED = ("src", "tests", "conftest.py", "_bootstrap.py", "pytest.ini")
#: Mutants run at once, each in its own copy of the tree.
JOBS = 2


class Mutant(NamedTuple):
    name: str
    #: Path under ``src/repro``.
    file: str
    old: str
    new: str
    #: Node ids (relative to the repo root) of which at least one must fail.
    tests: Tuple[str, ...] = ()
    #: Why the change cannot alter behaviour; such a mutant is not run.
    equivalent: Optional[str] = None


MUTANTS: List[Mutant] = [
    # -- PATHVECTOR's winner and the MIN/MAX support record ------------- #
    Mutant(
        "pv4_min_path",
        "protocols/pathvector.py",
        "pv4 bestPath(@S,D,C,min<P>) :-",
        "pv4 bestPath(@S,D,C,P) :-",
        (
            "tests/test_from_scratch.py::test_grid_cut_keeps_every_route",
            "tests/test_from_scratch.py::test_transit_stub_cut_keeps_every_route",
        ),
    ),
    Mutant(
        "twin_joins_again",
        "datalog/engine.py",
        "if fed and not (self._policy or fed.groups) and _feeds_twin(",
        "if False and fed and not (self._policy or fed.groups) and _feeds_twin(",
        ("tests/test_plan_subsystem.py::TestSupportFedJoinBacks",),
    ),
    Mutant(
        "support_record_keeps_retracted_match",
        "datalog/engine.py",
        "                at = matches.index(match)\n"
        "                if len(matches) == 1:\n"
        "                    del support[derived]\n"
        "                else:\n"
        "                    support[derived] = matches[:at] + matches[at + 1 :]\n",
        "                pass\n",
        (
            "tests/test_from_scratch.py::test_grid_cut_keeps_every_route",
            "tests/test_from_scratch.py::test_cost_update_replaces_the_winner",
            "tests/test_plan_subsystem.py::TestSupportFedJoinBacks",
        ),
    ),
    # -- index buckets: a 1-tuple, promoted at two rows, demoted at one - #
    Mutant(
        "bucket_promotion_drops_first_row",
        "storage/memory.py",
        "{bucket[0]: None, values: None}",
        "{values: None}",
        (
            "tests/test_order_sensitive_rewrites.py::test_single_function_table_mutations_equal_the_ladder",
            "tests/test_plan_subsystem.py::TestIndexMaintenance::"
            "test_index_stays_consistent_under_derivation_counted_deletes",
            "tests/test_from_scratch.py::test_cost_update_replaces_the_winner",
        ),
    ),
    Mutant(
        "bucket_delete_empties_two_row_bucket",
        "storage/memory.py",
        "                    if len(bucket) == 1:\n"
        "                        index[key] = (*bucket,)\n",
        "                    if len(bucket) == 1:\n"
        "                        del index[key]\n",
        (
            "tests/test_order_sensitive_rewrites.py::test_single_function_table_mutations_equal_the_ladder",
            "tests/test_plan_subsystem.py::TestIndexMaintenance::"
            "test_index_stays_consistent_under_derivation_counted_deletes",
            "tests/test_from_scratch.py::test_cost_update_replaces_the_winner",
        ),
    ),
    Mutant(
        "arity_per_step",
        "datalog/plan/compiled_exec.py",
        '            f"{indent}if table.arity != {len(atom.args)}:",\n'
        '            f"{indent}    rows{depth} = ()",\n',
        "",
        (
            "tests/test_plan_subsystem.py::TestCompiledPlans::test_an_atom_of_another_arity_matches_nothing",
        ),
    ),
    Mutant(
        "f_append_bound_to_f_item",
        "datalog/plan/compiled_exec.py",
        "self.namespace[name] = BUILTINS[term.name]",
        'self.namespace[name] = BUILTINS["f_item" if term.name == "f_append" else term.name]',
        (
            "tests/test_plan_subsystem.py::test_generated_code_calls_the_builtins_the_interpreter_looks_up",
            "tests/test_plan_subsystem.py::test_generated_code_binds_each_builtin_it_calls_once",
        ),
    ),
    Mutant(
        "aggregate_winner_left",
        "datalog/aggregates.py",
        "self._best = None  # winner left",
        "pass  # winner left",
        ("tests/test_datalog_aggregates.py",),
    ),
    # -- sharded == serial ---------------------------------------------- #
    Mutant(
        "serial_script_late",
        "net/sharding.py",
        "net.simulator.schedule_at(time, lambda ops=ops: apply(ops))",
        "net.simulator.schedule_at(time + 0.001, lambda ops=ops: apply(ops))",
        ("tests/test_sharding.py::test_churn_equivalence",),
    ),
    # -- provenance values ---------------------------------------------- #
    Mutant(
        "count_derivations_adds_joins",
        "core/semiring.py",
        "count *= count_derivations(factor)",
        "count += count_derivations(factor)",
        ("tests/test_core_vid_semiring.py::TestSemiringEvaluations",),
    ),
    Mutant(
        "product_dnf_derives_nothing",
        "core/semiring.py",
        "        products: Set[FrozenSet[str]] = {frozenset()}\n",
        "        products: Set[FrozenSet[str]] = set()\n",
        (
            "tests/test_core_vid_semiring.py::TestPolynomialProperties::test_dnf_equivalent_to_expression_for_derivability",
        ),
    ),
    Mutant(
        "sum_keeps_empty",
        "core/semiring.py",
        "        if isinstance(term, _Empty):\n"
        "            continue\n",
        "",
        ("tests/test_core_vid_semiring.py::TestPolynomialConstruction",),
    ),
    Mutant(
        "bdd_and_is_or",
        "core/bdd.py",
        'return Bdd(self.manager, self.manager._apply("and", self.node_id, other.node_id))',
        'return Bdd(self.manager, self.manager._apply("or", self.node_id, other.node_id))',
        ("tests/test_core_bdd.py",),
    ),
    Mutant(
        "rid_ignores_location",
        "core/vid.py",
        "return _f_sha1((rule_label, location, tuple(input_vids)))",
        "return _f_sha1((rule_label, tuple(input_vids)))",
        ("tests/test_core_vid_semiring.py::TestVids",),
    ),
    # -- the wire and the service --------------------------------------- #
    Mutant(
        "decode_fact_keeps_lists",
        "core/requests.py",
        "return Fact(name, tuple(map(_frozen, values)), location_index=index)",
        "return Fact(name, tuple(values), location_index=index)",
        (
            "tests/test_service_protocol.py::test_decode_fact_freezes_nested_lists_and_finds_the_vid_memo",
        ),
    ),
    Mutant(
        "decode_fact_drops_location",
        "core/requests.py",
        "return Fact(name, tuple(map(_frozen, values)), location_index=index)",
        "return Fact(name, tuple(map(_frozen, values)))",
        (
            "tests/test_service_protocol.py::test_decode_fact_freezes_nested_lists_and_finds_the_vid_memo",
        ),
    ),
    Mutant(
        "restored_bdd_in_a_private_manager",
        "core/requests.py",
        'return import_bdd(manager, (payload["root"], nodes))',
        'return import_bdd(BddManager(), (payload["root"], nodes))',
        ("tests/test_checkpoint_recovery.py::test_value_checkpoint_restores_every_node_state",),
    ),
    Mutant(
        "int_costs_eight_bytes",
        "net/message.py",
        "    if cls is int:\n"
        "        return 4\n",
        "    if cls is int:\n"
        "        return 8\n",
        ("tests/test_wire_sizing.py::test_sizes_and_encodings_equal_the_oracles",),
    ),
    Mutant(
        "kind_filter_inverted",
        "net/stats.py",
        "if route[2] in kinds}",
        "if route[2] not in kinds}",
        ("tests/test_traffic_log.py",),
    ),
    # -- maintenance ---------------------------------------------------- #
    Mutant(
        "churn_logs_additions_as_deletions",
        "net/churn.py",
        'ChurnEvent(self.simulator.now, "add", a, b)',
        'ChurnEvent(self.simulator.now, "delete", a, b)',
        ("tests/test_net_network_stats_churn.py::TestChurn",),
    ),
    Mutant(
        "remove_link_forgets_cost",
        "core/api.py",
        "            cost = spec.cost\n",
        "            cost = LinkSpec().cost\n",
        ("tests/test_integration.py::TestDynamicMaintenance",),
    ),
    Mutant(
        "events_lifo_on_ties",
        "net/simulator.py",
        "event = ScheduledEvent((time, key, sequence, callback, argument, self))",
        "event = ScheduledEvent((time, key, -sequence, callback, argument, self))",
        ("tests/test_net_simulator_message.py",),
    ),
    Mutant(
        "invalidation_drops_dependents",
        "core/cache.py",
        "dependents = tuple(self._dependents.pop(key, ()))",
        "dependents = ()",
        ("tests/test_core_cache_and_api.py",),
    ),
    Mutant(
        "eviction_reads_dependent_as_pair",
        "core/cache.py",
        "displaced.update(dict.fromkeys(self._dependents.pop(victim_key, ())))",
        "displaced.update(self._dependents.pop(victim_key, {}))",
        (
            "tests/test_query_concurrency.py::TestBoundedCache::"
            "test_eviction_displaces_dependents_for_notification",
        ),
    ),
    Mutant(
        "prov_update_invalidates_itself",
        "core/query.py",
        'kind, identifier = "v", fact.values[1]',
        'kind, identifier = "v", fact_vid(fact)',
        ("tests/test_core_cache_and_api.py",),
    ),
    Mutant(
        "unknown_vertex_forgets_dependent",
        "core/query.py",
        "            self.cache.add_dependent(record.key, parent[0], parent[1])\n",
        "            pass\n",
        (
            "tests/test_query_concurrency.py::TestMissingVertexDependents::"
            "test_missing_vertex_keeps_reverse_pointer_for_late_arrival",
        ),
    ),
    Mutant(
        "rule_result_keyed_vid",
        "core/query.py",
        "                    id_key: payload[id_key],\n",
        '                    "vid": payload[id_key],\n',
        ("tests/test_wire_sizing.py::test_query_messages_keep_their_wire_shapes",),
    ),
    Mutant(
        "fold_forgets_voided_delete",
        "storage/sqlite.py",
        "                    deletes[key] = op\n"
        "                    cancelled += 1\n",
        "                    cancelled += 1\n",
        ("tests/test_storage_fold.py",),
    ),
    Mutant(
        "restore_without_support",
        "storage/checkpoint.py",
        "    engine._rebuild_support()\n",
        "",
        (
            "tests/test_storage_backend.py::test_no_empty_aggregate_group_survives_and_restore_still_evolves",
        ),
    ),
    Mutant(
        "faults_never_drop",
        "faults/injector.py",
        "if rng.random() >= rule.prob:",
        "if True:",
        ("tests/test_faults.py",),
    ),
]


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #
def make_copy(parent: str) -> str:
    root = tempfile.mkdtemp(prefix="mutants-", dir=parent)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in COPIED:
        source = os.path.join(REPO, name)
        target = os.path.join(root, name)
        if os.path.isdir(source):
            shutil.copytree(source, target, ignore=ignore)
        else:
            shutil.copyfile(source, target)
    return root


def pytest(root: str, node_ids: Sequence[str]) -> subprocess.CompletedProcess:
    """Run *node_ids* in the copy at *root*, stopping at the first failure."""
    environment = dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
        # A mutated file may keep its size and mtime second: never let a
        # stale bytecode cache stand in for it.
        PYTHONDONTWRITEBYTECODE="1",
    )
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(
        command + list(node_ids), cwd=root, env=environment, capture_output=True, text=True
    )


def check_text(root: str, mutant: Mutant) -> Optional[str]:
    """``None`` when the mutant's old text occurs exactly once in its file."""
    path = os.path.join(root, "src", "repro", mutant.file)
    if not os.path.exists(path):
        return f"{mutant.file} does not exist"
    with open(path, encoding="utf-8") as handle:
        count = handle.read().count(mutant.old)
    return None if count == 1 else f"old text occurs {count} times in {mutant.file}"


def run_mutant(root: str, mutant: Mutant) -> Tuple[str, str]:
    """``(verdict, detail)``: caught, survived, equivalent or error."""
    problem = check_text(root, mutant)
    if problem:
        return "error", problem
    if mutant.equivalent:
        return "equivalent", mutant.equivalent
    path = os.path.join(root, "src", "repro", mutant.file)
    with open(path, encoding="utf-8") as handle:
        original = handle.read()
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original.replace(mutant.old, mutant.new))
        result = pytest(root, mutant.tests)
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original)
    if result.returncode == 1:
        failed = [line for line in result.stdout.splitlines() if line.startswith("FAILED")]
        return "caught", failed[0][len("FAILED ") :] if failed else "a test failed"
    if result.returncode == 0:
        return "survived", "every test passed"
    return "survived", f"pytest exit {result.returncode} (no test ran?)"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.name:<28} {mutant.file}")
            for node_id in mutant.tests:
                print(f"{'':<28}   {node_id}")
            if mutant.equivalent:
                print(f"{'':<28}   equivalent: {mutant.equivalent}")
        return 0

    started = time.monotonic()
    scratch = tempfile.mkdtemp(prefix="mutation-gate-")
    try:
        roots = [make_copy(scratch) for _ in range(JOBS)]
        node_ids = sorted({node_id for mutant in MUTANTS for node_id in mutant.tests})
        baseline = pytest(roots[0], node_ids)
        if baseline.returncode != 0:
            print(baseline.stdout[-4000:], baseline.stderr[-4000:], sep="\n")
            print(f"FAIL: the unmutated tree fails its own mutants' tests ({len(node_ids)} ids)")
            return 1
        print(f"unmutated tree: {len(node_ids)} node ids pass")

        free = list(roots)
        verdicts: Dict[str, Tuple[str, str]] = {}

        def task(mutant: Mutant) -> None:
            root = free.pop()
            try:
                verdicts[mutant.name] = run_mutant(root, mutant)
            finally:
                free.append(root)

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            list(pool.map(task, MUTANTS))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    bad = 0
    for mutant in MUTANTS:
        verdict, detail = verdicts[mutant.name]
        bad += verdict in ("survived", "error")
        print(f"{verdict:<10} {mutant.name:<28} {detail}")
    names = ("caught", "equivalent", "survived", "error")
    summary = ", ".join(
        f"{sum(verdict == name for verdict, _ in verdicts.values())} {name}" for name in names
    )
    print(f"{len(MUTANTS)} mutants: {summary}  ({time.monotonic() - started:.0f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
