"""Each oracle passes a right answer and *fails* a deliberately corrupted one.

Run with ``python -m pytest benchmarks/perf -q``; not part of tier-1.
"""

from __future__ import annotations

import copy
import json

import checks

NODES = ["a", "b", "c", "d"]
LINKS = [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 5)]


def right_rows():
    costs = {("a", "b"): 1, ("a", "c"): 2, ("a", "d"): 3, ("b", "c"): 1, ("b", "d"): 2}
    costs[("c", "d")] = 1
    rows = []
    for (source, destination), cost in costs.items():
        rows.append((source, destination, cost))
        rows.append((destination, source, cost))
    return rows


def test_dijkstra_accepts_the_shortest_costs():
    assert checks.check_best_costs(right_rows(), NODES, LINKS) == []


def test_dijkstra_rejects_a_wrong_cost():
    rows = [("a", "d", 5) if row[:2] == ("a", "d") else row for row in right_rows()]
    problems = checks.check_best_costs(rows, NODES, LINKS)
    assert any("Dijkstra says 3" in problem for problem in problems)


def test_dijkstra_rejects_a_missing_and_an_unreachable_pair():
    rows = right_rows()[:-1]
    assert any("no best cost" in problem for problem in checks.check_best_costs(rows, NODES, LINKS))
    isolated = right_rows() + [("a", "z", 1)]
    problems = checks.check_best_costs(isolated, NODES, LINKS)
    assert any("cannot reach" in problem for problem in problems)


def test_dijkstra_leaves_out_costs_at_the_bound():
    bounded = [row for row in right_rows() if row[2] < 3]
    assert checks.check_best_costs(bounded, NODES, LINKS, max_cost=3) == []
    assert checks.check_best_costs(right_rows(), NODES, LINKS, max_cost=3) != []


def lit(label):
    return {"op": "lit", "label": label}


#: x*y + z*(u + v): three derivations.
POLYNOMIAL = {
    "kind": "polynomial",
    "tree": {
        "op": "sum",
        "terms": [
            {"op": "prod", "factors": [lit("x"), lit("y")]},
            {"op": "prod", "factors": [lit("z"), {"op": "sum", "terms": [lit("u"), lit("v")]}]},
        ],
    },
}


def test_cached_equals_uncached_and_bfs_equals_dfs():
    answer = {"kind": "int", "value": 3}
    assert checks.check_same_answer("cached", answer, dict(answer)) == []
    assert checks.check_same_answer("cached", answer, {"kind": "int", "value": 4}) != []
    reordered = copy.deepcopy(POLYNOMIAL)
    reordered["tree"]["terms"].reverse()
    assert checks.check_same_answer("bfs/dfs", POLYNOMIAL, reordered) != []


def test_derivation_count_follows_the_polynomial():
    assert checks.polynomial_derivations(POLYNOMIAL["tree"]) == 3
    assert checks.check_derivation_count("n", {"kind": "int", "value": 3}, POLYNOMIAL) == []
    assert checks.check_derivation_count("n", {"kind": "int", "value": 2}, POLYNOMIAL) != []
    assert checks.check_derivation_count("n", {"kind": "bool", "value": True}, POLYNOMIAL) != []


def test_thresholded_count_is_clipped_on_both_sides():
    stopped_early = {"kind": "int", "value": 2}
    assert checks.check_derivation_count("t", stopped_early, POLYNOMIAL, threshold=2) == []
    too_few = {"kind": "int", "value": 1}
    assert checks.check_derivation_count("t", too_few, POLYNOMIAL, threshold=2) != []


def wire_result():
    return {
        "vid": "v1", "spec": "polynomial:cache", "issuer": "a", "target": "a",
        "fact": {"name": "bestPathCost", "values": ["a", "b", 1], "location_index": 0},
        "annotation": {"kind": "int", "value": 1},
        "meta": {"query_id": "a#7", "issued_at": 1.0, "completed_at": 2.0},
    }


def test_socket_body_must_equal_the_in_process_bytes():
    reply = wire_result()
    body = {key: reply[key] for key in ("vid", "spec", "issuer", "target", "fact", "annotation")}
    in_process = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    assert checks.check_socket_body(reply, in_process) == []
    reply["annotation"]["value"] = 2
    assert checks.check_socket_body(reply, in_process) != []


def test_restored_tables_must_hold_the_live_rows():
    live = {
        "link": [("a", ("a", "b", 1)), ("b", ("b", "a", 1))],
        "path": [("a", ("a", "b", 1, ("a", "b")))],
    }
    reordered = {name: list(reversed(rows)) for name, rows in live.items()}
    assert checks.check_restored(live, reordered) == []
    lossy = {"link": live["link"][:1], "path": live["path"]}
    assert any("link" in problem for problem in checks.check_restored(live, lossy))
    assert checks.check_restored(live, {"link": live["link"]}) != []


def test_sql_nodeset_must_name_the_distributed_nodes():
    distributed = {"kind": "set", "values": ["a", "b", "c"]}
    assert checks.check_sql_nodeset("f", ["c", "a", "b"], distributed) == []
    assert checks.check_sql_nodeset("f", ["a", "b"], distributed) != []
    assert checks.check_sql_nodeset("f", ["a", "b", "c"], {"kind": "int", "value": 3}) != []


def test_sharded_summary_must_equal_the_serial_twin():
    serial = {"fixpoint_time": 0.4, "traffic": {"total_bytes": 10}, "prov_rows": {"prov": 3}}
    assert checks.check_sharded_summary(copy.deepcopy(serial), serial) == []
    sharded = copy.deepcopy(serial)
    sharded["traffic"]["total_bytes"] = 11
    assert any("traffic" in problem for problem in checks.check_sharded_summary(sharded, serial))
    assert checks.check_sharded_summary({**serial, "extra": 1}, serial) != []
