"""CI durability gate for the pluggable storage engine.

Four checks, in order, all deterministic (no wall-clock — repo policy):

1. **Backend byte-identity** — the artifact a ``--storage sqlite`` run of
   the ``query_concurrency`` scenario produced must byte-match the
   committed memory-backend baseline (canonical bytes, advisory keys
   stripped — exactly the ``repro.experiments compare`` contract).
   Storage is an execution-environment knob; any drift is a real behavior
   change.
2. **Crash recovery** — a subprocess runs a MINCOST fixpoint under the
   sqlite backend, checkpoints, and SIGKILLs itself; a fresh process
   restores from the file, continues scripted churn to fixpoint, and its
   digests must equal an uninterrupted process running the same script.
3. **SQL-vs-distributed oracle** — in the restored process, the sqlite
   backend's SQL provenance answers must equal the distributed query
   engine's (``nodeset``/``derivability``) and the in-RAM provenance
   graph's (``nodeset``/``reachable_base``/``reachable``/``subgraph``) on
   the same tuples.
4. **Mirror == engines** — in the restored process, after the scripted
   churn, the mirrored ``tuples``/``prov``/``rule_exec`` rows must equal
   the live engines' tables row for row, with nothing left in the
   write-behind journal (the net-effect flush lost and invented nothing).

Run from CI (after the sqlite scenario run)::

    PYTHONPATH=src python benchmarks/durability_gate.py \
        --baseline benchmarks/baselines --candidate results-sqlite

Exit status 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT = "BENCH_query_concurrency.json"


# ---------------------------------------------------------------------- #
# subprocess phases (this file re-executes itself with --phase)
# ---------------------------------------------------------------------- #
def _build_network():
    from repro.core.api import ExspanNetwork
    from repro.core.config import ExspanConfig
    from repro.net.topology import ring_topology
    from repro.protocols.mincost import mincost_program

    return ExspanNetwork(
        ring_topology(8, seed=7),
        mincost_program(),
        config=ExspanConfig(seed=0, storage="sqlite"),
    )


def _restore_network(ckpt_path):
    from repro.core.api import ExspanNetwork
    from repro.net.topology import ring_topology
    from repro.protocols.mincost import mincost_program

    return ExspanNetwork.restore(
        ckpt_path, ring_topology(8, seed=7), mincost_program(), storage="sqlite"
    )


def _phase_a(network):
    network.seed_links()
    network.run_to_fixpoint()


def _phase_b(network):
    network.remove_link("n0", "n1")
    network.run_to_fixpoint()
    network.add_link("n3", "n7", cost=2)
    network.run_to_fixpoint()


def _sql_cross_check(network):
    """SQL path vs distributed engine vs in-RAM graph; returns failures."""
    from repro.core.requests import QueryRequest, SpecDescriptor
    from repro.core.vid import fact_vid
    from repro.datalog.ast import Fact

    graph = network.provenance_graph()
    failures = []
    facts = sorted((node, values) for node, values in network.tuples("bestPathCost"))
    for node, values in facts[:10]:
        fact = Fact("bestPathCost", values)
        vid = fact_vid(fact)
        distributed_nodes = sorted(
            network.execute(
                QueryRequest(fact=fact, spec=SpecDescriptor(kind="nodeset"))
            ).result
        )
        sql_nodes = network.sql_provenance("nodeset", fact)
        if sql_nodes != distributed_nodes:
            failures.append(f"nodeset mismatch for {values}: "
                            f"sql={sql_nodes} distributed={distributed_nodes}")
        if sql_nodes != sorted(graph.nodes_involved(vid)):
            failures.append(f"nodeset mismatch vs graph for {values}")
        derivable = network.execute(
            QueryRequest(fact=fact, spec=SpecDescriptor(kind="derivability"))
        ).result
        if network.sql_provenance("derivability", fact) != bool(derivable):
            failures.append(f"derivability mismatch for {values}")
        if network.sql_provenance("reachable_base", fact) != sorted(
            graph.reachable_base_tuples(vid)
        ):
            failures.append(f"reachable_base mismatch vs graph for {values}")
        vertices, _rules = graph._subgraph(vid)
        if network.sql_provenance("reachable", fact) != sorted(vertices):
            failures.append(f"reachable mismatch vs graph for {values}")
        edges = {
            (parent, rule.rid, child)
            for parent in vertices
            for rule in graph.derivations_of(parent)
            for child in rule.input_vids
        }
        if network.sql_provenance("subgraph", fact) != sorted(edges):
            failures.append(f"subgraph mismatch vs graph for {values}")
    return failures


def _mirror_check(network):
    """Mirrored rows vs the live engines' tables; returns failures."""
    network.storage_flush()
    failures = []
    pending = network.storage_stats()["journal_pending"]
    if pending:
        failures.append(f"{pending} journal op(s) still pending after a flush")
    mirrored = network.storage.mirror_rows()
    expected = network.storage.engine_rows()
    for table in ("tuples", "prov", "rule_exec"):
        if sorted(mirrored[table], key=repr) != sorted(expected[table], key=repr):
            failures.append(
                f"{table}: mirror holds {len(mirrored[table])} row(s), engines "
                f"{len(expected[table])}, and they differ"
            )
    return failures


def _run_phase(phase: str, ckpt_path: str) -> None:
    from repro.net.sharding import collect_digest

    if phase == "crash":
        network = _build_network()
        _phase_a(network)
        network.checkpoint(ckpt_path)
        os.kill(os.getpid(), signal.SIGKILL)
    elif phase == "restore":
        network = _restore_network(ckpt_path)
        _phase_b(network)
        payload = {
            "digests": collect_digest(network),
            "now": network.now,
            "sql_failures": _sql_cross_check(network),
            "mirror_failures": _mirror_check(network),
        }
        network.close_storage()
        json.dump(payload, sys.stdout, sort_keys=True)
    elif phase == "full":
        network = _build_network()
        _phase_a(network)
        _phase_b(network)
        payload = {"digests": collect_digest(network), "now": network.now}
        network.close_storage()
        json.dump(payload, sys.stdout, sort_keys=True)
    else:
        raise SystemExit(f"unknown phase {phase!r}")


# ---------------------------------------------------------------------- #
# the gate
# ---------------------------------------------------------------------- #
def _fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


def _check_artifact(baseline_dir: str, candidate_dir: str) -> None:
    from repro.experiments.orchestrator import canonical_artifact_bytes

    left = canonical_artifact_bytes(os.path.join(baseline_dir, ARTIFACT))
    right = canonical_artifact_bytes(os.path.join(candidate_dir, ARTIFACT))
    if left is None:
        _fail(f"missing/unreadable baseline artifact {baseline_dir}/{ARTIFACT}")
    if right is None:
        _fail(f"missing/unreadable candidate artifact {candidate_dir}/{ARTIFACT}")
    if left != right:
        _fail(
            f"{ARTIFACT}: sqlite-backend artifact differs from the committed "
            "memory-backend baseline (storage must be result-invariant)"
        )
    print(f"ok: {ARTIFACT} byte-identical under --storage sqlite "
          f"({len(left)} canonical bytes)")


def _spawn(phase: str, ckpt_path: str, hashseed: int) -> subprocess.CompletedProcess:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.join(REPO, "src")
    environment["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--phase", phase, "--ckpt", ckpt_path],
        capture_output=True,
        text=True,
        env=environment,
        timeout=300,
    )


def _check_recovery(work_dir: str) -> None:
    ckpt_path = os.path.join(work_dir, "durability_gate.ckpt")
    crashed = _spawn("crash", ckpt_path, hashseed=11)
    if crashed.returncode != -signal.SIGKILL:
        _fail(f"crash phase exited {crashed.returncode}, expected SIGKILL; "
              f"stderr:\n{crashed.stderr}")
    if not os.path.exists(ckpt_path):
        _fail("checkpoint file missing after SIGKILL")
    restored = _spawn("restore", ckpt_path, hashseed=12)
    if restored.returncode != 0:
        _fail(f"restore phase failed:\n{restored.stderr}")
    uninterrupted = _spawn("full", ckpt_path, hashseed=13)
    if uninterrupted.returncode != 0:
        _fail(f"uninterrupted phase failed:\n{uninterrupted.stderr}")

    restored_payload = json.loads(restored.stdout)
    full_payload = json.loads(uninterrupted.stdout)
    if restored_payload["digests"] != full_payload["digests"]:
        _fail("restored continuation digests differ from the uninterrupted run")
    if restored_payload["now"] != full_payload["now"]:
        _fail("restored continuation clock differs from the uninterrupted run")
    print(f"ok: checkpoint -> SIGKILL -> restore reproduced all "
          f"{len(full_payload['digests'])} node digests")

    sql_failures = restored_payload["sql_failures"]
    if sql_failures:
        for failure in sql_failures:
            print(f"  {failure}")
        _fail(f"{len(sql_failures)} SQL-vs-distributed mismatches after restore")
    print("ok: SQL answers equal the distributed engine's and the graph's after restore")

    mirror_failures = restored_payload["mirror_failures"]
    if mirror_failures:
        for failure in mirror_failures:
            print(f"  {failure}")
        _fail("the sqlite mirror diverged from the live engines after restore + churn")
    print("ok: mirrored tuples/prov/rule_exec rows equal the live engines' after churn")
    os.remove(ckpt_path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=os.path.join("benchmarks", "baselines"))
    parser.add_argument("--candidate", default="results-sqlite")
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--phase", help=argparse.SUPPRESS)
    parser.add_argument("--ckpt", help=argparse.SUPPRESS)
    arguments = parser.parse_args()
    if arguments.phase:
        _run_phase(arguments.phase, arguments.ckpt)
        return
    _check_artifact(arguments.baseline, arguments.candidate)
    _check_recovery(arguments.work_dir)
    print("durability gate: all checks passed")


if __name__ == "__main__":
    main()
