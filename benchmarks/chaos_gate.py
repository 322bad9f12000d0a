"""CI chaos gate for the deterministic fault-injection subsystem.

Four checks, in order, all deterministic (no wall-clock — repo policy):

1. **Empty-plan byte-identity** — ``FaultPlan.empty()`` must be a literal
   no-op: ``install_faults`` returns ``None`` and the full per-node state
   digests (tables, annotations *and* counters) of an "empty-plan" run
   equal a run that never mentioned faults.  This is identity by
   construction, not convergence-up-to-retransmits.
2. **Serial fault matrix** — every (protocol × plan) cell of the chaos
   matrix (message drops, duplicates + delays, node crash/restart, link
   flap) must yield final protocol tables whose convergence digest equals
   the fault-free run's.  Protocols: MINCOST, PATHVECTOR, and
   PATHVECTOR + PACKETFORWARD with post-fixpoint data-plane packets.
3. **Sharded fault matrix** — the same cells at ``shards=2``: workers
   execute the plan locally, and the merged convergence digest must equal
   the same serial fault-free reference.
4. **Shard-worker SIGKILL** — a plan that SIGKILLs a shard worker between
   barrier windows, with the supervisor restarting it from the command
   log; the digest check must still pass and the supervisor must report
   the restart it performed.

The topology is the tie-free ring from
:func:`repro.experiments.trials.chaos_topology` (distinct power-of-two
link costs), whose digests ``BENCH_chaos_convergence.json`` records.
PATHVECTOR's ties no longer depend on arrival order (``min<P>``), so the
ring is kept for those recorded digests only.  See docs/FAULTS.md.

Run from CI::

    PYTHONPATH=src python benchmarks/chaos_gate.py

Exit status 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import sys

SIZE = 8

#: The chaos matrix: one named plan per fault class the subsystem injects.
PLANS = [
    ("drops", "seed=3; attempts=8; drop:*->*:p=0.25,n=30"),
    ("dup-delay", "seed=5; dup:*->*:p=0.15,n=15; delay:*->*:p=0.2,d=0.004"),
    ("crash-restart", "attempts=8; crash:n1@0.001:restart=0.02"),
    ("flap", "attempts=8; flap:n0-n1@0.001:up=0.01"),
]

PROTOCOLS = ("mincost", "pathvector", "packetforward")


def _build(program):
    from repro.core.api import ExspanNetwork
    from repro.core.config import ExspanConfig
    from repro.core.modes import ProvenanceMode
    from repro.experiments.trials import chaos_topology
    from repro.protocols.mincost import mincost_program
    from repro.protocols.packetforward import packetforward_program
    from repro.protocols.pathvector import pathvector_program

    topology = chaos_topology(SIZE, seed=0)
    if program == "mincost":
        resolved = mincost_program()
    elif program == "pathvector":
        resolved = pathvector_program()
    else:
        resolved = pathvector_program().extended(packetforward_program(), "pv+fwd")
    network = ExspanNetwork(
        topology, resolved, config=ExspanConfig(mode=ProvenanceMode.REFERENCE, seed=0)
    )
    return topology, resolved, network


def _packets(program):
    from repro.protocols.packetforward import packet_event

    if program != "packetforward":
        return []
    payload = "x" * 16
    return [
        packet_event("n0", "n0", f"n{SIZE // 2}", payload),
        packet_event(f"n{SIZE - 1}", f"n{SIZE - 1}", "n1", payload),
    ]


def _serial_digest(program, plan):
    from repro.faults import convergence_digest

    _, _, network = _build(program)
    if plan is not None:
        network.install_faults(plan)
    network.seed_links()
    network.run_to_fixpoint()
    for packet in _packets(program):
        network.insert_fact(packet)
        network.run_to_fixpoint()
    return convergence_digest(network)


def _sharded_digest(program, plan):
    from repro.core.modes import ProvenanceMode
    from repro.experiments.trials import chaos_topology
    from repro.net.sharding import ScriptOp, ShardedExspanNetwork

    topology = chaos_topology(SIZE, seed=0)
    _, resolved, _ = _build(program)
    with ShardedExspanNetwork(
        topology,
        resolved,
        mode=ProvenanceMode.REFERENCE,
        shards=2,
        seed=0,
        faults=plan,
    ) as sharded:
        sharded.seed_links()
        sharded.run_to_fixpoint()
        for packet in _packets(program):
            sharded.apply_ops([ScriptOp(kind="insert", fact=packet)])
        return sharded.convergence_digest(), sharded.supervisor_stats()


def check_empty_plan_identity(failures):
    """Check 1: FaultPlan.empty() is byte-identical to no plan at all."""
    from repro.faults import FaultPlan
    from repro.net.sharding import collect_digest, collect_summary

    _, _, plain = _build("mincost")
    plain.seed_links()
    plain.run_to_fixpoint()

    _, _, empty = _build("mincost")
    installed = empty.install_faults(FaultPlan.empty())
    if installed is not None:
        failures.append("empty plan: install_faults returned an injector, not None")
    empty.seed_links()
    empty.run_to_fixpoint()

    if collect_digest(plain) != collect_digest(empty):
        failures.append("empty plan: per-node state digests differ from a plain run")
    if collect_summary(plain) != collect_summary(empty):
        failures.append("empty plan: network summaries differ from a plain run")
    print("  empty-plan byte-identity: ok")


def check_serial_matrix(failures, references):
    """Check 2: every (protocol x plan) cell converges serially."""
    for program in PROTOCOLS:
        references[program] = _serial_digest(program, None)
        for name, plan in PLANS:
            digest = _serial_digest(program, plan)
            status = "ok" if digest == references[program] else "DIVERGED"
            print(f"  serial {program:<14} {name:<14} {status}")
            if digest != references[program]:
                failures.append(f"serial {program}/{name}: {digest[:16]}")


def check_sharded_matrix(failures, references):
    """Check 3: the same cells at shards=2 converge to the serial reference."""
    for program in PROTOCOLS:
        for name, plan in PLANS:
            digest, _ = _sharded_digest(program, plan)
            status = "ok" if digest == references[program] else "DIVERGED"
            print(f"  shards=2 {program:<14} {name:<14} {status}")
            if digest != references[program]:
                failures.append(f"sharded {program}/{name}: {digest[:16]}")


def check_worker_kill(failures, references):
    """Check 4: a SIGKILLed shard worker is restarted and still converges."""
    plan = "attempts=8; killworker:1@1"
    digest, stats = _sharded_digest("mincost", plan)
    if digest != references["mincost"]:
        failures.append(f"worker-kill: digest diverged ({digest[:16]})")
    if stats.get("workers_killed", 0) < 1:
        failures.append(f"worker-kill: no worker was killed ({stats})")
    if stats.get("restarts", 0) < 1:
        failures.append(f"worker-kill: supervisor performed no restart ({stats})")
    print(
        f"  worker-kill mincost: "
        f"{'ok' if digest == references['mincost'] else 'DIVERGED'} "
        f"(killed={stats.get('workers_killed')}, restarts={stats.get('restarts')})"
    )


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    failures = []
    references = {}
    print("chaos gate: empty-plan identity")
    check_empty_plan_identity(failures)
    print("chaos gate: serial fault matrix")
    check_serial_matrix(failures, references)
    print("chaos gate: sharded fault matrix (shards=2)")
    check_sharded_matrix(failures, references)
    print("chaos gate: shard-worker SIGKILL + supervised restart")
    check_worker_kill(failures, references)
    if failures:
        print(f"chaos gate: FAILED ({len(failures)} check(s)):")
        for line in failures:
            print(f"  {line}")
        return 1
    print("chaos gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
