"""Crash-recovery gate: checkpoint, SIGKILL, restore in a fresh process.

The durability story has to survive a real process death, not just an
in-process round-trip: a run is interrupted *after* ``checkpoint(path)``
by ``SIGKILL`` (no atexit, no flush-on-exit can save it), then a fresh
process — with a different ``PYTHONHASHSEED`` — restores from the file,
continues the scripted evolution to fixpoint, and must produce digests
byte-identical to one uninterrupted process that ran the whole script.

All three protocols are covered: MINCOST, PATHVECTOR, and
PATHVECTOR+PACKETFORWARD (whose continuation injects data-plane packet
events through the restored control plane).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The subprocess driver.  argv: PROTOCOL PHASE CKPT_PATH
#:   PHASE ``crash``   — phase A, checkpoint, SIGKILL itself
#:   PHASE ``restore`` — restore from the checkpoint, run phase B, print digests
#:   PHASE ``full``    — phases A+B in one uninterrupted process, print digests
DRIVER = textwrap.dedent(
    """
    import json, os, signal, sys

    from repro.core.api import ExspanNetwork
    from repro.core.config import ExspanConfig
    from repro.datalog.ast import Fact
    from repro.net.sharding import collect_digest
    from repro.net.topology import ring_topology
    from repro.protocols.mincost import mincost_program
    from repro.protocols.packetforward import packet_event, packetforward_program
    from repro.protocols.pathvector import pathvector_program

    protocol, phase, ckpt_path = sys.argv[1], sys.argv[2], sys.argv[3]

    def program():
        if protocol == "mincost":
            return mincost_program()
        if protocol == "pathvector":
            return pathvector_program()
        if protocol == "pv+fwd":
            return pathvector_program().extended(packetforward_program(), "pv+fwd")
        raise SystemExit(f"unknown protocol {protocol!r}")

    topology = ring_topology(6, seed=4)

    # Churn lives entirely in phase B: `remove_link`/`add_link` mutate the
    # topology object, and `restore` rebuilds from a freshly constructed
    # one — a checkpoint taken after topology churn would need the caller
    # to replay that churn onto the topology handed to `restore`.
    def phase_a(network):
        network.seed_links()
        network.run_to_fixpoint()

    def phase_b(network):
        network.remove_link("n0", "n1")
        network.run_to_fixpoint()
        network.add_link("n2", "n5", cost=2)
        network.run_to_fixpoint()
        if protocol == "pv+fwd":
            for source, destination in (("n0", "n3"), ("n4", "n1")):
                network.insert_fact(packet_event(source, source, destination, "pkt"))
            network.run_to_fixpoint()

    def emit(network):
        payload = {
            "digests": collect_digest(network),
            "now": network.now,
            "planner": network.planner_stats(),
        }
        json.dump(payload, sys.stdout, sort_keys=True)
        sys.stdout.write("\\n")

    if phase == "crash":
        network = ExspanNetwork(topology, program(), config=ExspanConfig(seed=0))
        phase_a(network)
        network.checkpoint(ckpt_path)
        os.kill(os.getpid(), signal.SIGKILL)
    elif phase == "restore":
        network = ExspanNetwork.restore(ckpt_path, topology, program())
        phase_b(network)
        emit(network)
    elif phase == "full":
        network = ExspanNetwork(topology, program(), config=ExspanConfig(seed=0))
        phase_a(network)
        phase_b(network)
        emit(network)
    else:
        raise SystemExit(f"unknown phase {phase!r}")
    """
)


def _run_driver(driver_path, protocol, phase, ckpt_path, hashseed):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.join(REPO, "src")
    environment["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, driver_path, protocol, phase, ckpt_path],
        capture_output=True,
        text=True,
        env=environment,
        timeout=120,
    )


@pytest.mark.parametrize(
    "protocol,hashseeds",
    [
        ("mincost", (1, 2)),
        ("pathvector", (3, 4)),
        ("pv+fwd", (5, 6)),
    ],
)
def test_crash_recovery_matches_uninterrupted_run(tmp_path, protocol, hashseeds):
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER, encoding="utf-8")
    ckpt = str(tmp_path / f"{protocol}.ckpt")
    crash_seed, continue_seed = hashseeds

    crashed = _run_driver(str(driver), protocol, "crash", ckpt, crash_seed)
    assert crashed.returncode == -signal.SIGKILL, crashed.stderr
    assert os.path.exists(ckpt), "checkpoint must survive the SIGKILL"

    # Fresh process, different hash seed: restore and finish the script.
    restored = _run_driver(str(driver), protocol, "restore", ckpt, continue_seed)
    assert restored.returncode == 0, restored.stderr

    # A third process runs the whole script uninterrupted, under yet
    # another hash randomization.
    uninterrupted = _run_driver(str(driver), protocol, "full", ckpt, crash_seed + 100)
    assert uninterrupted.returncode == 0, uninterrupted.stderr

    assert json.loads(restored.stdout) == json.loads(uninterrupted.stdout)
