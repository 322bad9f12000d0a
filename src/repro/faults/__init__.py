"""Deterministic fault injection, reliable transport, and the
convergence oracle (see ``docs/FAULTS.md``).

Entry points:

* build or parse a :class:`FaultPlan` (:func:`parse_fault_spec`);
* install it with :meth:`repro.core.api.ExspanNetwork.install_faults`
  (or the ``faults=`` argument of ``ShardedExspanNetwork``);
* after quiescence, compare :func:`convergence_digest` against the
  fault-free run — byte equality is the contract.
"""

from .injector import ACK_KIND, APP_KINDS, FaultInjector
from .oracle import convergence_digest, digest_convergence
from .plan import (
    CrashFault,
    FaultPlan,
    FlapFault,
    LinkFault,
    StragglerFault,
    WorkerKill,
    parse_fault_spec,
)

__all__ = [
    "ACK_KIND",
    "APP_KINDS",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "CrashFault",
    "FlapFault",
    "StragglerFault",
    "WorkerKill",
    "parse_fault_spec",
    "digest_convergence",
    "convergence_digest",
]
