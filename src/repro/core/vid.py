"""Vertex identifiers for the provenance graph (Section 4.1).

Every vertex in the distributed provenance graph has a unique identifier
computed with a cryptographic hash so that any node can derive it locally
without coordination:

* a *tuple vertex* is identified by a **VID**: the SHA-1 of the tuple's
  relation name, location specifier and attribute values —
  ``VID = SHA1("pathCost" + X + Y + C)`` in the paper's notation;
* a *rule execution vertex* is identified by an **RID**: the SHA-1 of the
  rule label, the location where the rule executed, and the VIDs of its
  input tuples — ``RID = SHA1("sp2" + b + VID2 + VID6)``.

Rewritten NDlog rules evaluate these formulas through the ``f_sha1``
builtin; the query layer, the storage mirror and the tests evaluate them
here.  Both go through the one builtin, with the argument tuples the
rewritten rules pass it (``f_sha1(name, values...)`` and ``f_sha1(label,
RLoc, List)``), so a digest the engine already computed is found in the
builtin's memo (:mod:`repro.datalog.functions`) instead of being hashed a
second time.  :func:`clear_vid_caches` empties that memo.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..datalog.ast import Fact
from ..datalog.functions import _f_sha1, clear_sha1_cache

__all__ = [
    "tuple_vid",
    "fact_vid",
    "rule_rid",
    "NULL_RID",
    "clear_vid_caches",
]

#: RID value used for base tuples (the paper stores ``null``).
NULL_RID = None


def clear_vid_caches() -> None:
    """Drop the ``f_sha1`` memo every VID and RID goes through."""
    clear_sha1_cache()


def tuple_vid(name: str, values: Sequence[Any]) -> str:
    """Compute the VID of the tuple ``name(values...)``.

    The location specifier is part of ``values`` (it is an ordinary
    attribute of the tuple), matching ``SHA1("link" + b + c + 2)``.
    """
    return _f_sha1((name, *values))


def fact_vid(fact: Fact) -> str:
    """Compute the VID of a :class:`~repro.datalog.ast.Fact`."""
    return tuple_vid(fact.name, fact.values)


def rule_rid(rule_label: str, location: Any, input_vids: Iterable[str]) -> str:
    """Compute the RID of executing *rule_label* at *location* on *input_vids*."""
    return _f_sha1((rule_label, location, tuple(input_vids)))
