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

The same formulas are evaluated in two places: inside rewritten NDlog rules
(through the ``f_sha1`` builtin) and by Python code in the query layer and
the tests.  Keeping the string rendering identical in both paths is what
makes the reference pointers resolvable, so both call into this module's
:func:`render_value`.

Because a tuple's VID is immutable for its whole lifetime while the engine
recomputes it on every rule firing the tuple joins into, VID computation is
memoized twice: :func:`tuple_vid` keeps a bounded ``(name, values) ->
digest`` cache here, and the ``f_sha1`` builtin the rewrite layer evaluates
keeps the matching bounded preimage cache in
:mod:`repro.datalog.functions`.  Both caches only trade CPU for bounded
memory: cached and uncached computation produce identical digests.
:func:`clear_vid_caches` drops the pair together.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence

from ..datalog.ast import Fact
from ..datalog.functions import (
    clear_sha1_cache,
    sha1_cache_stats,
    sha1_hex,
)

__all__ = [
    "render_value",
    "tuple_preimage",
    "tuple_vid",
    "fact_vid",
    "rule_preimage",
    "rule_rid",
    "NULL_RID",
    "clear_vid_caches",
    "vid_cache_stats",
    "VID_CACHE_LIMIT",
]

#: RID value used for base tuples (the paper stores ``null``).
NULL_RID = None

#: Upper bound on memoized tuple VIDs.  One entry holds the (name, frozen
#: values) key plus a 20-character digest; at the limit the cache is dropped
#: wholesale and rebuilt, so worst-case memory stays around a few tens of
#: megabytes regardless of how long a process sweeps topologies.
VID_CACHE_LIMIT = 1 << 17

_vid_cache: Dict[tuple, str] = {}
_vid_hits = 0
_vid_misses = 0


def clear_vid_caches() -> None:
    """Drop the VID cache and the underlying ``f_sha1`` cache."""
    global _vid_hits, _vid_misses
    _vid_cache.clear()
    _vid_hits = 0
    _vid_misses = 0
    clear_sha1_cache()


def vid_cache_stats() -> Dict[str, Any]:
    """Diagnostic counters of both memo layers (see README "Performance")."""
    return {
        "vid": {
            "entries": len(_vid_cache),
            "hits": _vid_hits,
            "misses": _vid_misses,
            "limit": VID_CACHE_LIMIT,
        },
        "sha1": sha1_cache_stats(),
    }


def render_value(value: Any) -> str:
    """Render one attribute value exactly as ``f_sha1`` concatenation does."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "".join(render_value(item) for item in value)
    return str(value)


def tuple_preimage(name: str, values: Sequence[Any]) -> str:
    """The SHA-1 preimage of a tuple vertex: name followed by all attributes.

    The location specifier is part of ``values`` (it is an ordinary
    attribute of the tuple), matching ``SHA1("link" + b + c + 2)``.
    """
    return name + "".join(render_value(value) for value in values)


def _lists_as_tuples(value: Any) -> Any:
    """*value* with lists made tuples, which :func:`render_value` renders alike."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_lists_as_tuples, value))
    return value


def tuple_vid(name: str, values: Sequence[Any]) -> str:
    """Compute the VID of the tuple ``name(values...)`` (memoized).

    Keyed by ``(name, values)`` as given: engine-built rows are hashable
    tuples already.  Only when hashing rejects the key — a list attribute
    handed in from outside (shell, service JSON) — are lists rewritten to
    the tuples the row is stored with; values that stay unhashable (a set)
    skip the cache and fall through to direct computation.
    """
    global _vid_hits, _vid_misses
    key = (name, values if isinstance(values, tuple) else tuple(values))
    try:
        digest = _vid_cache.get(key)
    except TypeError:
        try:
            key = (name, _lists_as_tuples(values))
            digest = _vid_cache.get(key)
        except TypeError:
            return sha1_hex(tuple_preimage(name, values))
    if digest is not None:
        _vid_hits += 1
        return digest
    _vid_misses += 1
    digest = sha1_hex(tuple_preimage(name, values))
    if len(_vid_cache) >= VID_CACHE_LIMIT:
        _vid_cache.clear()
    _vid_cache[key] = digest
    return digest


def fact_vid(fact: Fact) -> str:
    """Compute the VID of a :class:`~repro.datalog.ast.Fact`."""
    return tuple_vid(fact.name, fact.values)


def rule_preimage(rule_label: str, location: Any, input_vids: Iterable[str]) -> str:
    """The SHA-1 preimage of a rule execution vertex."""
    return rule_label + render_value(location) + "".join(input_vids)


def rule_rid(rule_label: str, location: Any, input_vids: Iterable[str]) -> str:
    """Compute the RID of executing *rule_label* at *location* on *input_vids*."""
    return sha1_hex(rule_preimage(rule_label, location, list(input_vids)))
