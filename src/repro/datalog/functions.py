"""Builtin functions for NDlog rule evaluation.

The ExSPAN paper relies on a small set of builtin functions inside rewritten
provenance rules — ``f_sha1`` for vertex identifiers and ``f_concat`` /
``f_append`` for VID lists — and the shipped protocols use ``f_item`` and
``f_member`` on path vectors.  This module implements them in one table,
:data:`BUILTINS`: the interpreter looks each call up by name
(``FunctionCall.evaluate``), and generated plan code binds each builtin it
calls at generation time.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .errors import EvaluationError

__all__ = [
    "BUILTINS",
    "sha1_hex",
    "sha1_cache_stats",
    "clear_sha1_cache",
]


#: Number of hex characters kept from the SHA-1 digest.  The paper ships
#: 20-byte identifiers (raw SHA-1); we keep identifiers printable by using
#: 20 hex characters (80 bits), so a VID string occupies exactly the 20
#: bytes the paper charges per pointer while remaining collision-resistant
#: at simulation scale.
DIGEST_LENGTH = 20


def sha1_hex(text: str) -> str:
    """Return the (truncated) SHA-1 hex digest of *text* (UTF-8 encoded).

    This is the hash the paper uses for vertex identifiers (VIDs and RIDs);
    see :data:`DIGEST_LENGTH` for the truncation rationale.
    """
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


# ---------------------------------------------------------------------- #
# f_sha1 memoization
# ---------------------------------------------------------------------- #
#: Upper bound on cached ``f_sha1`` results.  Each entry holds the frozen
#: argument tuple plus a 20-character digest (roughly 200-400 bytes), so the
#: cache tops out around 30-60 MB before it is dropped wholesale and
#: rebuilt — crude but bounded, and the hit rate recovers within one
#: fixpoint round because the hot keys (tuple VID preimages) recur densely.
SHA1_CACHE_LIMIT = 1 << 17

#: Never rebound, only cleared: generated plan code binds ``.get`` once
#: and probes the memo inline (``plan.compiled_exec._assignment_source``).
_sha1_cache: Dict[tuple, str] = {}
#: ``[hits, misses]``: a list, so the inline probe counts a hit in place.
_sha1_counts = [0, 0]


def clear_sha1_cache() -> None:
    """Drop every cached digest (tests / benchmark isolation)."""
    _sha1_cache.clear()
    _sha1_counts[:] = [0, 0]


def sha1_cache_stats() -> Dict[str, int]:
    """Entries / hits / misses / limit of the ``f_sha1`` memo (diagnostics)."""
    return {
        "entries": len(_sha1_cache),
        "hits": _sha1_counts[0],
        "misses": _sha1_counts[1],
        "limit": SHA1_CACHE_LIMIT,
    }


def _stringify(value: Any) -> str:
    """Render *value* for hashing the way NDlog string concatenation does.

    Lists and tuples are rendered as the concatenation of their members, so
    the VID list in ``f_sha1(R, RLoc, List)`` hashes as its VIDs joined.
    """
    if value.__class__ is str:  # the dominant case on the provenance path
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "".join(map(_stringify, value))
    return str(value)


def _f_sha1(args: Sequence[Any]) -> str:
    """``f_sha1(X)`` — SHA-1 of the concatenation of all arguments.

    Memoized on the argument tuple: the provenance rewrite recomputes the
    same tuple-VID preimages on every rule firing a tuple participates in,
    so each distinct preimage is stringified and hashed once per cache
    lifetime instead of once per firing.  :mod:`repro.core.vid` hashes
    VIDs and RIDs through here with the rules' own argument tuples, so the
    query side finds them too.  Values built by the engine are
    hashable (the list builtins return tuples); an argument that is not —
    a list or dict handed in from outside — skips the memo.
    """
    key = tuple(args)
    try:
        digest = _sha1_cache.get(key)
    except TypeError:
        return sha1_hex("".join(map(_stringify, args)))
    if digest is not None:
        _sha1_counts[0] += 1
        return digest
    _sha1_counts[1] += 1
    digest = sha1_hex("".join(map(_stringify, args)))
    if len(_sha1_cache) >= SHA1_CACHE_LIMIT:
        _sha1_cache.clear()
    _sha1_cache[key] = digest
    return digest


def _f_concat(args: Sequence[Any]) -> Tuple[Any, ...]:
    """``f_concat(A, B, ...)`` (and ``f_append``) — scalars and lists as one list.

    NDlog lists are Python tuples: every value a rule builds is hashable
    from birth, so rows, memo keys and index keys never need freezing.
    """
    result: List[Any] = []
    for arg in args:
        if isinstance(arg, (list, tuple)):
            result.extend(arg)
        else:
            result.append(arg)
    return tuple(result)


def _f_item(args: Sequence[Any]) -> Any:
    """``f_item(L)`` or ``f_item(L, I)`` — the first (or *I*-th) element of a list."""
    if not args:
        raise EvaluationError("f_item requires a list argument")
    sequence = args[0]
    index = int(args[1]) if len(args) > 1 else 0
    try:
        return sequence[index]
    except (IndexError, TypeError) as exc:
        raise EvaluationError(f"f_item: cannot take item {index} of {sequence!r}") from exc


def _f_member(args: Sequence[Any]) -> bool:
    """``f_member(L, X)`` — membership test."""
    if len(args) != 2:
        raise EvaluationError("f_member takes exactly two arguments")
    sequence, value = args
    return value in (sequence or ())


#: Every builtin a rule may call, by NDlog name.  Each function receives
#: the already-evaluated argument values as a list and returns a plain
#: Python value.
BUILTINS: Dict[str, Callable[[Sequence[Any]], Any]] = {
    "f_sha1": _f_sha1,
    "f_concat": _f_concat,
    "f_append": _f_concat,
    "f_item": _f_item,
    "f_member": _f_member,
}
