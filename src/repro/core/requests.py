"""The consolidated public query API: typed requests, typed results.

A live :class:`~repro.core.query.QuerySpec` is full of callables, so it
cannot leave the interpreter.  This module defines the one
request/response surface every caller shares:

* :class:`SpecDescriptor` — a declarative, JSON-serializable description of
  a query customization (kind + traversal + knobs).  ``build()`` maps it
  onto the :mod:`repro.core.customizations` factories, and its canonical
  name is a pure function of its fields, so the same descriptor denotes the
  same spec on every node, every client and every process.
* :class:`QueryRequest` — one provenance query: the fact, the spec (by
  name, by descriptor, or — for in-process callers only — a live
  ``QuerySpec``), and optional issuer/target overrides.
* :class:`QueryResult` — the completed answer.  Its *body* (vid, spec,
  issuer, target, fact, canonically encoded annotation) is a deterministic
  function of the query and the store — independent of concurrent load,
  wall-clock and scheduling — and :meth:`QueryResult.canonical_bytes`
  serializes exactly that body.  Timing metadata (query id, simulated
  issue/completion instants) travels separately in ``meta``.

The wire protocol (:mod:`repro.service`), the interactive shell
(:mod:`repro.shell`), the experiment trials and plain in-process callers
all consume this layer; ``ExspanNetwork.execute`` is the single entry
point.

Annotation encoding
-------------------
Query results are semiring values: provenance polynomials, BDDs, sets,
counts, booleans.  :func:`encode_annotation` renders each into a canonical
JSON-able dict (``{"kind": ..., ...}``) with deterministic ordering;
:func:`decode_annotation` reconstructs the equivalent in-process value
(polynomials rebuild node-for-node; BDDs re-import into a given manager).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..datalog.ast import Fact
from .bdd import Bdd, BddManager, export_bdd, import_bdd
from .errors import QueryError
from .query import DEFAULT_MAX_DEPTH, QueryOutcome, QuerySpec, TraversalOrder
from .semiring import EMPTY, Literal, Product, ProvenanceExpression, Sum

__all__ = [
    "SPEC_KINDS",
    "SpecDescriptor",
    "QueryRequest",
    "QueryResult",
    "canonical_json",
    "encode_annotation",
    "decode_annotation",
    "encode_fact",
    "decode_fact",
]

#: Spec kinds a descriptor may name, mapped to their customization factory
#: module attribute (resolved lazily to avoid an import cycle with
#: customizations -> query -> this module's sibling imports).
SPEC_KINDS: Tuple[str, ...] = (
    "polynomial",
    "bdd",
    "nodeset",
    "derivations",
    "derivability",
)

_TRAVERSALS: Dict[str, TraversalOrder] = {order.value: order for order in TraversalOrder}


def canonical_json(payload: Any) -> str:
    """The repo-wide canonical JSON form: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------- #
# facts
# ---------------------------------------------------------------------- #
def encode_fact(fact: Fact) -> Dict[str, Any]:
    """JSON-able form of a ground fact."""
    return {
        "name": fact.name,
        "values": list(fact.values),
        "location_index": fact.location_index,
    }


def _frozen(value: Any) -> Any:
    """A JSON list as the tuple an NDlog list is, nested lists included."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def decode_fact(payload: Mapping[str, Any]) -> Fact:
    """Inverse of :func:`encode_fact` (tolerates a missing location index).

    Lists become tuples at every depth, as the engine builds them, so a
    decoded fact hashes and finds its VID in the ``f_sha1`` memo.
    """
    try:
        name = payload["name"]
        values = payload["values"]
    except (KeyError, TypeError):
        raise QueryError(f"malformed fact payload {payload!r}") from None
    if not isinstance(name, str) or not isinstance(values, (list, tuple)):
        raise QueryError(f"malformed fact payload {payload!r}")
    index = payload.get("location_index", 0)
    if not isinstance(index, int) or isinstance(index, bool) or not values:
        raise QueryError(f"malformed fact payload {payload!r}")
    if not 0 <= index < len(values):
        raise QueryError(f"fact location_index {index} out of range for {payload!r}")
    return Fact(name, tuple(map(_frozen, values)), location_index=index)


# ---------------------------------------------------------------------- #
# spec descriptors
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpecDescriptor:
    """A declarative, serializable query-spec description.

    ``kind`` selects the customization family (:data:`SPEC_KINDS`); the
    remaining fields are the orthogonal knobs every factory accepts.  A
    descriptor with ``name=None`` gets a *canonical name* derived from its
    fields, so two independently constructed identical descriptors resolve
    to (and register) the same spec everywhere.
    """

    kind: str
    name: Optional[str] = None
    traversal: str = TraversalOrder.BFS.value
    use_cache: bool = False
    threshold: Optional[int] = None
    moonwalk_width: int = 1
    max_depth: int = DEFAULT_MAX_DEPTH
    trusted: Optional[Tuple[str, ...]] = None
    granularity: str = "tuple"

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise QueryError(
                f"unknown spec kind {self.kind!r}; expected one of {list(SPEC_KINDS)}"
            )
        if self.traversal not in _TRAVERSALS:
            raise QueryError(
                f"unknown traversal {self.traversal!r}; expected one of "
                f"{sorted(_TRAVERSALS)}"
            )
        if self.granularity not in ("tuple", "node"):
            raise QueryError(
                f"unknown granularity {self.granularity!r}; expected 'tuple' or 'node'"
            )
        if self.threshold is not None and (
            not isinstance(self.threshold, int)
            or isinstance(self.threshold, bool)
            or self.threshold < 1
        ):
            raise QueryError(f"threshold must be a positive int, got {self.threshold!r}")
        if not isinstance(self.max_depth, int) or self.max_depth < 1:
            raise QueryError(f"max_depth must be a positive int, got {self.max_depth!r}")
        if not isinstance(self.moonwalk_width, int) or self.moonwalk_width < 1:
            raise QueryError(
                f"moonwalk_width must be a positive int, got {self.moonwalk_width!r}"
            )
        if self.trusted is not None:
            object.__setattr__(
                self, "trusted", tuple(sorted(str(item) for item in self.trusted))
            )

    @property
    def canonical_name(self) -> str:
        """The spec name this descriptor registers under.

        Explicit names pass through; anonymous descriptors are named by
        their canonical field rendering, so equal descriptors share one
        spec (and one cache namespace) on every node.
        """
        if self.name is not None:
            return self.name
        knobs: List[str] = [self.kind]
        if self.traversal != TraversalOrder.BFS.value:
            knobs.append(self.traversal)
        if self.use_cache:
            knobs.append("cache")
        if self.threshold is not None:
            knobs.append(f"t{self.threshold}")
        if self.moonwalk_width != 1:
            knobs.append(f"w{self.moonwalk_width}")
        if self.max_depth != DEFAULT_MAX_DEPTH:
            knobs.append(f"d{self.max_depth}")
        if self.granularity != "tuple":
            knobs.append(self.granularity)
        if self.trusted is not None:
            knobs.append("trusted=" + ",".join(self.trusted))
        return ":".join(knobs)

    def build(self) -> QuerySpec:
        """Instantiate the live :class:`QuerySpec` this descriptor denotes."""
        from .customizations import (
            bdd_query,
            derivability_query,
            derivation_count_query,
            node_set_query,
            polynomial_query,
        )
        from .granularity import Granularity, GranularitySpec

        order = _TRAVERSALS[self.traversal]
        name = self.canonical_name
        granularity = (
            GranularitySpec(Granularity.NODE) if self.granularity == "node" else None
        )
        spec: QuerySpec
        if self.kind == "polynomial":
            threshold_met = None
            if self.threshold is not None:
                from .semiring import count_derivations

                bound = self.threshold
                threshold_met = lambda partial: count_derivations(partial) >= bound  # noqa: E731
            spec = polynomial_query(
                name=name,
                traversal=order,
                use_cache=self.use_cache,
                granularity=granularity,
                threshold_met=threshold_met,
                moonwalk_width=self.moonwalk_width,
            )
        elif self.kind == "bdd":
            spec = bdd_query(
                name=name,
                traversal=order,
                use_cache=self.use_cache,
                granularity=granularity,
            )
        elif self.kind == "nodeset":
            spec = node_set_query(
                name=name,
                traversal=order,
                use_cache=self.use_cache,
                threshold=self.threshold,
            )
        elif self.kind == "derivations":
            spec = derivation_count_query(
                name=name,
                traversal=order,
                use_cache=self.use_cache,
                threshold=self.threshold,
                moonwalk_width=self.moonwalk_width,
            )
        else:  # derivability
            spec = derivability_query(
                name=name,
                trusted=self.trusted,
                granularity=granularity,
                traversal=order,
                use_cache=self.use_cache,
            )
        if self.max_depth != DEFAULT_MAX_DEPTH:
            spec.max_depth = self.max_depth
        return spec

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.name is not None:
            payload["name"] = self.name
        if self.traversal != TraversalOrder.BFS.value:
            payload["traversal"] = self.traversal
        if self.use_cache:
            payload["use_cache"] = True
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        if self.moonwalk_width != 1:
            payload["moonwalk_width"] = self.moonwalk_width
        if self.max_depth != DEFAULT_MAX_DEPTH:
            payload["max_depth"] = self.max_depth
        if self.trusted is not None:
            payload["trusted"] = list(self.trusted)
        if self.granularity != "tuple":
            payload["granularity"] = self.granularity
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpecDescriptor":
        if not isinstance(payload, Mapping):
            raise QueryError(f"malformed spec descriptor {payload!r}")
        known = {
            "kind",
            "name",
            "traversal",
            "use_cache",
            "threshold",
            "moonwalk_width",
            "max_depth",
            "trusted",
            "granularity",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(f"unknown spec descriptor keys: {unknown}")
        if "kind" not in payload:
            raise QueryError("spec descriptor is missing 'kind'")
        data = dict(payload)
        if data.get("trusted") is not None:
            data["trusted"] = tuple(data["trusted"])
        return cls(**data)


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryRequest:
    """One provenance query against the network.

    ``spec`` may be a registered spec name, a :class:`SpecDescriptor`
    (registered on demand), or — for in-process callers only — a live
    :class:`QuerySpec`.  ``target`` defaults to the node named by the
    fact's location specifier; ``issuer`` defaults to the target.

    ``deadline`` (simulated seconds from issue) bounds the distributed
    resolution: a query that cannot complete in time degrades into a
    result marked *partial* with an explicit unresolved frontier instead
    of hanging — see ``docs/PROTOCOL.md``.  ``None`` waits forever.
    """

    fact: Fact
    spec: Union[str, SpecDescriptor, QuerySpec]
    issuer: Optional[Any] = None
    target: Optional[Any] = None
    deadline: Optional[float] = None

    @property
    def spec_name(self) -> str:
        if isinstance(self.spec, str):
            return self.spec
        if isinstance(self.spec, SpecDescriptor):
            return self.spec.canonical_name
        return self.spec.name

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        if not isinstance(payload, Mapping):
            raise QueryError(f"malformed query request {payload!r}")
        unknown = sorted(
            set(payload) - {"fact", "spec", "issuer", "target", "deadline"}
        )
        if unknown:
            raise QueryError(f"unknown query request keys: {unknown}")
        if "fact" not in payload or "spec" not in payload:
            raise QueryError("query request needs 'fact' and 'spec'")
        raw_spec = payload["spec"]
        spec: Union[str, SpecDescriptor]
        if isinstance(raw_spec, str):
            spec = raw_spec
        else:
            spec = SpecDescriptor.from_dict(raw_spec)
        deadline = payload.get("deadline")
        if deadline is not None and (
            isinstance(deadline, bool) or not isinstance(deadline, (int, float))
        ):
            raise QueryError(f"deadline must be a number, got {deadline!r}")
        return cls(
            fact=decode_fact(payload["fact"]),
            spec=spec,
            issuer=payload.get("issuer"),
            target=payload.get("target"),
            deadline=float(deadline) if deadline is not None else None,
        )


# ---------------------------------------------------------------------- #
# annotation encoding
# ---------------------------------------------------------------------- #
def _encode_polynomial(expression: ProvenanceExpression) -> Tuple[str, Dict[str, Any]]:
    """``(str(expression), tree)`` in one walk of the polynomial.

    Memoized on each ``Sum``/``Product`` node (expressions are immutable)
    from its second encoding on, so a subtree shared by cached answers is
    encoded twice per lifetime, and a node encoded once (most read-only
    answers) holds no copy.  Memoized trees are shared between answers:
    never mutate them.
    """
    if isinstance(expression, Literal):
        return expression.label, {"op": "lit", "label": expression.label}
    memo = getattr(expression, "_encoded", None)
    if memo:
        return memo
    if isinstance(expression, Sum):
        terms = [_encode_polynomial(term) for term in expression.terms]
        node: Dict[str, Any] = {"op": "sum", "terms": [tree for _, tree in terms]}
        location = expression.location
        if location is not None:
            node["loc"] = location
        suffix = f"@{location}" if location else ""
        encoded = "(" + " + ".join([text for text, _ in terms]) + ")" + suffix, node
    elif isinstance(expression, Product):
        factors = [_encode_polynomial(factor) for factor in expression.factors]
        node = {"op": "prod", "factors": [tree for _, tree in factors]}
        rule, location = expression.rule, expression.location
        if rule is not None:
            node["rule"] = rule
        if location is not None:
            node["loc"] = location
        prefix = f"<{rule}@{location}>" if rule else ""
        encoded = prefix + "(" + " * ".join([text for text, _ in factors]) + ")", node
    elif expression is EMPTY:
        return str(expression), {"op": "empty"}
    else:
        raise QueryError(f"cannot encode provenance expression {expression!r}")
    # The first encoding marks the node with (); the second memoizes.
    object.__setattr__(expression, "_encoded", () if memo is None else encoded)
    return encoded


def _decode_expression(payload: Mapping[str, Any]) -> ProvenanceExpression:
    op = payload.get("op")
    if op == "lit":
        return Literal(payload["label"])
    if op == "sum":
        return Sum(
            tuple(_decode_expression(term) for term in payload["terms"]),
            location=payload.get("loc"),
        )
    if op == "prod":
        return Product(
            tuple(_decode_expression(factor) for factor in payload["factors"]),
            rule=payload.get("rule"),
            location=payload.get("loc"),
        )
    if op == "empty":
        return EMPTY
    raise QueryError(f"cannot decode provenance expression node {payload!r}")


def encode_annotation(value: Any) -> Dict[str, Any]:
    """Canonical JSON-able encoding of a query result annotation.

    Deterministic: polynomials keep their derivation order, sets are
    sorted, BDDs export in canonical bottom-up node order — so the encoded
    form is bit-identical for bit-identical results, across processes and
    hash seeds.
    """
    if value is None:
        return {"kind": "none"}
    if isinstance(value, bool):
        return {"kind": "bool", "value": value}
    if isinstance(value, int):
        return {"kind": "int", "value": value}
    if isinstance(value, str):
        return {"kind": "str", "value": value}
    if isinstance(value, ProvenanceExpression):
        text, tree = _encode_polynomial(value)
        return {
            "kind": "polynomial",
            "text": text,
            "tree": tree,
            "wire_size": value.wire_size(),
        }
    if isinstance(value, Bdd):
        root, nodes = export_bdd(value)
        return {
            "kind": "bdd",
            "root": root,
            "nodes": [list(node) for node in nodes],
            "node_count": value.node_count(),
            "products": sorted(
                (sorted(product) for product in value.satisfying_products()),
                key=lambda product: (len(product), product),
            ),
        }
    if isinstance(value, (set, frozenset)):
        return {"kind": "set", "values": sorted(value, key=lambda item: (str(item)))}
    if isinstance(value, float):
        return {"kind": "float", "value": value}
    return {"kind": "repr", "value": repr(value)}


def decode_annotation(payload: Mapping[str, Any], manager: Optional[BddManager]) -> Any:
    """Reconstruct the in-process value of an encoded annotation.

    A BDD is imported into *manager*, the live policy's, so its nodes merge
    with the ones derived after a checkpoint restore (a BDD without a
    manager is a :class:`QueryError`); everything else round-trips exactly.
    """
    kind = payload.get("kind")
    if kind == "none":
        return None
    if kind in ("bool", "int", "str", "float", "repr"):
        return payload["value"]
    if kind == "polynomial":
        return _decode_expression(payload["tree"])
    if kind == "set":
        return frozenset(payload["values"])
    if kind == "bdd" and manager is not None:
        nodes = tuple(tuple(node) for node in payload["nodes"])
        return import_bdd(manager, (payload["root"], nodes))
    raise QueryError(f"cannot decode annotation {payload!r}")


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryResult:
    """The completed answer to one :class:`QueryRequest`.

    ``annotation`` is the canonical encoded form; ``result`` the live
    in-process value (decoded from the annotation when the result crossed
    a wire).  The *body* — everything except query id and timing — is a
    deterministic function of the store and the request, which is what the
    service equivalence gate compares byte-for-byte.
    """

    vid: str
    spec: str
    issuer: Any
    target: Any
    fact: Dict[str, Any]
    annotation: Dict[str, Any]
    query_id: str = ""
    issued_at: float = 0.0
    completed_at: float = 0.0
    result: Any = field(default=None, compare=False)
    #: True when the query hit its deadline before the distributed
    #: resolution finished; ``annotation``/``result`` then hold the spec's
    #: missing-value and ``unresolved`` lists the issuer's outstanding
    #: remote sub-queries (the unresolved frontier) at expiry.
    partial: bool = False
    unresolved: Tuple[Tuple[str, ...], ...] = ()

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at

    def body_dict(self) -> Dict[str, Any]:
        """The deterministic result content (no ids, no timestamps).

        The ``partial`` / ``unresolved`` keys appear only on degraded
        results, so complete results keep the exact pre-deadline wire
        bytes (golden-transcript byte identity).
        """
        payload = {
            "vid": self.vid,
            "spec": self.spec,
            "issuer": self.issuer,
            "target": self.target,
            "fact": dict(self.fact),
            "annotation": self.annotation,
        }
        if self.partial:
            payload["partial"] = True
            payload["unresolved"] = [list(entry) for entry in self.unresolved]
        return payload

    def canonical_bytes(self) -> bytes:
        """Canonical JSON bytes of the body — the equivalence-gate currency."""
        return canonical_json(self.body_dict()).encode("utf-8")

    def to_dict(self) -> Dict[str, Any]:
        payload = self.body_dict()
        payload["meta"] = {
            "query_id": self.query_id,
            "issued_at": self.issued_at,
            "completed_at": self.completed_at,
        }
        return payload

    @classmethod
    def from_outcome(
        cls, outcome: QueryOutcome, request: QueryRequest, spec_name: str
    ) -> "QueryResult":
        """Wrap a raw :class:`QueryOutcome` produced by the query engine."""
        return cls(
            vid=outcome.vid,
            spec=spec_name,
            issuer=outcome.issuer,
            target=outcome.target,
            fact=encode_fact(request.fact),
            annotation=encode_annotation(outcome.result),
            query_id=outcome.query_id,
            issued_at=outcome.issued_at,
            completed_at=outcome.completed_at,
            result=outcome.result,
            partial=outcome.partial,
            unresolved=tuple(
                tuple(str(part) for part in entry) for entry in outcome.unresolved
            ),
        )
