"""Provenance polynomials (provenance semirings).

Section 5.2.1 of the paper encodes provenance as algebraic expressions over
two binary operations: ``+`` (union of alternative derivations) and ``·``
(join of the inputs of one rule execution), with base tuples as literals —
the *provenance semiring* of Green et al.  ``r1(A + r2(B · C))`` reads
"rule r2 joins B and C, and the result is unioned with A by rule r1".

This module provides an immutable expression tree with:

* construction helpers (:func:`var`, :func:`sum_of`, :func:`product_of`);
* the literals of an expression and its number of derivations
  (:func:`count_derivations`, the #DERIVATION customization's threshold);
* conversion to a canonical DNF (set of frozensets of literals) with
  boolean *absorption* applied, the "condensed provenance" of Section 6.3
  that a BDD query answer must equal;
* a deterministic string rendering matching the paper's notation;
* a wire-size estimate used by the bandwidth accounting of the POLYNOMIAL
  query experiments (Figures 11, 13, 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ProvenanceExpression",
    "Literal",
    "Sum",
    "Product",
    "EMPTY",
    "var",
    "sum_of",
    "product_of",
    "count_derivations",
]


class ProvenanceExpression:
    """Base class for provenance polynomial expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(ProvenanceExpression):
    """A base tuple (leaf) in the polynomial, identified by *label*.

    The label is whatever granularity the query runs at: the tuple's VID or
    printable form for tuple-level provenance, the node identifier for
    node-level provenance, or a trust-domain identifier.
    """

    label: str

    def literals(self) -> Iterator[str]:
        yield self.label

    def to_dnf(self) -> FrozenSet[FrozenSet[str]]:
        return frozenset({frozenset({self.label})})

    def wire_size(self) -> int:
        return len(self.label)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Sum(ProvenanceExpression):
    """Union of alternative derivations, optionally annotated with a location."""

    terms: Tuple[ProvenanceExpression, ...]
    location: Optional[str] = None

    def literals(self) -> Iterator[str]:
        for term in self.terms:
            yield from term.literals()

    def to_dnf(self) -> FrozenSet[FrozenSet[str]]:
        products: Set[FrozenSet[str]] = set()
        for term in self.terms:
            products.update(term.to_dnf())
        return _absorb_products(products)

    def __post_init__(self) -> None:
        # Sized once, from the children's sizes: a message then costs a
        # lookup, not a subtree walk.  Not a field: eq/hash ignore it.
        size = 2 + (len(self.location) if self.location else 0)
        object.__setattr__(self, "_size", size + sum(t.wire_size() for t in self.terms))

    def wire_size(self) -> int:
        return self._size

    def __str__(self) -> str:
        inner = " + ".join(str(term) for term in self.terms)
        suffix = f"@{self.location}" if self.location else ""
        return f"({inner}){suffix}"


@dataclass(frozen=True)
class Product(ProvenanceExpression):
    """Join of the inputs of a rule execution, annotated with rule and location."""

    factors: Tuple[ProvenanceExpression, ...]
    rule: Optional[str] = None
    location: Optional[str] = None

    def literals(self) -> Iterator[str]:
        for factor in self.factors:
            yield from factor.literals()

    def to_dnf(self) -> FrozenSet[FrozenSet[str]]:
        # distribute the product over the DNFs of the factors
        products: Set[FrozenSet[str]] = {frozenset()}
        for factor in self.factors:
            factor_dnf = factor.to_dnf()
            products = {
                existing | addition for existing in products for addition in factor_dnf
            }
        return _absorb_products(products)

    def __post_init__(self) -> None:
        # Sized once, as for Sum.
        size = 2 + (len(self.rule) if self.rule else 0)
        size += len(self.location) if self.location else 0
        object.__setattr__(self, "_size", size + sum(f.wire_size() for f in self.factors))

    def wire_size(self) -> int:
        return self._size

    def __str__(self) -> str:
        inner = " * ".join(str(factor) for factor in self.factors)
        prefix = f"<{self.rule}@{self.location}>" if self.rule else ""
        return f"{prefix}({inner})"


@dataclass(frozen=True)
class _Empty(ProvenanceExpression):
    """The additive identity (no derivation)."""

    def to_dnf(self) -> FrozenSet[FrozenSet[str]]:
        return frozenset()

    def wire_size(self) -> int:
        return 1

    def __str__(self) -> str:
        return "0"


#: The empty (underivable) provenance expression.
EMPTY = _Empty()


# ---------------------------------------------------------------------- #
# constructors
# ---------------------------------------------------------------------- #
def var(label: str) -> Literal:
    """Create a literal for a base tuple (or node / domain) identifier."""
    return Literal(str(label))


def sum_of(
    terms: Sequence[ProvenanceExpression], location: Optional[str] = None
) -> ProvenanceExpression:
    """Union of alternative derivations; flattens nested sums and drops EMPTY."""
    flattened: List[ProvenanceExpression] = []
    for term in terms:
        if isinstance(term, _Empty):
            continue
        if isinstance(term, Sum) and term.location is None:
            flattened.extend(term.terms)
        else:
            flattened.append(term)
    if not flattened:
        return EMPTY
    if len(flattened) == 1 and location is None:
        return flattened[0]
    return Sum(tuple(flattened), location=location)


def product_of(
    factors: Sequence[ProvenanceExpression],
    rule: Optional[str] = None,
    location: Optional[str] = None,
) -> ProvenanceExpression:
    """Join of rule inputs; flattens unlabelled nested products.

    A product containing :data:`EMPTY` is itself EMPTY (joining with an
    underivable input yields nothing).
    """
    flattened: List[ProvenanceExpression] = []
    for factor in factors:
        if isinstance(factor, _Empty):
            return EMPTY
        if isinstance(factor, Product) and factor.rule is None:
            flattened.extend(factor.factors)
        else:
            flattened.append(factor)
    if not flattened:
        return EMPTY
    if len(flattened) == 1 and rule is None:
        return flattened[0]
    return Product(tuple(flattened), rule=rule, location=location)


# ---------------------------------------------------------------------- #
# absorption and evaluations
# ---------------------------------------------------------------------- #
def _absorb_products(products: Set[FrozenSet[str]]) -> FrozenSet[FrozenSet[str]]:
    """Remove products that are supersets of another product (absorption)."""
    minimal: List[FrozenSet[str]] = []
    for product in sorted(products, key=len):
        if any(keeper <= product for keeper in minimal):
            continue
        minimal.append(product)
    return frozenset(minimal)


def count_derivations(expression: ProvenanceExpression) -> int:
    """Number of distinct derivations: sum over ``+``, product over ``·``."""
    if isinstance(expression, Literal):
        return 1
    if isinstance(expression, Sum):
        return sum(count_derivations(term) for term in expression.terms)
    if isinstance(expression, Product):
        count = 1
        for factor in expression.factors:
            count *= count_derivations(factor)
        return count
    return 0  # EMPTY
