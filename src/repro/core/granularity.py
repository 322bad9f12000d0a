"""Provenance granularity (Section 3: tuple, node, trust-domain level).

ExSPAN can encode provenance at three levels of detail:

* **tuple-level** — leaves of the provenance expression are the base tuples
  themselves (maximum detail, highest cost);
* **node-level** — leaves are the node identifiers hosting the base tuples,
  e.g. the node-level provenance of ``bestPathCost(@a,c,5)`` is
  ``<a + a*b>``;
* **trust-domain level** — leaves are identifiers of the trust domain each
  node belongs to, enabling cross-domain access-control policies.

The query customizations take a :class:`GranularitySpec` and use
:meth:`GranularitySpec.leaf_label` to map a base tuple to the literal that
appears in the provenance expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Mapping, Optional

from ..datalog.ast import Fact

__all__ = ["Granularity", "GranularitySpec", "prefix_domain_map"]


class Granularity(Enum):
    """Detail level of the provenance maintained for derived tuples."""

    TUPLE = "tuple"
    NODE = "node"
    TRUST_DOMAIN = "trust-domain"


def prefix_domain_map() -> Callable[[Any], str]:
    """Return a node→domain function that strips everything after the first ``_``.

    The transit-stub generator names nodes ``s<domain>_<transit>_<stub>_<n>``,
    so the map assigns every node of a domain the same identifier
    ``s<domain>`` / ``t<domain>`` — a reasonable stand-in for administrative
    domains in the absence of explicit configuration.
    """

    def mapper(node: Any) -> str:
        text = str(node)
        return text.split("_", 1)[0]

    return mapper


@dataclass
class GranularitySpec:
    """Granularity selection plus the node→trust-domain mapping."""

    level: Granularity = Granularity.TUPLE
    domain_of: Callable[[Any], str] = field(default_factory=prefix_domain_map)

    def leaf_label(self, fact: Optional[Fact], vid: str, node: Any) -> str:
        """Label of a base-tuple leaf in a provenance expression.

        ``fact`` may be ``None`` when the queried node cannot resolve the VID
        back to a tuple (it then falls back to the VID itself for tuple-level
        provenance).
        """
        if self.level is Granularity.NODE:
            return str(node)
        if self.level is Granularity.TRUST_DOMAIN:
            return str(self.domain_of(node))
        if fact is not None:
            return _render_fact(fact)
        return vid


def _render_fact(fact: Fact) -> str:
    values = ",".join(str(value) for value in fact.values)
    return f"{fact.name}({values})"
