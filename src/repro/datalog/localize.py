"""Rule localization checks.

Declarative networking requires *localized* rules before distributed
execution: every body predicate of a rule must share a single location
specifier so the rule's joins can be evaluated at one node; the head may
reside at a different node, in which case the derivation is shipped there.

The programs in the ExSPAN paper (MINCOST, PATHVECTOR, PACKETFORWARD and the
rewritten provenance rules) are already localized.  :func:`body_location`
is the check: the provenance rewriter calls it on every rule, so a rule
whose body spans two locations is refused before it runs.
"""

from __future__ import annotations

from typing import Optional

from .ast import Rule
from .errors import ValidationError
from .terms import Constant, Variable

__all__ = ["body_location"]


def body_location(rule: Rule) -> Optional[str]:
    """Return the common body location variable/constant of *rule*.

    Returns ``None`` for rules with no body atoms (fact-like rules).
    Raises :class:`ValidationError` when body atoms disagree on location.
    """
    location: Optional[str] = None
    for atom in rule.body_atoms:
        term = atom.location_term
        if isinstance(term, Variable):
            name = term.name
        elif isinstance(term, Constant):
            name = f"<{term.value!r}>"
        else:
            raise ValidationError(
                f"rule {rule.label}: location specifier of {atom.name} must be "
                "a variable or constant"
            )
        if location is None:
            location = name
        elif location != name:
            raise ValidationError(
                f"rule {rule.label} is not localized: body atoms use location "
                f"specifiers {location!r} and {name!r}"
            )
    return location
