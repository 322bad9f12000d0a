"""The PATHVECTOR protocol.

PATHVECTOR extends MINCOST so that each node discovers the actual best path
(a vector of node identifiers) to every destination, like the path-vector
routing protocols (BGP) the paper motivates.  Compared with MINCOST, derived
``bestPath`` tuples have a single derivation (one winning path), which is
why value-based provenance is relatively cheaper for PATHVECTOR (Figure 7)
than for MINCOST (Figure 6).  Among equal-cost paths ``pv4`` keeps the
least path vector (``min<P>``), so the winner depends on which paths exist,
never on the order they arrived in.

The path is built with the ``f_append`` / ``f_concat`` builtins and a
``f_member`` check prevents loops.
"""

from __future__ import annotations

from ..datalog.ast import Program, TableDecl
from ..datalog.parser import parse_program

__all__ = ["PATHVECTOR_SOURCE", "pathvector_program"]

PATHVECTOR_SOURCE = """
    // PATHVECTOR: discover the best path (as a vector of nodes).
    pv1 path(@S,D,C,P) :- link(@S,D,C), P=f_append(S,D).
    pv2 path(@S,D,C,P) :- link(@Z,S,C1), bestPath(@Z,D,C2,P2), C=C1+C2,
                          f_member(P2,S)==false, P=f_concat(S,P2).
    pv3 bestPathCost(@S,D,min<C>) :- path(@S,D,C,P).
    pv4 bestPath(@S,D,C,min<P>) :- bestPathCost(@S,D,C), path(@S,D,C,P).
    pv5 bestHop(@S,D,N) :- bestPath(@S,D,C,P), N=f_item(P,1).
"""


def pathvector_program() -> Program:
    """Return the PATHVECTOR program with its table declarations.

    ``bestPath`` and ``bestHop`` are keyed on (source, destination), one
    best path per pair, as the paper notes PATHVECTOR tuples have a single
    derivation.  ``pv4`` derives exactly one ``bestPath`` per pair (the
    ``min<P>`` of the paths at the cost ``bestPathCost`` fixes), so the key
    only replaces a winner the aggregate has already retracted.
    """
    program = parse_program(PATHVECTOR_SOURCE, name="pathvector")
    program.add_declaration(TableDecl("link", 3, (0, 1)))
    program.add_declaration(TableDecl("path", 4))
    program.add_declaration(TableDecl("bestPathCost", 3, (0, 1)))
    program.add_declaration(TableDecl("bestPath", 4, (0, 1)))
    program.add_declaration(TableDecl("bestHop", 3, (0, 1)))
    return program
