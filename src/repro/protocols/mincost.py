"""The MINCOST protocol (Figure 1 of the paper).

MINCOST computes the best (least-cost) path cost between every pair of
nodes.  Rule ``sp1`` seeds one-hop path costs from the ``link`` relation,
``sp2`` extends paths through neighbours, and ``sp3`` keeps the minimum cost
per (source, destination) pair.

The paper fixes link costs at 1, so MINCOST effectively measures hop count.
"""

from __future__ import annotations

from typing import Optional

from ..datalog.ast import Program, TableDecl
from ..datalog.parser import parse_program

__all__ = ["MINCOST_SOURCE", "MINCOST_BOUNDED_SOURCE", "mincost_program"]

MINCOST_SOURCE = """
    // MINCOST: best path cost between all pairs of nodes (Figure 1).
    sp1 pathCost(@S,D,C) :- link(@S,D,C).
    sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2, S!=D.
    sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
"""

# Variant with a maximum path cost, substituted into the template below.
MINCOST_BOUNDED_SOURCE = """
    // MINCOST with a RIP-style maximum cost ("infinity"), which bounds the
    // count-to-infinity behaviour of distance-vector recomputation when a
    // link deletion disconnects part of the network.
    sp1 pathCost(@S,D,C) :- link(@S,D,C).
    sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2, S!=D,
                            C<{max_cost}.
    sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
"""


def mincost_program(max_cost: Optional[int] = None) -> Program:
    """Return the MINCOST program as an AST, with table declarations.

    ``link`` is keyed on (source, destination): re-inserting a link with a
    different cost replaces the old tuple.  ``pathCost`` uses full-tuple
    (multiset) semantics because a given cost may be derivable several ways,
    while ``bestPathCost`` is keyed on (source, destination).

    ``max_cost`` optionally bounds path costs (like RIP's infinity of 16).
    Plain MINCOST, exactly as in Figure 1 of the paper, counts to infinity
    when a deletion disconnects a destination; the churn experiments
    therefore run the bounded variant, as any deployed distance-vector
    protocol would.
    """
    if max_cost is None:
        source = MINCOST_SOURCE
    else:
        source = MINCOST_BOUNDED_SOURCE.format(max_cost=int(max_cost))
    program = parse_program(source, name="mincost")
    program.add_declaration(TableDecl("link", 3, (0, 1)))
    program.add_declaration(TableDecl("pathCost", 3))
    program.add_declaration(TableDecl("bestPathCost", 3, (0, 1)))
    return program
