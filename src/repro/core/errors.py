"""Exception types for the ExSPAN provenance layer."""

from __future__ import annotations


class ProvenanceError(Exception):
    """Base class for all ExSPAN provenance errors."""


class RewriteError(ProvenanceError):
    """Raised when a program cannot be rewritten for provenance maintenance.

    The most common cause is an aggregate other than MIN or MAX in a rule
    head — the paper restricts the provenance rewrite to MIN / MAX
    (Section 4.2.2).
    """


class QueryError(ProvenanceError):
    """Raised when a distributed provenance query cannot be executed."""


class QueryTimeoutError(QueryError):
    """Raised when a provenance query does not complete within its deadline."""
