"""Readers the tests share: one rule from its text, an engine's local state,
a query cache's entries and a scheduled event's state."""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.datalog import Fact, Rule, parse_program
from repro.datalog.engine import _hashable_fact
from repro.storage.memory import freeze_value


def parse_rule(source: str) -> Rule:
    """The one rule in *source*."""
    (rule,) = parse_program(source).rules
    return rule


def table_rows(engine, name: str) -> List[Tuple[Any, ...]]:
    """The rows of the engine's local table *name*, sorted (none if absent)."""
    table = engine.catalog.get(name)  # a read creates nothing
    return [] if table is None else sorted(table.rows(), key=repr)


def derivations(table, values: Sequence[Any]) -> int:
    """The derivation count a table holds for *values* (0 if absent)."""
    return dict(table.rows_with_counts()).get(freeze_value(tuple(values)), 0)


def has_fact(engine, name: str, values: Sequence[Any]) -> bool:
    table = engine.catalog.get(name)
    return table is not None and tuple(values) in table


def annotation_of(engine, fact: Fact) -> Any:
    """The value-based provenance annotation the engine stores for *fact*."""
    return engine._lookup_annotation(_hashable_fact(fact))


def delete(network, fact: Fact) -> None:
    """Delete base *fact* at the node of a StandaloneNetwork that owns it."""
    network.engine(fact.location).delete(fact)


def cached(cache, key) -> bool:
    """Whether a QueryResultCache holds an answer under *key*."""
    return key in cache._entries


def dependents(cache, key) -> Tuple[Any, ...]:
    """The ``(parent_node, parent_key)`` pairs waiting on *key*, in order."""
    return tuple(cache._dependents.get(key, ()))


def empty(cache) -> None:
    """Drop every entry and index of a QueryResultCache in place."""
    cache._entries.clear()
    cache._dependents.clear()
    cache._by_vertex.clear()


def cancelled(event) -> bool:
    """Whether a ScheduledEvent was cancelled (its callback slot cleared)."""
    return event[3] is None
