"""Kernels: one layer's public function, timed on inputs the workload left.

These reach past the facade on purpose (``Table``, ``tuple_vid``, the BDD
manager, ``payload_size``, ...), so each import sits inside its kernel and
:func:`run_kernels` survives any of them failing: a later PR that renames
a function turns that kernel's figures into 0 with a warning on stderr,
and the run still passes.  End-to-end metrics never depend on a kernel.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

from catalog import PER_LAYER_UNITS
from harness import clock, percentile, ratio

#: Most tuples / annotations a kernel replays: enough for a stable mean,
#: small enough that all kernels together stay near a second.
SAMPLE_CAP = 20_000


def per_item_ns(call: Callable[[Any], Any], items: Sequence[Any]) -> float:
    """Mean nanoseconds of ``call(item)`` over *items* (loop cost included)."""
    if not items:
        return 0.0
    started = clock()
    for item in items:
        call(item)
    return (clock() - started) * 1e9 / len(items)


def final_tuples(workload: Any) -> List[Tuple[str, Tuple[Any, ...]]]:
    """``(relation, row)`` of every table the finished networks hold."""
    tuples: List[Tuple[str, Tuple[Any, ...]]] = []
    for network in workload.networks:
        for name in network.predicates():
            tuples.extend((name, row) for _, row in network.tuples(name))
    return tuples[:SAMPLE_CAP]


def bdd_annotations(workload: Any, results: Sequence[Any]) -> List[Any]:
    """BDDs the run produced: value-mode tuple annotations, ``bdd`` answers."""
    from repro.core.bdd import Bdd

    found = [result.result for result in results if isinstance(result.result, Bdd)]
    for network in workload.networks:
        for address in network.addresses():
            annotations = network.engine(address)._annotations.values()
            found.extend(value for value in annotations if isinstance(value, Bdd))
            if len(found) >= SAMPLE_CAP:
                return found[:SAMPLE_CAP]
    return found


# ---------------------------------------------------------------------- #
# the kernels
# ---------------------------------------------------------------------- #
def compile_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    """Parse + provenance rewrite + plan one engine: a one-node network."""
    from repro.core import ExspanConfig, ExspanNetwork
    from repro.net.topology import Topology

    topology = Topology("one-node")
    topology.add_node("n0")
    started = clock()
    ExspanNetwork(topology, workload.program(), config=ExspanConfig(mode=workload.mode))
    return {"program.compile_ms": (clock() - started) * 1e3}


def vid_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    from repro.core.vid import clear_vid_caches, tuple_vid

    tuples = kept["tuples"]
    hash_one = lambda item: tuple_vid(item[0], item[1])  # noqa: E731
    clear_vid_caches()
    cold = per_item_ns(hash_one, tuples)
    return {"vid.ns_per_vid_cold": cold, "vid.ns_per_vid_warm": per_item_ns(hash_one, tuples)}


def table_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    """Replay the largest relation into a fresh ``Table``."""
    from repro.storage.memory import Table

    by_relation: Dict[str, List[Tuple[Any, ...]]] = {}
    for name, row in kept["tuples"]:
        by_relation.setdefault(name, []).append(row)
    if not by_relation:
        return {}
    name, rows = max(by_relation.items(), key=lambda item: len(item[1]))
    table = Table(name, arity=len(rows[0]))
    insert = per_item_ns(table.insert, rows)
    lookup = per_item_ns(table.__contains__, rows)
    delete = per_item_ns(table.delete, rows)
    return {
        "table.ns_per_insert": insert,
        "table.ns_per_lookup": lookup,
        "table.ns_per_delete": delete,
    }


def bdd_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    """Combine captured annotations pairwise, within their own manager."""
    annotations = bdd_annotations(workload, kept["results"])
    pairs = [
        (left, right)
        for left, right in zip(annotations, annotations[1:])
        if left.manager is right.manager
    ]
    return {
        "bdd.nodes": float(sum(annotation.node_count() for annotation in annotations[:2000])),
        "bdd.ns_per_and": per_item_ns(lambda pair: pair[0] & pair[1], pairs),
        "bdd.ns_per_or": per_item_ns(lambda pair: pair[0] | pair[1], pairs),
    }


def annotation_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    """Canonical encoding of answers (or, with no query, of tuple annotations)."""
    from repro.core.requests import canonical_json, encode_annotation

    values = [result.result for result in kept["results"]]
    if not values:
        values = bdd_annotations(workload, ())[:512]
    sizes = [len(canonical_json(encode_annotation(value))) for value in values]
    return {
        "annot.encode_us": per_item_ns(encode_annotation, values) / 1e3,
        "annot.bytes_p50": percentile(sizes, 0.5),
    }


def cache_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    from repro.core.cache import QueryResultCache

    keys = [("v", "kernel", f"vid-{index}") for index in range(SAMPLE_CAP)]
    cache = QueryResultCache("kernel", capacity=len(keys))
    return {
        "cache.ns_per_put": per_item_ns(lambda key: cache.put(key, 1, 0.0), keys),
        "cache.ns_per_get": per_item_ns(cache.get, keys),
        "cache.ns_per_invalidate": per_item_ns(cache.invalidate, keys),
    }


def simulator_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    """Schedule and run no-op events: the event heap with nothing on it."""
    from repro.net.simulator import Simulator

    simulator = Simulator()
    events = 2 * SAMPLE_CAP
    noop = lambda: None  # noqa: E731
    started = clock()
    for index in range(events):
        simulator.schedule(index * 1e-6, noop)
    simulator.run_until_idle()
    return {"sim.ns_per_noop_event": (clock() - started) * 1e9 / events}


def payload_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    """Wire sizing of the value lists a delta message carries."""
    from repro.net.message import payload_size

    payloads = [list(row) for _, row in kept["tuples"]]
    return {"net.ns_per_payload_size": per_item_ns(payload_size, payloads)}


def frame_kernel(workload: Any, kept: Dict[str, List[Any]]) -> Dict[str, float]:
    """``encode_frame`` / ``decode_payload`` on the frames the run exchanged."""
    from repro.service.protocol import decode_payload, encode_frame

    requests, replies = [], []
    for index, (op, params, reply) in enumerate(kept["frames"]):
        requests.append({"id": index, "client": "bench", "op": op, "params": params})
        replies.append({"id": index, "ok": True, "result": reply})
    if not requests:
        return {}
    bodies = [encode_frame(payload)[4:] for payload in requests + replies]
    return {
        "svc.bytes_in_per_req": ratio(sum(len(encode_frame(r)) for r in requests), len(requests)),
        "svc.bytes_out_per_req": ratio(sum(len(encode_frame(r)) for r in replies), len(replies)),
        "svc.ns_per_encode": per_item_ns(encode_frame, requests + replies),
        "svc.ns_per_decode": per_item_ns(decode_payload, bodies),
    }


KERNELS = (
    compile_kernel,
    vid_kernel,
    table_kernel,
    bdd_kernel,
    annotation_kernel,
    cache_kernel,
    simulator_kernel,
    payload_kernel,
    frame_kernel,
)


def run_kernels(workload: Any, recorder: Any) -> Dict[str, float]:
    """Every kernel's figures; a kernel that raises contributes nothing.

    A speed probe is taken around each kernel, and its timings (not its
    counts and sizes) are divided by the box's slowness at that moment.
    """
    ran: List[Tuple[float, Dict[str, float]]] = []
    recorder.kept["tuples"] = final_tuples(workload)  # read through the facade, once
    for kernel in KERNELS:
        recorder.take_probe()
        try:
            ran.append((clock(), kernel(workload, recorder.kept)))
        except Exception as error:  # a renamed internal must not fail the run
            print(
                f"warning: {kernel.__name__} failed ({type(error).__name__}: {error}); "
                "its metrics read 0",
                file=sys.stderr,
            )
    recorder.take_probe()
    slowness = recorder.speed()
    figures: Dict[str, float] = {}
    for ended, measured in ran:
        for name, value in measured.items():
            timing = PER_LAYER_UNITS[name] in ("ns", "us", "ms", "s")
            figures[name] = value / slowness(ended) if timing else value
    return figures
