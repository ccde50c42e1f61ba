"""Spans around calls into each crossmap module, for the traced run.

Tracing replaces every binding of a traced function, in every loaded
crossmap module (and on its class, for methods), with a wrapper that opens
a span.  Because modules bind each other's functions by name (``counting``
imports ``_iter_labels``, ``_consecutive_pairs``, ``_loops`` and
``_find_crossing``), spans follow the real call path.  A name that no
longer exists is skipped, so its layer reports zero calls.

Spans are aggregated as they close rather than stored: per layer, the
self time (span time minus the time of spans opened inside it) and the
calls that entered the layer from another layer.  Calls between functions
of one layer nest as spans of that layer and count once.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

#: Per-layer metrics: (name, unit, better, end-to-end metric it should move).
LAYER_METRICS = [
    ("partition.enum_items", "count", "lower", "job_s on identity and bell"),
    ("partition.enum_self_s", "s", "lower", "job_s on identity and bell"),
    ("partition.from_blocks_calls", "count", "lower", "job_s on bell; request_p50_ms on witness"),
    ("partition.from_blocks_self_s", "s", "lower", "job_s on bell; request_p50_ms on witness"),
    ("partition.text_self_s", "s", "lower", "request_p50_ms on witness"),
    ("arcs.extract_calls", "count", "lower", "job_s on identity and bell"),
    ("arcs.extract_self_s", "s", "lower", "job_s on identity and bell"),
    ("arcs.arcs_per_call", "count", "higher", "job_s on identity and bell"),
    ("crossings.find_calls", "count", "lower", "job_s on identity"),
    ("crossings.find_self_s", "s", "lower", "job_s on identity"),
    ("crossings.find_hit_ratio", "ratio", "higher", "job_s on identity"),
    ("crossings.count_calls", "count", "lower", "request_p99_ms on witness"),
    ("crossings.count_self_s", "s", "lower", "request_p99_ms on witness"),
    ("crossings.witnesses_counted", "count", "lower", "request_p99_ms on witness"),
    ("bijection.reverse_calls", "count", "lower", "job_s and peak_rss_mb on bell"),
    ("bijection.reverse_self_s", "s", "lower", "job_s and peak_rss_mb on bell"),
    ("bijection.forward_calls", "count", "lower", "request_p50_ms on witness"),
    ("bijection.forward_self_s", "s", "lower", "request_p50_ms on witness"),
    ("diagram.render_calls", "count", "lower", "request_p50_ms on witness"),
    ("diagram.render_self_s", "s", "lower", "request_p50_ms on witness"),
    ("diagram.svg_bytes", "bytes", "lower", "request_p50_ms on witness"),
    ("counting.self_s", "s", "lower", "job_s on identity"),
    ("counting.items_visited", "count", "lower", "job_s on identity"),
    ("counting.cache_hits", "count", "higher", "job_s on identity"),
    ("oeis.import_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself, per workload"),
]

CALL, GEN = "call", "gen"

#: (module, attribute or Class.method, span, kind): the functions through
#: which another module or the CLI enters each layer.  The span names the
#: layer and, after the dot, the group whose calls and self time are kept.
TARGETS = [
    ("partition", "_iter_labels", "partition.enum", GEN),
    ("partition", "enumerate_full", "partition.enum", GEN),
    ("partition", "enumerate_partial", "partition.enum", GEN),
    ("partition", "EnumerationRange.label_arrays", "partition.enum", GEN),
    ("partition", "split_range", "partition.enum", CALL),
    ("partition", "from_blocks", "partition.from_blocks", CALL),
    ("partition", "parse_text", "partition.text", CALL),
    ("partition", "PartialPartition.to_text", "partition.text", CALL),
    ("arcs", "arcs_classical", "arcs.extract", CALL),
    ("arcs", "arcs_enhanced", "arcs.extract", CALL),
    ("arcs", "_consecutive_pairs", "arcs.extract", CALL),
    ("arcs", "_loops", "arcs.extract", CALL),
    ("crossings", "_find_crossing", "crossings.find", CALL),
    ("crossings", "find_k_crossing", "crossings.find", CALL),
    ("crossings", "find_k_nesting", "crossings.find", CALL),
    ("crossings", "count_k_witnesses", "crossings.count", CALL),
    ("bijection", "forward", "bijection.forward", CALL),
    ("bijection", "reverse", "bijection.reverse", CALL),
    ("diagram", "render_overlay", "diagram.render", CALL),
    ("counting", "verify_identity", "counting.run", CALL),
    ("counting", "verify_eigensequence", "counting.run", CALL),
    ("counting", "count_C", "counting.run", CALL),
    ("counting", "count_E", "counting.run", CALL),
    ("counting", "count_table", "counting.run", CALL),
]


def _layer(span: str) -> str:
    return span.partition(".")[0]


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        # One [span, seconds of child spans] per open span; the bottom one
        # is the benchmark itself.
        self.stack: list[list] = [["bench", 0.0]]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.totals: Counter = Counter()  # results summed at layer entry

    def _enter(self, span: str) -> None:
        self.stack.append([span, 0.0])

    def _leave(self, span: str, t0: float) -> tuple[bool, str]:
        """Close the top span; (entered from another layer, caller's span)."""
        dur = time.perf_counter() - t0
        _, child = self.stack.pop()
        self.self_s[span] += dur - child
        caller = self.stack[-1]
        caller[1] += dur
        caller_span = caller[0]
        entered = _layer(caller_span) != _layer(span)
        if entered:
            self.calls[span] += 1
        return entered, caller_span

    def _record(self, span: str, result) -> None:
        """Result-derived counts, taken when a call enters the layer."""
        if span == "arcs.extract":
            self.totals["arcs"] += len(result)
        elif span == "crossings.find":
            self.totals["find_hits"] += result is not None
        elif span == "crossings.count":
            self.totals["witnesses"] += result
        elif span == "diagram.render":
            self.totals["svg_bytes"] += len(result.encode())

    def wrap(self, span: str, kind: str, fn):
        tracer = self
        clock = time.perf_counter

        if kind == CALL:
            def traced(*args, **kwargs):
                tracer._enter(span)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    entered, _ = tracer._leave(span, t0)
                if entered:
                    tracer._record(span, result)
                return result
            return traced

        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._enter(span)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    entered, caller = tracer._leave(span, t0)
                if entered:
                    tracer.totals["enum_items"] += 1
                    if _layer(caller) == "counting":
                        tracer.totals["items_visited"] += 1
                yield item
        return traced_gen

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every binding of every target; returns what :func:`restore` needs."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "crossmap" or name.startswith("crossmap."))]
        saved = []
        for mod_name, attr, span, kind in TARGETS:
            mod = sys.modules.get(f"crossmap.{mod_name}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(span, kind, original)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, key, value))
                        setattr(holder, key, wrapper)
        return saved

    def metrics(self, cache_hits: int) -> dict[str, float]:
        """Per-layer metrics of this pass, except the run-level ones."""
        s, c, t = self.self_s, self.calls, self.totals
        extract = c["arcs.extract"]
        find = c["crossings.find"]
        return {
            "partition.enum_items": t["enum_items"],
            "partition.enum_self_s": s["partition.enum"],
            "partition.from_blocks_calls": c["partition.from_blocks"],
            "partition.from_blocks_self_s": s["partition.from_blocks"],
            "partition.text_self_s": s["partition.text"],
            "arcs.extract_calls": extract,
            "arcs.extract_self_s": s["arcs.extract"],
            "arcs.arcs_per_call": t["arcs"] / extract if extract else 0.0,
            "crossings.find_calls": find,
            "crossings.find_self_s": s["crossings.find"],
            "crossings.find_hit_ratio": t["find_hits"] / find if find else 0.0,
            "crossings.count_calls": c["crossings.count"],
            "crossings.count_self_s": s["crossings.count"],
            "crossings.witnesses_counted": t["witnesses"],
            "bijection.reverse_calls": c["bijection.reverse"],
            "bijection.reverse_self_s": s["bijection.reverse"],
            "bijection.forward_calls": c["bijection.forward"],
            "bijection.forward_self_s": s["bijection.forward"],
            "diagram.render_calls": c["diagram.render"],
            "diagram.render_self_s": s["diagram.render"],
            "diagram.svg_bytes": t["svg_bytes"],
            "counting.self_s": s["counting.run"],
            "counting.items_visited": t["items_visited"],
            "counting.cache_hits": cache_hits,
        }


def restore(saved: list[tuple[object, str, object]]) -> None:
    for holder, key, value in reversed(saved):
        setattr(holder, key, value)
