"""In-memory spans around the public functions of lios, installed from outside.

A `Tracer` replaces a module attribute with a wrapper that records one span
per call: layer name, start, end and the enclosing span. Nothing under `src/`
knows about it. Each call site is patched where its caller looks the name
up, since `from .x import f` binds `f` into the calling module too.

Times are self times: a span's duration minus the durations of its direct
children, so a layer that calls another is not charged for it.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter

# (module, attribute looked up by the caller, layer name): where lift(),
# run_pipeline, the detectors and the query path call lios's public functions
SPANS = (
    ("lios.pipeline", "run_pipeline", "pipeline.artifacts"),
    ("lios.pipeline", "ingest", "pipeline.ingest"),
    ("lios.pipeline", "parse_plist", "plist.parse"),
    ("lios.pipeline", "parse_macho", "macho.parse"),
    ("lios.pipeline", "load_model", "objc.model"),
    ("lios.pipeline", "discover_functions", "pipeline.discover"),
    ("lios.pipeline", "build_function", "disasm.decode_cfg"),
    ("lios.pipeline", "build_from_frontends", "graph.assemble"),
    ("lios.pipeline", "link_pass", "graph.passes"),
    ("lios.pipeline", "mark_entrypoints", "graph.passes"),
    ("lios.pipeline", "dump", "graph.dump"),
    ("lios.graph", "devirtualize", "disasm.devirt"),
    ("lios.disasm", "backtrace", "disasm.devirt"),
    ("lios.graph", "compute_use_def", "disasm.use_def"),
    ("lios.graph", "compute_effects", "disasm.effects"),
    ("lios.disasm", "compute_effects", "disasm.effects"),
    ("lios.graph", "load", "graph.load"),
    ("lios.traverse", "run_query", "traverse.query"),
    ("lios.analyses", "detect_webview_bridge", "analyses.detect"),
    ("lios.analyses", "ats_check", "analyses.detect"),
    ("lios.analyses", "run_rules", "analyses.detect"),
    ("lios.analyses", "tainted", "analyses.taint"),
)

# every layer a traced run reports, whether or not the workload reaches it
LAYERS = (
    "pipeline.ingest", "plist.parse", "macho.parse", "objc.model",
    "graph.passes", "analyses.detect", "pipeline.artifacts",
    "pipeline.discover", "disasm.decode_cfg", "disasm.effects",
    "disasm.use_def", "graph.dump", "graph.assemble", "disasm.devirt",
    "graph.load", "traverse.query", "analyses.taint",
)


def _msgsend_counts(sites) -> tuple[int, int]:
    """(msgSend sites, sites whose selector was recovered) among call sites.

    A resolved dispatch and an external send with a known selector both
    carry `selector`; a send left opaque keeps the `objc_msgSend` name.
    """
    sites_at: dict[int, bool] = {}
    for s in sites:
        if s.selector is not None or s.target_name.startswith("objc_msgSend"):
            sites_at[s.caller_ea] = sites_at.get(s.caller_ea, False) or bool(s.selector)
    return len(sites_at), sum(sites_at.values())


def _count_function(counts, fn) -> None:
    counts["disasm.functions"] += 1
    counts["disasm.instructions"] += sum(len(b.instructions) for b in fn.blocks)


def _count_sites(counts, sites) -> None:
    total, resolved = _msgsend_counts(sites)
    counts["disasm.msgsend_sites"] += total
    counts["disasm.msgsend_resolved"] += resolved


def _count_dump(counts, _result, args) -> None:
    counts["graph.dump_bytes"] += os.path.getsize(args[1])


# wrapped attribute -> what a finished call adds to the counters
_COUNTERS = {
    "build_function": lambda c, r, a: _count_function(c, r),
    "devirtualize": lambda c, r, a: _count_sites(c, r),
    "compute_effects": lambda c, r, a: c.update(("disasm.effects_calls",)),
    "compute_use_def": lambda c, r, a: c.update({"disasm.use_def_edges": len(r)}),
    "tainted": lambda c, r, a: c.update(("analyses.taint_calls",)),
    "run_query": lambda c, r, a: c.update({"traverse.results": len(r)}),
    "dump": _count_dump,
}


class Tracer:
    """Records spans and counters for one process; see `install`."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, on_result):
        spans, stack, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(counts, result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of SPANS; a second call before `uninstall` does nothing."""
        if self._restore:
            return
        for module_name, attr, layer in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, _COUNTERS.get(attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span less the spans directly inside it."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for i, (layer, start, end, _parent) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def covered(self) -> float:
        """Seconds inside some top-level span."""
        return sum(end - start for _l, start, end, parent in self.spans if parent is None)
