"""Span tracing of the pipeline's layers from outside the program.

:meth:`Tracer.install` wraps the public functions and methods named
in :data:`SPANS` and :data:`COUNTS` in place: every binding of the
same function object in a loaded ``repro`` module is replaced, so
callers that imported it by name are traced too (import the pipeline
before installing).  :meth:`Tracer.uninstall` puts the originals
back.  Only traced runs import this module.

A span records name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover; summing self times by
layer never counts an interval twice.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

#: Span name -> ``"module:attr"`` targets (``attr`` may be
#: ``Class.method``).  All targets of a name form one layer.
SPANS = {
    "terrain.project": [
        "repro.terrain.model:Terrain.image_segments",
        "repro.terrain.model:Terrain.map_segments",
        "repro.terrain.model:Terrain.image_segment",
        "repro.terrain.model:Terrain.map_segment",
    ],
    "ordering.constraints": ["repro.ordering.sweep:order_constraints"],
    "ordering.toposort": ["repro.ordering.sweep:front_to_back_order"],
    "ordering.separator": ["repro.ordering.separator:SeparatorTree.__init__"],
    "envelope.insert": ["repro.envelope.flat_splice:insert_segment_flat"],
    "envelope.insert_compiled": ["repro.envelope._ccore:insert_packed"],
    "hsr.sequential": ["repro.hsr.sequential:SequentialHSR.run"],
    "hsr.parallel": ["repro.hsr.parallel:ParallelHSR.run"],
    "hsr.assembly": ["repro.hsr.result:VisibilityMap.add_edge_result"],
    "hsr.pct.build": ["repro.hsr.pct:build_pct"],
    "envelope.batch_merge": ["repro.envelope.flat:batch_merge"],
    "hsr.phase2.run": ["repro.hsr.phase2:run_phase2"],
    "envelope.stack": ["repro.envelope.flat:stack_envelopes"],
    "reliability.check_flat": ["repro.reliability.guard:check_flat"],
    "persistence.commit": ["repro.persistence.rope:commit_splice_lanes"],
    "persistence.range_lanes": ["repro.persistence.rope:range_lanes"],
    "service.query_batch": ["repro.service.session:ViewshedSession.query_batch"],
    "service.points": ["repro.service.session:ViewshedSession.points_visible"],
    "service.envelope": ["repro.service.session:ViewshedSession.envelope"],
}

#: Count-only wrappers, for calls too frequent to time one by one.
COUNTS = {
    "ordering.comparisons": ["repro.ordering.sweep:in_front_comparison"],
    "envelope.window": ["repro.envelope.flat:FlatEnvelope.window"],
    "envelope.from_splice": ["repro.envelope.packed:PackedProfile.from_splice"],
}

#: Calls of ``_ccore.insert_packed`` the C core answered (it returns
#: ``None`` when it declines and the Python cascade runs instead).
COMPILED_OK = "envelope.insert_compiled_ok"


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self, keep_spans: int = 200_000):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_ns = 0
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_ns[name] += dur - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_ns += dur
                if len(self.spans) < self.keep_spans:
                    self.spans.append((sid, name, t0, t1, parent))

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _compiled(self, fn):
        counts = self.counts

        def compiled(*args, **kwargs):
            res = fn(*args, **kwargs)
            if res is not None:
                counts[COMPILED_OK] += 1
            return res

        return compiled

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_ns = 0

    def snapshot(self) -> dict:
        """Per-layer totals since the last :meth:`reset`."""
        return {
            "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_ms": self.top_ns / 1e6,
        }

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` before installing again."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, targets in SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, n=name: self._span(n, fn))
        for name, targets in COUNTS.items():
            for target in targets:
                self._patch(target, lambda fn, n=name: self._count(n, fn))
        self._patch("repro.envelope._ccore:insert_packed", self._compiled)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target: str, make) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, path)
        if original is None:  # e.g. insert_packed without the C core
            return
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(mod.__dict__.items()):
                if value is original:
                    self._patches.append((mod, alias, original))
                    setattr(mod, alias, wrapped)

    # -- export -----------------------------------------------------------

    def export(self, json_path, chrome_path) -> None:
        """Write the kept spans as plain JSON and as Chrome trace-event
        JSON (open the latter in chrome://tracing or Perfetto)."""
        base = min((s[2] for s in self.spans), default=0)
        plain = [
            {
                "id": sid,
                "name": name,
                "start_us": (t0 - base) / 1e3,
                "end_us": (t1 - base) / 1e3,
                "parent": parent,
            }
            for sid, name, t0, t1, parent in self.spans
        ]
        with open(json_path, "w") as fh:
            json.dump({"spans": plain}, fh)
        events = [
            {
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": s["start_us"],
                "dur": s["end_us"] - s["start_us"],
                "pid": 1,
                "tid": 1,
                "args": {"id": s["id"], "parent": s["parent"]},
            }
            for s in plain
        ]
        with open(chrome_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class GcTimer:
    """Time spent in the cyclic garbage collector, via ``gc.callbacks``."""

    def __init__(self):
        self.ns = 0
        self.collections = 0
        self._t0 = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._t0
            self.collections += 1

    def install(self) -> None:
        import gc

        gc.callbacks.append(self)

    def uninstall(self) -> None:
        import gc

        if self in gc.callbacks:
            gc.callbacks.remove(self)
