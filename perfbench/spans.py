"""Outside-in span tracing of the program's layers.

The benchmark records spans from its own files: :func:`install` replaces
each layer's public function with a timing wrapper, in the module that
*calls* it (``from x import f`` binds ``f`` at import time, so patching
``x.f`` alone would miss callers), and :func:`uninstall` puts every
original back.  No program code changes.

Spans stay in memory.  A forked worker process (a ``--jobs N`` pool
forks after the wrappers are installed, so it inherits them) starts its
own buffer on its first span and appends its finished top-level spans
to ``spans-<pid>.jsonl`` in the spill directory, because pool workers
are terminated without running exit handlers.  The parent flushes its
own buffer the same way when the run ends, and :func:`load_spans`
merges the files.

Times come from ``time.monotonic_ns()``, one system-wide clock, so spans
of different processes line up.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, layer).  Each entry patches the name the
#: calling module uses; class attributes are patched on the class, which
#: covers every caller at once.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "get_benchmark", "circuit.build"),
    ("repro.evaluation.parallel", "get_benchmark", "circuit.build"),
    ("repro.evaluation.parallel", "profile_circuit", "profiling.profile"),
    ("repro.design.engine", "profile_circuit", "profiling.profile"),
    ("repro.mapping.engine", "profile_circuit", "profiling.profile"),
    ("repro.evaluation.parallel", "architectures_for_config", "design.generate"),
    ("repro.design.engine", "DesignEngine.layout_for", "design.layout"),
    ("repro.design.engine", "DesignEngine.bus_selection", "design.bus_selection"),
    ("repro.design.engine", "DesignEngine.frequencies_for", "design.alg3"),
    ("repro.collision.yield_simulator", "YieldSimulator.estimate", "collision.yield"),
    ("repro.evaluation.experiment", "route_circuit", "mapping.route"),
    # The sweep executor's per-task entry points: looked up by name when a
    # phase starts and pickled by name for the pool, so the patched
    # module attribute is what every worker runs.
    ("repro.evaluation.parallel", "_generate_task", "evaluation.task"),
    ("repro.evaluation.parallel", "_evaluate_task", "evaluation.task"),
    ("repro.mapping.engine", "RoutingCache.merge_save", "persistence.write"),
    ("repro.design.engine", "DesignCache.merge_save", "persistence.write"),
    ("repro.evaluation.checkpoint", "SweepCheckpoint.record_point", "persistence.write"),
    ("repro.evaluation.checkpoint", "SweepCheckpoint.record_generation", "persistence.write"),
    ("repro.mapping.engine", "RoutingCache.load", "persistence.read"),
    ("repro.design.engine", "DesignCache.load", "persistence.read"),
    ("repro.evaluation.checkpoint", "SweepCheckpoint.load", "persistence.read"),
)


def _span_args(layer: str, result) -> Optional[dict]:
    """Counts recorded at the layer boundary, where the work happens."""
    if layer == "mapping.route":
        return {"swaps": result.num_swaps, "gates": result.total_gates}
    if layer == "profiling.profile":
        return {"circuit": result.circuit_name}
    return None


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent: Optional[int]
    pid: int
    args: Optional[dict] = None

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanRecorder:
    """In-memory span buffer for one process, spilled to ``spill_dir``."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._counter = 0

    def _own_pid(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked child: drop the parent's copy of the
            # buffer and stack, so nothing is reported twice.
            self._pid = pid
            self._spans = []
            self._stack = []
            self._counter = 0
        return pid

    def wrap(self, layer: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            pid = self._own_pid()
            self._counter += 1
            span_id = (pid << 32) | self._counter
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.monotonic_ns()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                self._stack.pop()
                self._spans.append(Span(layer, start, end, span_id, parent, pid,
                                        None if result is None
                                        else _span_args(layer, result)))
                if not self._stack and pid != self.root_pid:
                    self.flush()

        return traced

    def flush(self) -> None:
        """Append this process's finished spans to its spill file."""
        if not self._spans:
            return
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self._spans:
                handle.write(json.dumps(span.__dict__) + "\n")
        self._spans = []


@dataclass(frozen=True)
class Patch:
    owner: object
    attribute: str
    original: object


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


def install(recorder: SpanRecorder,
            targets: Iterable[Tuple[str, str, str]] = TARGETS) -> List[Patch]:
    """Wrap every target; returns the patches :func:`uninstall` reverts."""
    patches: List[Patch] = []
    try:
        for module_name, path, layer in targets:
            owner, attribute = _resolve(module_name, path)
            # Class attributes are read from __dict__ so the restored
            # value is the stored function, not a bound or inherited one.
            original = (owner.__dict__[attribute] if isinstance(owner, type)
                        else getattr(owner, attribute))
            setattr(owner, attribute, recorder.wrap(layer, original))
            patches.append(Patch(owner, attribute, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore every patched attribute, last patch first."""
    for patch in reversed(patches):
        setattr(patch.owner, patch.attribute, patch.original)
    patches.clear()


def load_spans(spill_dir: Path) -> List[Span]:
    """Every span spilled by the traced process and its workers."""
    spans: List[Span] = []
    for path in sorted(Path(spill_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(Span(**json.loads(line)) for line in handle if line.strip())
    return spans


# ---------------------------------------------------------------------------
# Analysis.
# ---------------------------------------------------------------------------


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover (seconds)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {
        span.span_id: (span.end_ns - span.start_ns
                       - _union_ns(children.get(span.span_id, ()))) / 1e9
        for span in spans
    }


def layer_self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per layer."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def top_level_coverage_s(spans: List[Span], start_ns: int, end_ns: int) -> float:
    """Seconds of [start, end] covered by top-level spans of any process."""
    intervals = [
        (max(span.start_ns, start_ns), min(span.end_ns, end_ns))
        for span in spans
        if span.parent is None and span.end_ns > start_ns and span.start_ns < end_ns
    ]
    return _union_ns(intervals) / 1e9


def chrome_trace(spans: List[Span], origin_ns: int) -> dict:
    """Chrome trace-event JSON (opens in https://ui.perfetto.dev)."""
    events = [
        {
            "name": span.name, "ph": "X", "pid": span.pid, "tid": span.pid,
            "ts": (span.start_ns - origin_ns) / 1e3,
            "dur": (span.end_ns - span.start_ns) / 1e3,
            "args": {"id": span.span_id, "parent": span.parent, **(span.args or {})},
        }
        for span in sorted(spans, key=lambda s: (s.start_ns, s.span_id))
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
