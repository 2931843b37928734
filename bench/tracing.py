"""Spans around the public functions of slotwalks, recorded from outside the package.

Each wrapped function records a span (name, start, end, parent, step id).
Spans stay in memory and are written out once, when the run ends.

A wrapper only sees calls that look the name up where it was installed.
`slotwalks.train` imports `encode` and `total_loss` into its own namespace,
`slotwalks.walks` calls its own `pwp_target` and `adjacency`, and
`slotwalks.infer` imports `encode`, `adjacency`, `kmeans`, `assign_classes`
and `ari_fg`, so each name is patched in every namespace that calls it.
Modules are taken from sys.modules: `import slotwalks.train` binds the
`train` function that the package re-exports, not the module.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass

from report import self_time, union_length

# span name -> the namespaces that look the function up when it is called;
# the attribute is the last part of the span name
WRAPPED = {
    "slots.encode": ("slotwalks.train", "slotwalks.infer"),
    "walks.total_loss": ("slotwalks.train",),
    "walks.wpw_loss": ("slotwalks.walks",),
    "walks.pwp_loss": ("slotwalks.walks",),
    "walks.pwp_target": ("slotwalks.walks",),
    "walks.adjacency": ("slotwalks.walks", "slotwalks.infer"),
    "autodiff.backward": ("slotwalks.autodiff",),
    "train.clip_grad_norm": ("slotwalks.train",),
    "train.adamw_step": ("slotwalks.train",),
    "train.save_checkpoint": ("slotwalks.train",),
    "train.load_checkpoint": ("slotwalks.train",),
    "data.generate_scene": ("slotwalks.data",),
    "data.write_feature_file": ("slotwalks.data",),
    "data.read_feature_file": ("slotwalks.data",),
    "infer.slot_masks": ("slotwalks.infer",),
    "infer.semantic_segment": ("slotwalks.infer",),
    "metrics.kmeans": ("slotwalks.infer",),
    "metrics.assign_classes": ("slotwalks.infer",),
    "metrics.ari_fg": ("slotwalks.infer",),
}

# (metric, span, statistic); "step" metrics divide the timed phase's total by
# its units of work, "call" metrics average over every call in the run
LAYER_METRICS = (
    ("autodiff.backward.ms_per_step", "autodiff.backward", "step"),
    ("slots.encode.ms_per_step", "slots.encode", "step"),
    ("walks.wpw_loss.ms_per_step", "walks.wpw_loss", "step"),
    ("walks.pwp_loss.self_ms_per_step", "walks.pwp_loss", "self_step"),
    ("walks.pwp_target.ms_per_step", "walks.pwp_target", "step"),
    ("walks.total_loss.self_ms_per_step", "walks.total_loss", "self_step"),
    ("train.clip_grad_norm.ms_per_step", "train.clip_grad_norm", "step"),
    ("train.adamw_step.ms_per_step", "train.adamw_step", "step"),
    ("train.save_checkpoint.ms", "train.save_checkpoint", "call"),
    ("train.load_checkpoint.ms", "train.load_checkpoint", "call"),
    ("data.generate_scene.ms_per_scene", "data.generate_scene", "call"),
    ("data.write_feature_file.ms_per_scene", "data.write_feature_file", "call"),
    ("data.read_feature_file.ms_per_scene", "data.read_feature_file", "call"),
    ("infer.slot_masks.ms_per_scene", "infer.slot_masks", "call"),
    ("infer.semantic_segment.self_ms", "infer.semantic_segment", "self_call"),
    ("metrics.kmeans.ms", "metrics.kmeans", "call"),
    ("metrics.assign_classes.ms", "metrics.assign_classes", "call"),
    ("metrics.ari_fg.ms_per_scene", "metrics.ari_fg", "call"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    step: int
    phase: str
    failed: bool = False


def count_nodes(loss) -> int:
    """Every graph node reachable from the loss through its parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class StepClock:
    """Timestamps training steps through lr_at, which train() calls once per step.

    The interval between two marks of one train() call is one whole loop
    iteration. Installed in every run, traced or not; it costs one clock
    read per step.
    """

    def __init__(self):
        self.episodes: list[list[float]] = []
        self.tracer: Tracer | None = None
        self._orig = None

    def install(self) -> None:
        mod = sys.modules["slotwalks.train"]
        self._orig = mod.lr_at
        mod.lr_at = self._mark

    def remove(self) -> None:
        sys.modules["slotwalks.train"].lr_at = self._orig

    def start_episode(self) -> list[float]:
        self.episodes.append([])
        return self.episodes[-1]

    def _mark(self, step, cfg):
        self.episodes[-1].append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.step += 1
        return self._orig(step, cfg)


def step_ms(marks: list[float]) -> list[float]:
    return [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]


class Tracer:
    """Records spans while installed; `phase` and `step` tag each new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.node_counts: list[int] = []
        self.phase = "setup"
        self.step = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.step, self.phase)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, namespaces in WRAPPED.items():
            attr = name.rsplit(".", 1)[1]
            for mod_name in namespaces:
                mod = sys.modules[mod_name]
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig)
                if name == "autodiff.backward":
                    wrapped = self._counting(wrapped)
                self._patches.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def _counting(self, backward):
        # the count walks the graph before the backward span opens, so it
        # adds to the tracing overhead but not to the backward time
        def counted(loss):
            self.node_counts.append(count_nodes(loss))
            return backward(loss)

        return counted

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(tracer: Tracer, timed_units: int, step_marks: list[list[float]]) -> dict[str, float]:
    """Per-layer numbers derived from the spans.

    timed_units is the work done in the traced timed phase: training steps
    on the train workloads, evaluated scenes on eval-holdout. step_marks
    are the StepClock marks of the traced timed episodes.
    """
    spans = tracer.spans
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))

    # name -> [calls, total, self, timed total, timed self], in seconds
    agg: dict[str, list] = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        own = self_time(s.start, s.end, children.get(i, ()))
        a = agg.setdefault(s.name, [0, 0.0, 0.0, 0.0, 0.0])
        a[0] += 1
        a[1] += dur
        a[2] += own
        if s.phase == "timed":
            a[3] += dur
            a[4] += own

    out: dict[str, float] = {}
    nodes = sorted(tracer.node_counts)
    out["autodiff.nodes_per_step"] = float(nodes[len(nodes) // 2]) if nodes else 0.0
    units = max(timed_units, 1)
    for metric, name, kind in LAYER_METRICS:
        calls, total, own, timed, timed_own = agg.get(name, (0, 0.0, 0.0, 0.0, 0.0))
        seconds = {
            "step": timed / units,
            "self_step": timed_own / units,
            "call": total / max(calls, 1),
            "self_call": own / max(calls, 1),
        }[kind]
        out[metric] = 1000.0 * seconds
        out[f"{name}.calls"] = float(calls)

    roots = sorted((s.start, s.end) for s in spans if s.parent < 0)
    starts = [r[0] for r in roots]
    step_self = []
    for marks in step_marks:
        for a, b in zip(marks, marks[1:]):
            # roots never overlap, so at most the one before `a` can reach into the step
            lo = max(bisect.bisect_left(starts, a) - 1, 0)
            hi = bisect.bisect_right(starts, b)
            step_self.append(1000.0 * ((b - a) - union_length(roots[lo:hi], a, b)))
    out["train.step.self_ms"] = sum(step_self) / len(step_self) if step_self else 0.0
    out["train.step.calls"] = float(len(step_self))
    out["layers_failed"] = float(sum(1 for s in spans if s.failed))
    return out


def layer_failures(tracer: Tracer) -> dict[str, int]:
    """`<span>.failed` for every span name that raised at least once."""
    failed: dict[str, int] = {}
    for s in tracer.spans:
        if s.failed:
            failed[f"{s.name}.failed"] = failed.get(f"{s.name}.failed", 0) + 1
    return failed
