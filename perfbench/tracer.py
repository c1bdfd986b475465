"""In-memory spans around the public functions of the cfisac modules.

Wrappers are installed from outside the program: for each trace point the
original function object is looked up once, then every loaded ``cfisac``
module attribute that *is* that object is replaced by the wrapper. That
covers the defining module and every caller that imported the name
directly (``harness`` imports ``complex_normal`` and friends by name, ``cli``
imports ``run_experiment`` by name), and still finds the callers after a
refactor moves code between modules. Leaving the ``installed`` context
restores every original, so one process can alternate traced and untraced
arms.

A span is (name, start, end, parent, drop): ``parent`` is the index of the
enclosing span (-1 at top level) and ``drop`` the sequence number of the
enclosing ``run_drop`` call (-1 outside a drop). Self time is the span's
duration minus the durations of its direct children; the code is single
threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

DROP_SPAN = "harness.run_drop"
C16 = 16  # bytes per complex128 entry


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    drop: int
    counts: Optional[dict] = None
    result: object = None
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- work counters, computed from the real call shapes ------------------------
# flops count a complex multiply-add as 8 real operations; bytes are the
# compulsory traffic (every input read once, the output written once), so
# both are computed, not measured.


def _complex_normal_counts(args, kwargs):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    return {"draws": math.prod(shape)}


def _cross_gains_counts(args, kwargs):
    h, w_amp = args[0], args[1]
    f, k, m, n = h.shape
    return {"flop": 8 * f * k * k * m * n, "bytes": h.nbytes + w_amp.nbytes + f * k * k * C16}


def _sense_leakage_counts(args, kwargs):
    h, w0_amp = args[0], args[1]
    f, k, m, n = h.shape
    return {"flop": 8 * f * k * m * n + 4 * f * k * m, "bytes": h.nbytes + w0_amp.nbytes + f * k * 8}


def _echo_mix_counts(args, kwargs):
    a_rx, ab, c = args[0], args[1], args[2]
    f, t, r, p = ab.shape
    n = a_rx.shape[2]
    return {
        "flop": 8 * f * t * r * (p + n),
        "bytes": a_rx.nbytes + ab.nbytes + c.nbytes + f * r * n * C16,
    }


@dataclass(frozen=True)
class TracePoint:
    name: str  # span name, "<module>.<function>"
    module: str  # module whose attribute is the original function
    attr: str
    counter: Optional[Callable] = None


RUN_DROP = TracePoint(DROP_SPAN, "cfisac.harness", "run_drop")

ALL_POINTS = (
    RUN_DROP,
    TracePoint("harness.run_experiment", "cfisac.harness", "run_experiment"),
    TracePoint("harness.ue_ap_gains", "cfisac.harness", "ue_ap_gains"),
    TracePoint("deployment.generate_layout", "cfisac.deployment", "generate_layout"),
    TracePoint("deployment.build_scan_schedule", "cfisac.deployment", "build_scan_schedule"),
    TracePoint("clustering.build_assignment", "cfisac.clustering", "build_assignment"),
    TracePoint(
        "channel.complex_normal", "cfisac.channel", "complex_normal", _complex_normal_counts
    ),
    TracePoint("channel.steering_bank", "cfisac.channel", "steering_bank"),
    TracePoint("channel.psd_sqrt", "cfisac.channel", "psd_sqrt"),
    TracePoint("channel.view_angle_kernel", "cfisac.channel", "view_angle_kernel"),
    TracePoint("kernels.cross_gains", "cfisac.kernels", "cross_gains", _cross_gains_counts),
    TracePoint("kernels.sense_leakage", "cfisac.kernels", "sense_leakage", _sense_leakage_counts),
    TracePoint("kernels.echo_mix", "cfisac.kernels", "echo_mix", _echo_mix_counts),
    TracePoint("metrics.write_samples_csv", "cfisac.metrics", "write_samples_csv"),
    TracePoint("metrics.write_cdf_csv", "cfisac.metrics", "write_cdf_csv"),
    TracePoint("metrics.empirical_cdf", "cfisac.metrics", "empirical_cdf"),
)


@dataclass
class Recorder:
    """Spans of one arm, kept in memory until the benchmark writes them out."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _drop: int = -1
    n_drops: int = 0

    def wrap(self, point: TracePoint, fn: Callable) -> Callable:
        is_drop = point.name == DROP_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_drop:
                self._drop = self.n_drops
                self.n_drops += 1
            span = Span(point.name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._drop)
            if point.counter is not None:
                span.counts = point.counter(args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if is_drop:
                    self._drop = -1
            if is_drop:
                span.result = result  # the benchmark checks it, then drops it
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, points):
        """Patch every cfisac namespace that holds a traced function."""
        saved = []
        try:
            for point in points:
                original = getattr(importlib.import_module(point.module), point.attr)
                wrapper = self.wrap(point, original)
                for name, module in list(sys.modules.items()):
                    if name != "cfisac" and not name.startswith("cfisac."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def drops(self) -> list[Span]:
        return [s for s in self.spans if s.name == DROP_SPAN]
