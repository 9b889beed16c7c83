"""Layer clock plus the timing subclasses and proxies the traced passes use.

A traced pass hands the program the same inputs as an untraced one, but the
objects at each layer boundary are swapped for the thin wrappers below:

* :class:`QuadrupletProbe` / :class:`ComparisonProbe` wrap an oracle (layer
  ``oracle``); untraced passes use them too, with no clock, so the client
  side can mark each request's submit and answer on a :class:`Timeline`;
* :class:`TimedSpace` is a :class:`~repro.metric.space.PointCloudSpace`
  subclass (layer ``metric``);
* :class:`TimedAdversarialNoise` / :class:`TimedProbabilisticNoise` subclass
  the noise models (layer ``noise``);
* :class:`TimedStore` subclasses :class:`~repro.store.warehouse.AnswerStore`
  (layers ``store.lookup``, ``store.append``, ``store.flush``).

Each wrapper reports to a :class:`LayerClock`, which keeps a span stack and
derives every layer's self time as its inclusive time minus the time of the
layer calls nested inside it.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

from repro.metric.space import PointCloudSpace
from repro.oracles.base import BaseComparisonOracle, BaseQuadrupletOracle
from repro.oracles.noise import AdversarialNoise, ProbabilisticNoise
from repro.store.warehouse import AnswerStore

#: Individual spans kept per layer; calls beyond this only feed the aggregate.
SPAN_LIMIT = 10_000


class LayerClock:
    """Per-layer call counts, inclusive and self time, and a bounded span log.

    Spans nest through a stack: a layer entered while another is open is its
    child, and the child's duration is subtracted from the parent's self time.
    Re-entering the layer that is already on top (a space method calling
    another space method) is folded into the open span.  Counters and timers
    only record while :attr:`active` is true, so set-up and output checks
    never pollute the timed phase.
    """

    def __init__(self):
        self.active = False
        self.calls: dict = {}
        self.inclusive: dict = {}
        self.self_time: dict = {}
        self.counts: dict = {}
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0

    def add(self, name: str, amount=1) -> None:
        """Add *amount* to the counter *name* (only while active)."""
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, layer: str):
        """Open a span of *layer*; returns the frame to pass to :meth:`end`."""
        parent = self._stack[-1] if self._stack else None
        frame = [layer, self._next_id, None if parent is None else parent[1], 0.0, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame) -> None:
        """Close *frame*, folding its duration into its layer and its parent."""
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        layer, span_id, parent_id, child, start = frame
        duration = end - start
        calls = self.calls.get(layer, 0) + 1
        self.calls[layer] = calls
        self.inclusive[layer] = self.inclusive.get(layer, 0.0) + duration
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if calls <= SPAN_LIMIT:
            self.spans.append((span_id, parent_id, layer, start, end))

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of *layer*."""
        if not self.active or (self._stack and self._stack[-1][0] == layer):
            return fn(*args, **kwargs)
        frame = self.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(frame)

    def write_jsonl(self, path, header: dict, origin: float) -> None:
        """Write the header, every kept span and the per-layer aggregates."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"kind": "header", **header}) + "\n")
            for span_id, parent_id, layer, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "parent": parent_id,
                            "layer": layer,
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                        }
                    )
                    + "\n"
                )
            for layer in sorted(self.calls):
                out.write(
                    json.dumps(
                        {
                            "kind": "layer",
                            "layer": layer,
                            "calls": self.calls[layer],
                            "spans_kept": min(self.calls[layer], SPAN_LIMIT),
                            "inclusive_s": self.inclusive[layer],
                            "self_s": self.self_time[layer],
                        }
                    )
                    + "\n"
                )


class Timeline:
    """Timestamps of the events of one timed phase, in the order they happen.

    A pass marks the start and end of its timed phase, of every job and of
    every request the client makes (an oracle call or, in crowd-serve, one
    session query).  Passes over the same inputs make the same requests in
    the same order, so mark *k* of one pass and mark *k* of another bracket
    the same work; ``run.timeline_estimate`` combines the passes gap by gap.
    """

    def __init__(self):
        self.marks: list = []
        #: (start mark, end mark) of each request, in order of completion.
        self.requests: list = []

    def mark(self) -> int:
        """Record the time now; returns the mark's index."""
        self.marks.append(perf_counter())
        return len(self.marks) - 1

    def request(self, start: int) -> None:
        """Close the request opened by mark *start*."""
        self.requests.append((start, self.mark()))


class _ProbeMixin:
    """Shared state of the oracle probes: request marks and batch sizes.

    With a :class:`Timeline` the probe marks the start and end of every
    request the algorithm makes; ``sizes`` holds each request's query count.
    With a clock attached, the request also runs inside an ``oracle`` span.
    """

    def _setup_probe(self, inner, timeline, clock):
        self.inner = inner
        self.counter = inner.counter
        self.timeline = timeline
        self.clock = clock
        self.sizes: list = []

    def __len__(self) -> int:
        return len(self.inner)

    def _timed(self, fn, *args):
        start = None if self.timeline is None else self.timeline.mark()
        if self.clock is None:
            out = fn(*args)
        else:
            out = self.clock.call("oracle", fn, *args)
        if start is not None:
            self.timeline.request(start)
        # The answer array's length is the request's query count, for free.
        m = getattr(out, "size", 1)
        self.sizes.append(m)
        if self.clock is not None:
            self.clock.add("oracle.queries", m)
        return out


class QuadrupletProbe(_ProbeMixin, BaseQuadrupletOracle):
    """Quadruplet oracle proxy marking every request the algorithm makes."""

    def __init__(self, inner, timeline=None, clock=None):
        self._setup_probe(inner, timeline, clock)

    def compare(self, a, b, c, d):
        return self._timed(self.inner.compare, a, b, c, d)

    def compare_batch(self, a, b, c, d):
        return self._timed(self.inner.compare_batch, a, b, c, d)


class ComparisonProbe(_ProbeMixin, BaseComparisonOracle):
    """Comparison oracle proxy counting every request made of the backend."""

    def __init__(self, inner, timeline=None, clock=None):
        self._setup_probe(inner, timeline, clock)

    def compare(self, i, j):
        return self._timed(self.inner.compare, i, j)

    def compare_batch(self, i, j):
        return self._timed(self.inner.compare_batch, i, j)


class TimedSpace(PointCloudSpace):
    """PointCloudSpace whose public distance methods run in ``metric`` spans."""

    def __init__(self, points, clock: LayerClock, **kwargs):
        super().__init__(points, **kwargs)
        self.clock = clock

    def distance(self, i, j):
        self.clock.add("metric.pairs")
        return self.clock.call("metric", super().distance, i, j)

    def pair_distances(self, i, j):
        self.clock.add("metric.pairs", int(np.size(i)))
        return self.clock.call("metric", super().pair_distances, i, j)

    def distances_from(self, i, candidates=None):
        self.clock.add("metric.pairs", len(self) if candidates is None else len(candidates))
        return self.clock.call("metric", super().distances_from, i, candidates)


class _TimedNoise:
    """Mixin timing a noise model's answers in ``noise`` spans."""

    clock: LayerClock

    def answer(self, left, right, key):
        self.clock.add("noise.keys")
        return self.clock.call("noise", super().answer, left, right, key)

    def answer_batch(self, left, right, keys):
        self.clock.add("noise.keys", len(keys))
        return self.clock.call("noise", super().answer_batch, left, right, keys)


class TimedAdversarialNoise(_TimedNoise, AdversarialNoise):
    def __init__(self, clock: LayerClock, **kwargs):
        super().__init__(**kwargs)
        self.clock = clock


class TimedProbabilisticNoise(_TimedNoise, ProbabilisticNoise):
    def __init__(self, clock: LayerClock, **kwargs):
        super().__init__(**kwargs)
        self.clock = clock


class TimedStore(AnswerStore):
    """AnswerStore whose read, append and flush calls run in ``store.*`` spans."""

    def __init__(self, directory, clock: LayerClock, **kwargs):
        self.clock = clock
        super().__init__(directory, **kwargs)

    def lookup_batch(self, codes):
        hits, answers = self.clock.call("store.lookup", super().lookup_batch, codes)
        self.clock.add("store.lookups", len(codes))
        self.clock.add("store.hits", int(np.count_nonzero(hits)))
        return hits, answers

    def add_votes(self, codes, answers):
        return self.clock.call("store.append", super().add_votes, codes, answers)

    def flush(self):
        return self.clock.call("store.flush", super().flush)
