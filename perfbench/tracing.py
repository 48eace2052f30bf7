"""Spans and counts at the pipeline's layer boundaries, from outside ``src``.

:func:`instrument` patches the module-level functions and methods each
layer exposes, at the names their callers look up, for the lifetime of
an :class:`contextlib.ExitStack`. Spans (name, start, end, parent) are
kept in memory and written at exit. A layer's self time is its span
minus its child spans. Spark's Python workers import ``repro`` afresh,
so on the Spark path sampling and the kernel run unobserved inside the
``spark.aggregate_generated`` span.

:class:`StreamTap` is not tracing: it is always on, so every call can be
checked (see ``checks``). It costs one sum per micro-batch, plus one
``bincount`` per micro-batch where the workload keeps no EXACTMLE.
"""
from __future__ import annotations

import json
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from time import perf_counter
from unittest import mock

import numpy as np


class Tracer:
    """In-memory spans and counters."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._algos: list[str] = []
        self._engines: dict = {}

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = perf_counter()
            self._open.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self time per span name, over the whole trace or one subtree."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        keep = self._subtree(root) if root is not None else range(len(self.spans))
        out: dict[str, float] = Counter()
        for i in keep:
            name, t0, t1, _ = self.spans[i]
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def _subtree(self, root: int) -> list[int]:
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        return sorted(inside)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def _patch(stack: ExitStack, owner, attr: str, make):
    stack.enter_context(mock.patch.object(owner, attr, make(getattr(owner, attr))))


def instrument(tr: Tracer, stack: ExitStack, *, sites_on_driver: bool) -> None:
    """Record spans and counts at every layer boundary until ``stack`` closes.

    Without ``sites_on_driver`` the site-side layers (sampling, kernel)
    are left alone: Spark pickles them into its workers by value, and the
    workers could not import these wrappers.
    """
    from repro import experiments
    from repro.bayesnet import sampling
    from repro.core import classify, learner, model
    from repro.distmon import batch
    from repro.stream import aggregate

    def wrap(span: str | None = None, after=None):
        """Patch factory: a span around the call, then ``after(result, *args)``."""

        def make(orig):
            def wrapper(*args, **kwargs):
                with tr.span(span) if span else nullcontext():
                    out = orig(*args, **kwargs)
                if after is not None:
                    after(out, *args, **kwargs)
                return out

            return wrapper

        return make

    # core.learner: the engines are created in ``algos`` order, which is
    # how an engine is matched to its algorithm.
    def train_many(orig):
        def wrapper(spark, gt, algos, **kwargs):
            tr._algos = list(algos)
            with tr.span("learner.train_many"):
                out = orig(spark, gt, algos, **kwargs)
            approx = [e for e in tr._engines if isinstance(e, batch.BatchCounterEngine)]
            if approx:
                tr.counts["engine.p_lt1_share"] += float(
                    np.mean([np.mean(e.p < 1.0) for e in approx])
                )
            tr._engines.clear()
            return out

        return wrapper

    _patch(stack, learner, "train_many", train_many)

    def register(out, self, *args, **kwargs):
        tr._engines[self] = tr._algos.pop(0) if tr._algos else "?"

    for cls in (batch.ExactCounterEngine, batch.BatchCounterEngine):
        _patch(stack, cls, "__init__", wrap(after=register))

    def update(orig):
        def wrapper(self, cid, sid, n):
            before = self.total_messages
            with tr.span(f"engine.update.{tr._engines.get(self, '?')}"):
                orig(self, cid, sid, n)
            if self is next(iter(tr._engines), None):  # rows per algorithm
                tr.counts["engine.rows_in"] += len(cid)
            if isinstance(self, batch.BatchCounterEngine):
                tr.counts["engine.approx_msgs"] += self.total_messages - before
            return None

        return wrapper

    for cls in (batch.ExactCounterEngine, batch.BatchCounterEngine):
        _patch(stack, cls, "update", update)

    def advance_round(orig):
        def wrapper(self, adv):
            before = self.total_messages
            orig(self, adv)
            tr.counts["engine.sync_msgs"] += self.total_messages - before
            tr.counts["engine.rounds_advanced"] += len(adv)

        return wrapper

    _patch(stack, batch.BatchCounterEngine, "_advance_round", advance_round)
    _patch(stack, batch.BatchCounterEngine, "estimates", wrap("engine.estimates"))

    # stream.aggregate, at the names ``train_many`` and ``aggregate_local``
    # look up.
    def transported(out, spark, gt, lo, hi, *, rows_per_task=16384, **kwargs):
        tr.counts["spark.tasks"] += -(-(hi - lo) // rows_per_task)
        tr.counts["spark.rows_to_driver"] += len(out[0])

    _patch(stack, learner, "aggregate_local", wrap("aggregate.aggregate_local"))
    _patch(
        stack, learner, "aggregate_generated",
        wrap("spark.aggregate_generated", transported),
    )

    if sites_on_driver:
        def kernel(out, net, X, sites, k):
            tr.counts["aggregate.keys_in"] += 2 * net.n * X.shape[0]
            tr.counts["aggregate.rows_out"] += len(out[0])

        _patch(stack, aggregate, "_agg_kernel", wrap("aggregate.kernel", kernel))

        # bayesnet.sampling: rows are counted for the training stream only,
        # not for the held-out test events evaluation samples.
        def requested(out, gt, lo, hi, **kwargs):
            if tr.inside("learner.train_many"):
                tr.counts["sampling.rows_requested"] += hi - lo

        def generated(out, gt, chunk_id, size, seed):
            if tr.inside("learner.train_many"):
                tr.counts["sampling.rows_generated"] += size

        _patch(stack, aggregate, "sample_events", wrap("sampling.sample_events", requested))
        _patch(stack, aggregate, "sample_sites", wrap("sampling.sample_sites"))
        _patch(stack, sampling, "_sample_chunk", wrap(after=generated))

    # core.model / core.classify
    def queried(out, mdl, net, X_test, targets):
        tr.counts["classify.queries"] += len(X_test)

    _patch(stack, experiments, "evaluate_models", wrap("experiments.evaluate_models"))
    _patch(stack, model.CountModel, "log_prob", wrap("model.log_prob"))
    _patch(stack, classify, "error_rate", wrap("classify.error_rate", queried))


class StreamTap:
    """Observes what ``train_many`` feeds its engines, batch by batch.

    Wraps ``aggregate_local`` and ``aggregate_generated`` at the names
    ``repro.core.learner`` looks up. With ``n_counters`` it also keeps
    running exact counts, snapshotted after every batch: the MLE
    reference for workloads that train no EXACTMLE.
    """

    def __init__(self, stack: ExitStack, n_counters: int | None = None) -> None:
        from repro.core import learner

        self.n_counters = n_counters
        #: Set while tracing, so the tap's own work is a span of its own.
        self.tracer: Tracer | None = None
        self.reset()
        for name in ("aggregate_local", "aggregate_generated"):
            _patch(stack, learner, name, self._wrap)

    def reset(self) -> None:
        self.batches: list[tuple[int, int, int]] = []
        self.first_batch = None
        self.exact_snapshots: list[np.ndarray] = []
        self._counts = np.zeros(self.n_counters or 0)

    def _wrap(self, orig):
        def tapped(*args, **kwargs):
            out = orig(*args, **kwargs)
            with self.tracer.span("bench.tap") if self.tracer else nullcontext():
                lo, hi = args[-2:]  # both paths end their positionals with lo, hi
                cid, _, n = out
                self.batches.append((int(lo), int(hi), int(n.sum())))
                if self.first_batch is None:
                    self.first_batch = out
                if self.n_counters:
                    self._counts += np.bincount(cid, weights=n, minlength=self.n_counters)
                    self.exact_snapshots.append(self._counts.copy())
            return out

        return tapped
