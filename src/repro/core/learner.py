"""Training orchestration: the distributed stream feeds all algorithms.

Every driver — the batch loop ``train_many`` and the Structured
Streaming ``foreachBatch`` — feeds one :class:`Learner`. Its engines see
the *same* per-micro-batch aggregation ``(counter_id, site, n)`` (as the
paper's simulator does) and differ only in their :class:`Spec`: error
parameters (:data:`ALGORITHMS`), protocol constant and seed. The
coordinator-side protocol (estimates, rounds, message tally) runs on the driver —
mirroring the monitoring model's single-coordinator topology.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from pyspark.sql import SparkSession

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet
from repro.core.budget import counter_eps, naive_bayes_eps
from repro.core.model import CountModel
from repro.distmon.batch import BatchCounterEngine, ExactCounterEngine, SiteLedger
from repro.stream.aggregate import StreamJob, aggregate_generated, aggregate_local
from repro.stream.events import batch_ranges


class Algorithm(NamedTuple):
    #: ``(net, eps) ->`` per-counter error parameters of the ledger's first
    #: ``len(eps)`` counters (Algorithm 1's ``epsfnA`` / ``epsfnB``);
    #: ``None`` for exact counters.
    counter_eps: Callable[[BayesNet, float], np.ndarray] | None
    #: Algorithm 4: every leaf's parent counters are one physical counter
    #: (root-0 Naive-Bayes networks only).
    shared_parents: bool = False


ALGORITHMS: dict[str, Algorithm] = {
    "exact": Algorithm(None),
    "baseline": Algorithm(lambda net, eps: counter_eps(net, "baseline", eps)),
    "uniform": Algorithm(lambda net, eps: counter_eps(net, "uniform", eps)),
    "nonuniform": Algorithm(lambda net, eps: counter_eps(net, "nonuniform", eps)),
    "nb-shared": Algorithm(
        lambda net, eps: naive_bayes_eps(net, eps)[: net.par_offset[2]],
        shared_parents=True,
    ),
}


class Spec(NamedTuple):
    """One engine: an algorithm of :data:`ALGORITHMS` with its error
    budget, reporting constant and protocol seed."""

    algo: str
    eps: float
    proto_c: float
    seed: int

    @classmethod
    def of(cls, algos: list[str], *, eps: float, seed: int, proto_c: float) -> list[Spec]:
        """``train_many``'s engines: one spec per algorithm, the ``j``-th
        with protocol seed ``seed * 1000 + j``."""
        if len(set(algos)) != len(algos):
            raise ValueError(f"repeated algorithms in {algos}")
        return [cls(algo, eps, proto_c, seed * 1000 + j) for j, algo in enumerate(algos)]


@dataclass
class TrainResult:
    """Outcome of training one engine over ``m`` streamed events."""

    model: CountModel
    #: (events processed, cumulative messages) after each micro-batch —
    #: the Figure 9 curve.
    history: list[tuple[int, int]]
    #: (events processed, counter-value snapshot) per micro-batch when
    #: ``collect_snapshots`` — the Figures 3-8 curves.
    snapshots: list[tuple[int, np.ndarray]]

    @property
    def total_messages(self) -> int:
        return self.history[-1][1]


class Learner:
    """One counter engine per spec, built in ``specs`` order, all fed the
    same micro-batches over one site ledger: one aggregation of the stream."""

    def __init__(
        self, net: BayesNet, specs: list[Spec], *, k: int, collect_snapshots: bool = False
    ) -> None:
        unknown = [s.algo for s in specs if s.algo not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; known: {list(ALGORITHMS)}")
        self.net = net
        self.collect_snapshots = collect_snapshots
        self.events = 0
        self.ledger = SiteLedger(net.n_counters, k)
        self.engines: dict[Spec, ExactCounterEngine | BatchCounterEngine] = {}
        for s in specs:
            fn = ALGORITHMS[s.algo].counter_eps
            self.engines[s] = (
                ExactCounterEngine(self.ledger)
                if fn is None
                else BatchCounterEngine(
                    fn(net, s.eps), self.ledger, seed=s.seed, proto_c=s.proto_c
                )
            )
        self.history: dict[Spec, list[tuple[int, int]]] = {s: [(0, 0)] for s in specs}
        self.snapshots: dict[Spec, list[tuple[int, np.ndarray]]] = {s: [] for s in specs}

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Feed one micro-batch of ``(counter_id, site, n)`` rows to the
        ledger, which checks it first, then to every engine. Each event
        increments ``2n`` counters, so the batch holds ``sum(n) / 2n``
        events; an empty batch adds no history point."""
        if not len(cid):
            return
        self.ledger.add(cid, sid, n)
        self.events += int(n.sum()) // (2 * self.net.n)
        for s, eng in self.engines.items():
            if ALGORITHMS[s.algo].shared_parents:
                # Algorithm 4 (Sec 5.2): every leaf's parent counters track
                # the same event X_0 = x_0, and the physical counter (leaf
                # 1's block) is incremented once per event. Leaves
                # 2..n-1's rows repeat those increments, so they are
                # dropped, not summed; the engine runs only the counters
                # before them.
                own = cid < eng.nc
                eng.update(cid[own], sid[own], n[own])
            else:
                eng.update(cid, sid, n)
            self.history[s].append((self.events, eng.total_messages))
            if self.collect_snapshots:
                self.snapshots[s].append((self.events, self._values(s)))

    def _values(self, s: Spec) -> np.ndarray:
        vals = self.engines[s].estimates()
        if ALGORITHMS[s.algo].shared_parents:
            net = self.net
            block = vals[net.par_offset[1] : net.par_offset[2]]
            vals = np.concatenate([vals, np.tile(block, net.n - 2)])
        return vals

    def models(self) -> dict[Spec, TrainResult]:
        """Every engine's current model and message history."""
        return {s: TrainResult(CountModel(self.net, self._values(s)), self.history[s],
                               self.snapshots[s]) for s in self.engines}

    def run(self, spark: SparkSession | None, gt: GroundTruth, *, m: int, seed: int,
            first_batch: int = 1024) -> dict[Spec, TrainResult]:
        """Feed every engine the ``m``-event stream of ``gt`` (stream seed
        ``seed``), aggregated once per micro-batch: on the driver with
        ``spark=None``, else by one :class:`~repro.stream.aggregate.StreamJob`
        whose batches are taken in stream order."""
        k = self.ledger.k
        ranges = batch_ranges(m, first=first_batch)
        job = None if spark is None else StreamJob(spark, gt, ranges, k=k, seed=seed)
        for lo, hi in ranges:
            if job is not None:
                batch = aggregate_generated(job, gt, lo, hi, k=k, seed=seed)
            else:
                batch = aggregate_local(gt, lo, hi, k=k, seed=seed)
            self.update(*batch)
            del batch  # released before the next batch's events are drawn
        return self.models()


def train_many(
    spark: SparkSession | None,
    gt: GroundTruth,
    algos: list[str],
    *,
    m: int,
    k: int,
    eps: float,
    seed: int,
    first_batch: int = 1024,
    collect_snapshots: bool = False,
    proto_c: float = 1.0,
) -> dict[str, TrainResult]:
    """Train every algorithm in ``algos`` over the same ``m``-event stream
    (:meth:`Learner.run` over :meth:`Spec.of`'s specs), keyed by algorithm.

    ``algos`` entries are keys of :data:`ALGORITHMS`; ``"nb-shared"``
    (Naive-Bayes Algorithm 4) needs a root-0 Naive-Bayes network.
    """
    specs = Spec.of(algos, eps=eps, seed=seed, proto_c=proto_c)
    learner = Learner(gt.net, specs, k=k, collect_snapshots=collect_snapshots)
    res = learner.run(spark, gt, m=m, seed=seed, first_batch=first_batch)
    return {s.algo: r for s, r in res.items()}
