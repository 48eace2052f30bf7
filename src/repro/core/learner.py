"""Training orchestration: the distributed stream feeds all algorithms.

Every driver — the batch loop ``train_many`` and the Structured
Streaming ``foreachBatch`` — feeds one :class:`Learner`. Its engines see
the *same* per-micro-batch aggregation ``(counter_id, site, n)`` (as the
paper's simulator does) and differ only in their per-counter error
parameters, looked up in :data:`ALGORITHMS`. The coordinator-side
protocol (estimates, rounds, message tally) runs on the driver —
mirroring the monitoring model's single-coordinator topology.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class TrainResult:
    """Outcome of training one algorithm over ``m`` streamed events."""

    algo: str
    model: CountModel
    total_messages: int
    #: (events processed, cumulative messages) after each micro-batch —
    #: the Figure 9 curve.
    history: list[tuple[int, int]] = field(default_factory=list)
    #: (events processed, counter-value snapshot) per micro-batch when
    #: ``collect_snapshots`` — the Figures 3-8 curves.
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)


class Learner:
    """One counter engine per algorithm, all fed the same micro-batches.

    Engines are built in ``algos`` order, the ``j``-th with protocol
    seed ``seed * 1000 + j``.
    """

    def __init__(
        self,
        net: BayesNet,
        algos: list[str],
        *,
        k: int,
        eps: float,
        seed: int,
        proto_c: float = 1.0,
        collect_snapshots: bool = False,
    ) -> None:
        unknown = [a for a in algos if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; known: {list(ALGORITHMS)}")
        if len(set(algos)) != len(algos):
            raise ValueError(f"repeated algorithms in {algos}")
        self.net = net
        self.collect_snapshots = collect_snapshots
        self.events = 0
        self.ledger = SiteLedger(net.n_counters, k)
        self.engines: dict[str, ExactCounterEngine | BatchCounterEngine] = {}
        for j, algo in enumerate(algos):
            fn = ALGORITHMS[algo].counter_eps
            self.engines[algo] = (
                ExactCounterEngine(self.ledger)
                if fn is None
                else BatchCounterEngine(
                    fn(net, eps), self.ledger, seed=seed * 1000 + j, proto_c=proto_c
                )
            )
        self.results = {algo: TrainResult(algo, None, 0, [(0, 0)]) for algo in algos}  # type: ignore[arg-type]

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Feed one micro-batch of ``(counter_id, site, n)`` rows to the
        ledger, which checks it first, then to every engine. Each event
        increments ``2n`` counters, so the batch holds ``sum(n) / 2n``
        events; an empty batch adds no history point."""
        if not len(cid):
            return
        self.ledger.add(cid, sid, n)
        self.events += int(n.sum()) // (2 * self.net.n)
        for algo, eng in self.engines.items():
            if ALGORITHMS[algo].shared_parents:
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
            res = self.results[algo]
            res.history.append((self.events, eng.total_messages))
            if self.collect_snapshots:
                res.snapshots.append((self.events, self._values(algo)))

    def _values(self, algo: str) -> np.ndarray:
        vals = self.engines[algo].estimates()
        if ALGORITHMS[algo].shared_parents:
            net = self.net
            block = vals[net.par_offset[1] : net.par_offset[2]]
            vals = np.concatenate([vals, np.tile(block, net.n - 2)])
        return vals

    def models(self) -> dict[str, TrainResult]:
        """Every algorithm's current model and message tally."""
        for algo, eng in self.engines.items():
            res = self.results[algo]
            res.model = CountModel(self.net, self._values(algo))
            res.total_messages = eng.total_messages
        return self.results


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
    """Train every algorithm in ``algos`` over the same ``m``-event stream.

    ``algos`` entries are keys of :data:`ALGORITHMS`; ``"nb-shared"``
    (Naive-Bayes Algorithm 4) needs a root-0 Naive-Bayes network. Pass
    ``spark=None`` to use the driver-side reference aggregation (unit
    tests / tiny runs); with a session the whole stream is one Spark job
    (:class:`~repro.stream.aggregate.StreamJob`) whose batches are taken
    in stream order.
    """
    learner = Learner(
        gt.net, algos, k=k, eps=eps, seed=seed, proto_c=proto_c,
        collect_snapshots=collect_snapshots,
    )
    ranges = batch_ranges(m, first=first_batch)
    job = None if spark is None else StreamJob(spark, gt, ranges, k=k, seed=seed)
    for lo, hi in ranges:
        if job is not None:
            batch = aggregate_generated(job, gt, lo, hi, k=k, seed=seed)
        else:
            batch = aggregate_local(gt, lo, hi, k=k, seed=seed)
        learner.update(*batch)
        del batch  # released before the next batch's events are drawn
    return learner.models()
