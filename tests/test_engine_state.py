"""The batch engine's state is the sequential reference's: the estimate
and the message total are derived from ``(p, r, rep, round_est,
messages)`` and the ledger's ``f``. These tests pin its fixed-seed output
and the invariant the all-counter round check relies on."""
import hashlib

import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core.learner import ALGORITHMS, train_many
from repro.experiments import ALGOS
from tests.engines import batch_engine, feed


def digest(res) -> str:
    """sha256 over every algorithm's message total, message history,
    model values and snapshots (values rounded to 6 decimals)."""
    h = hashlib.sha256()
    for algo, r in res.items():
        h.update(algo.encode())
        h.update(np.int64(r.total_messages).tobytes())
        h.update(np.asarray(r.history, dtype=np.int64).tobytes())
        h.update(np.round(r.model.values, 6).tobytes())
        for events, vals in r.snapshots:
            h.update(np.int64(events).tobytes())
            h.update(np.round(vals, 6).tobytes())
    return h.hexdigest()


class TestGolden:
    """Fixed-seed digests of the engine whose ``p == 1`` rows draw
    nothing from the protocol generator."""

    def test_hepar2_with_snapshots(self):
        res = train_many(
            None, networks.ground_truth("hepar2"), ALGOS, m=20_000, k=7,
            eps=0.1, seed=3, proto_c=0.1, collect_snapshots=True,
        )
        assert digest(res) == (
            "d2952a39e43f1476f6ca58ac302bd52c9436f4cbe63676b73323bbae7704e7c1"
        )

    def test_naive_bayes_all_algorithms(self):
        gt = GroundTruth.random(networks.naive_bayes(12, 4, 3), seed=20, alpha=0.5)
        res = train_many(
            None, gt, list(ALGORITHMS), m=30_000, k=10, eps=0.1, seed=21,
            proto_c=0.1,
        )
        assert digest(res) == (
            "e127bbbbef67e3d65192469d358b6ea5ffeac2d57a4db91a64196efe28b2c042"
        )


@pytest.mark.parametrize("force_p", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimates_stay_below_round_line(seed, force_p):
    """After every update no counter's estimate is at or above twice its
    round estimate, so scanning all counters for round advances finds
    exactly the ones this update pushed over."""
    rng = np.random.default_rng(seed)
    nc, k = 50, 6
    e = batch_engine(rng.uniform(0.01, 0.5, nc), k, seed=seed, proto_c=0.3)
    if force_p:
        e.p[:] = rng.uniform(0.05, 1.0, nc)
    for _ in range(40):
        rows = int(rng.integers(1, nc * k))
        key = rng.choice(nc * k, size=rows, replace=False)  # unique, unsorted
        feed(e, key // k, key % k, rng.integers(1, 60, rows))
        assert np.all(e.estimates() < 2.0 * e.round_est)
    assert np.any(e.p < 1.0)
