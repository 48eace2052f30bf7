"""Every algorithm checks its error parameter the same way, the
learner refuses algorithm lists it would silently collapse, and a batch
the site ledger refuses changes nothing."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core import budget
from repro.core.learner import Learner, train_many
from repro.distmon.batch import (
    SITE_COUNT_MAX,
    BatchCounterEngine,
    ExactCounterEngine,
    SiteLedger,
)
from repro.stream.aggregate import aggregate_local
from tests.engines import batch_engine, feed, force_p, state


@pytest.mark.parametrize("eps", [1.5, 0.0, float("nan")])
def test_naive_bayes_eps_range(eps):
    with pytest.raises(ValueError):
        budget.naive_bayes_eps(networks.naive_bayes(5, 3, 2), eps)


def test_nb_shared_rejects_network_without_leaf():
    """Algorithm 4 shares the leaves' parent counters; with no leaf the
    run is refused before training, not after it."""
    gt = GroundTruth.random(networks.naive_bayes(1, 3, 2), seed=0)
    with pytest.raises(ValueError, match="leaf"):
        train_many(None, gt, ["exact", "nb-shared"], m=2000, k=3, eps=0.1, seed=1)


def test_nb_shared_rejects_eps_like_uniform():
    gt = GroundTruth.random(networks.naive_bayes(5, 3, 2), seed=0)
    with pytest.raises(ValueError):
        train_many(None, gt, ["nb-shared"], m=100, k=3, eps=1.5, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_engine_rejects_non_finite_eps(bad):
    with pytest.raises(ValueError):
        batch_engine(np.array([0.1, bad]), 4, seed=0)


def test_learner_rejects_repeated_algorithms():
    with pytest.raises(ValueError):
        Learner(networks.naive_bayes(5, 3, 2), ["uniform", "uniform"], k=3, eps=0.1, seed=0)


def learner_state(learner: Learner):
    """Everything a batch moves: events, histories, ledger and engines."""
    histories = {a: list(r.history) for a, r in learner.results.items()}
    return learner.events, histories, state(learner.ledger, *learner.engines.values())


@pytest.mark.parametrize(
    "make",
    [
        lambda: batch_engine(np.full(2, 0.1), 2, seed=0),
        lambda: ExactCounterEngine(SiteLedger(2, 2)),
    ],
    ids=["batch", "exact"],
)
def test_engines_reject_negative_increments(make):
    """A negative count would lower a true count and, in EXACTMLE, the
    message total; the whole update is refused before any state changes."""
    e = make()
    feed(e, np.array([0]), np.array([1]), np.array([4]))
    before = state(e, e.ledger)
    with pytest.raises(ValueError, match="negative"):
        feed(e, np.array([0, 1]), np.array([0, 0]), np.array([5, -3]))
    assert state(e, e.ledger) == before
    assert e.total_messages == 4


@pytest.mark.parametrize(
    "cid, sid, n",
    [
        ([0, 1, 1], [0, 1, 1], [3, 2, 2]),  # duplicate pair
        ([0, 1, 99], [0, 1, 0], [3, 2, 2]),  # counter id past n_counters
        ([0, 1, 2], [0, 1, 2], [3, 2, 2]),  # site id past k
        ([0, 1, 2], [0, 1, 0], [3, 2, -1]),  # negative count
        ([0, 1, 2], [0, 1, 0], [3, 2, SITE_COUNT_MAX]),  # past SITE_COUNT_MAX
    ],
    ids=["duplicate", "counter-range", "site-range", "negative", "site-count-max"],
)
def test_rejected_batch_changes_nothing(cid, sid, n):
    """The ledger checks the whole batch before the learner, its ledger or
    any engine moves; EXACTMLE does not count a batch another engine
    would refuse."""
    gt = GroundTruth.random(networks.chain(3), seed=1)
    algos = ["exact", "baseline", "uniform"]
    learner = Learner(gt.net, algos, k=2, eps=0.1, seed=2, proto_c=0.1)
    for lo, hi in [(0, 300), (300, 900)]:
        learner.update(*aggregate_local(gt, lo, hi, k=2, seed=3))
    assert learner.ledger.f[2, 0] > 0 and np.any(learner.engines["uniform"].p < 1.0)
    before = learner_state(learner)
    with pytest.raises(ValueError):
        learner.update(np.array(cid), np.array(sid), np.array(n, dtype=np.int64))
    assert learner_state(learner) == before


@pytest.mark.parametrize("adds", [0, 2])
@pytest.mark.parametrize(
    "make",
    [lambda ledger: BatchCounterEngine(np.full(2, 0.1), ledger, seed=0), ExactCounterEngine],
    ids=["batch", "exact"],
)
def test_engine_update_follows_exactly_one_add(make, adds):
    """An engine takes each batch its ledger adds once: an update with no
    add since its last one, or after two, raises."""
    ledger = SiteLedger(2, 2)
    e = make(ledger)
    feed(e, np.array([0]), np.array([1]), np.array([4]))
    for _ in range(adds):
        ledger.add(np.array([1]), np.array([0]), np.array([2]))
    with pytest.raises(ValueError, match="exactly one"):
        e.update(np.array([1]), np.array([0]), np.array([2]))


def test_zero_increments_draw_one_uniform_and_change_nothing():
    """Rows with ``n = 0`` stay legal: each one below ``p = 1`` takes one
    uniform, the ``p = 1`` row none, and none sends a message or moves
    the counter."""
    e = batch_engine(np.full(2, 0.1), 3, seed=5)
    force_p(e, [1.0, 0.25])
    ref = batch_engine(np.full(2, 0.1), 3, seed=5).rng
    feed(e, np.array([0, 1, 1]), np.array([2, 0, 1]), np.zeros(3, dtype=np.int64))
    ref.random(2)
    assert e.rng.bit_generator.state == ref.bit_generator.state
    assert e.total_messages == 0 and not e.ledger.f.any() and not e.r.any() and not e.rep.any()


@pytest.mark.parametrize("proto_c", [0.0, -1.0, np.nan, np.inf])
def test_engine_rejects_bad_proto_c(proto_c):
    """A non-positive constant would clip every ``p`` to 1e-12 and a NaN
    one would fail inside ``rng.binomial`` after ``f`` had moved."""
    with pytest.raises(ValueError, match="proto_c"):
        batch_engine(np.full(4, 0.1), 3, seed=0, proto_c=proto_c)


@pytest.mark.parametrize("k", [0, -2])
def test_engine_rejects_no_sites(k):
    """The engines' sites are their ledger's."""
    with pytest.raises(ValueError, match="k must"):
        batch_engine(np.full(4, 0.1), k, seed=0)
