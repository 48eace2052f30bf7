"""Every algorithm checks its error parameter the same way, and the
learner refuses algorithm lists it would silently collapse."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core import budget
from repro.core.learner import Learner, train_many
from repro.distmon.batch import BatchCounterEngine, ExactCounterEngine


@pytest.mark.parametrize("eps", [1.5, 0.0, float("nan")])
def test_naive_bayes_eps_range(eps):
    with pytest.raises(ValueError):
        budget.naive_bayes_eps(networks.naive_bayes(5, 3, 2), eps)


def test_nb_shared_rejects_eps_like_uniform():
    gt = GroundTruth.random(networks.naive_bayes(5, 3, 2), seed=0)
    with pytest.raises(ValueError):
        train_many(None, gt, ["nb-shared"], m=100, k=3, eps=1.5, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_engine_rejects_non_finite_eps(bad):
    with pytest.raises(ValueError):
        BatchCounterEngine(np.array([0.1, bad]), 4, seed=0)


def test_learner_rejects_repeated_algorithms():
    with pytest.raises(ValueError):
        Learner(networks.naive_bayes(5, 3, 2), ["uniform", "uniform"], k=3, eps=0.1, seed=0)


@pytest.mark.parametrize(
    "make",
    [lambda: BatchCounterEngine(np.full(2, 0.1), 2, seed=0), lambda: ExactCounterEngine(2)],
    ids=["batch", "exact"],
)
def test_engines_reject_negative_increments(make):
    """A negative count would lower a true count and, in EXACTMLE, the
    message total; the whole update is refused before any state changes."""
    e = make()
    e.update(np.array([0]), np.array([1]), np.array([4]))
    before = {name: np.copy(v) for name, v in vars(e).items() if isinstance(v, np.ndarray)}
    with pytest.raises(ValueError, match="negative"):
        e.update(np.array([0, 1]), np.array([0, 0]), np.array([5, -3]))
    for name, v in before.items():
        np.testing.assert_array_equal(getattr(e, name), v)
    assert e.total_messages == 4


def test_zero_increments_draw_one_uniform_and_change_nothing():
    """Rows with ``n = 0`` stay legal: each one below ``p = 1`` takes one
    uniform, the ``p = 1`` row none, and none sends a message or moves
    the counter."""
    e = BatchCounterEngine(np.full(2, 0.1), 3, seed=5)
    e.p[1] = 0.25
    ref = BatchCounterEngine(np.full(2, 0.1), 3, seed=5).rng
    e.update(np.array([0, 1, 1]), np.array([2, 0, 1]), np.zeros(3, dtype=np.int64))
    ref.random(2)
    assert e.rng.bit_generator.state == ref.bit_generator.state
    assert e.total_messages == 0 and not e.f.any() and not e.r.any() and not e.rep.any()


@pytest.mark.parametrize("proto_c", [0.0, -1.0, np.nan, np.inf])
def test_engine_rejects_bad_proto_c(proto_c):
    """A non-positive constant would clip every ``p`` to 1e-12 and a NaN
    one would fail inside ``rng.binomial`` after ``f`` had moved."""
    with pytest.raises(ValueError, match="proto_c"):
        BatchCounterEngine(np.full(4, 0.1), 3, seed=0, proto_c=proto_c)


@pytest.mark.parametrize("k", [0, -2])
def test_engine_rejects_no_sites(k):
    with pytest.raises(ValueError, match="k must"):
        BatchCounterEngine(np.full(4, 0.1), k, seed=0)
