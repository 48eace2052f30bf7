"""Every algorithm checks its error parameter the same way, and the
learner refuses algorithm lists it would silently collapse."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core import budget
from repro.core.learner import Learner, train_many
from repro.distmon.batch import BatchCounterEngine


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
