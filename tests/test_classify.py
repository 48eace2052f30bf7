"""Tests for Bayesian classification (Section 5.3).

The batched ``classify.predict`` / ``error_rate`` are checked query by
query against ``predict_one``, a per-query oracle that scores one
query's candidates at a time, which is in turn checked against
brute-force enumeration of the full joint.
"""
import itertools

import numpy as np
import pytest

from repro.bayesnet import networks, sampling
from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet
from repro.core import classify
from repro.core.learner import train_many
from repro.core.model import CountModel
from tests.networks_props import exact_counts, joint_log_prob


@pytest.fixture(scope="module")
def vee_gt():
    net = BayesNet("vee", [[], [], [0, 1]], np.array([2, 3, 4]))
    return GroundTruth.random(net, seed=5, alpha=0.4)


def gt_model(gt: GroundTruth) -> CountModel:
    """The ground truth as the model classification scores."""
    return CountModel.from_cpds(gt.net, gt.cpds)


def score_one(model, net: BayesNet, x: np.ndarray, t: int) -> np.ndarray:
    """One query's log score per candidate of ``t``: the factors of ``t``
    and of its children, summed in that order."""
    J = int(net.cards[t])
    cand = np.tile(x, (J, 1))
    cand[:, t] = np.arange(J)
    score = model.log_factor(t, cand[:, t], net.parent_config_index(cand, t))
    for c in net.children[t]:
        score = score + model.log_factor(
            c, cand[:, c], net.parent_config_index(cand, c)
        )
    return score


def predict_one(model, net: BayesNet, x: np.ndarray, t: int) -> int:
    """Argmax_y P[X_t = y, x_rest] under ``model`` for one query."""
    return int(np.argmax(score_one(model, net, x, t)))


def predict_both(model, net: BayesNet, x: np.ndarray, t: int) -> int:
    """The oracle's prediction, after checking that the batched path
    makes the same one for this query alone."""
    want = predict_one(model, net, x, t)
    assert classify.predict(model, net, x[None, :], np.array([t])).tolist() == [want]
    return want


def brute_force_predict(gt: GroundTruth, x: np.ndarray, t: int) -> int:
    """Argmax over the hidden variable of the *full joint* — the
    definitionally correct answer the predictions must match."""
    best, best_lp = -1, -np.inf
    for y in range(int(gt.net.cards[t])):
        z = x.copy()
        z[t] = y
        lp = float(joint_log_prob(gt, z[None, :])[0])
        if lp > best_lp:
            best, best_lp = y, lp
    return best


class TestPredictOne:
    def test_matches_brute_force_ground_truth(self, vee_gt):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = np.array(
                [rng.integers(0, c) for c in vee_gt.net.cards], dtype=np.int64
            )
            t = int(rng.integers(0, 3))
            assert predict_both(gt_model(vee_gt), vee_gt.net, x, t) == brute_force_predict(vee_gt, x, t)

    def test_matches_brute_force_on_chain(self):
        gt = GroundTruth.random(networks.chain(5, J=3), seed=8, alpha=0.4)
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.integers(0, 3, 5).astype(np.int64)
            t = int(rng.integers(0, 5))
            assert predict_both(gt_model(gt), gt.net, x, t) == brute_force_predict(gt, x, t)

    def test_matches_brute_force_with_count_model(self):
        """Markov-blanket argmax == full-joint argmax also for learned
        CountModels (all assignments enumerated)."""
        gt = GroundTruth.random(networks.chain(4, J=2), seed=9)
        X = sampling.sample_events(gt, 0, 4000, seed=10)
        model = CountModel(gt.net, exact_counts(gt.net, X))
        for x in itertools.product(range(2), repeat=4):
            x = np.array(x, dtype=np.int64)
            for t in range(4):
                full = max(
                    range(2),
                    key=lambda y: float(
                        model.log_prob(
                            np.array([np.where(np.arange(4) == t, y, x)])
                        )[0]
                    ),
                )
                assert predict_both(model, gt.net, x, t) == full


class TestMakeTests:
    def test_shapes_and_ranges(self, vee_gt):
        X, targets = classify.make_tests(vee_gt, 200, seed=3)
        assert X.shape == (200, 3)
        assert targets.shape == (200,)
        assert targets.min() >= 0 and targets.max() < 3

    def test_deterministic(self, vee_gt):
        a = classify.make_tests(vee_gt, 100, seed=3)
        b = classify.make_tests(vee_gt, 100, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_disjoint_from_training_stream(self, vee_gt):
        train = sampling.sample_events(vee_gt, 0, 100, seed=3)
        test, _ = classify.make_tests(vee_gt, 100, seed=3)
        assert not np.array_equal(train, test)


class TestErrorRate:
    def test_ground_truth_model_beats_random(self, vee_gt):
        X, targets = classify.make_tests(vee_gt, 400, seed=4)
        err = classify.error_rate(gt_model(vee_gt), vee_gt.net, X, targets)
        # Random guessing over cards (2,3,4) would err ~0.63 on average.
        assert err < 0.5

    def test_error_rate_bounds(self, vee_gt):
        X, targets = classify.make_tests(vee_gt, 50, seed=5)
        err = classify.error_rate(gt_model(vee_gt), vee_gt.net, X, targets)
        assert 0.0 <= err <= 1.0

    def test_learned_model_close_to_ground_truth_classifier(self):
        gt = GroundTruth.random(networks.chain(6, J=3), seed=12, alpha=0.3)
        X = sampling.sample_events(gt, 0, 60_000, seed=13)
        model = CountModel(gt.net, exact_counts(gt.net, X))
        Xt, targets = classify.make_tests(gt, 500, seed=14)
        err_model = classify.error_rate(model, gt.net, Xt, targets)
        err_true = classify.error_rate(gt_model(gt), gt.net, Xt, targets)
        assert abs(err_model - err_true) < 0.05


class TestBatched:
    @pytest.mark.parametrize("name", ["alarm", "hepar2", "link", "munin", "new-alarm"])
    def test_equals_per_query_loop(self, name):
        """Every query's batched scores equal the oracle's bit for bit,
        and so do the predictions, for a learned CountModel and for the
        ground truth as a counter model, on every network."""
        gt = networks.ground_truth(name)
        res = train_many(None, gt, ["nonuniform"], m=3000, k=4, eps=0.1, seed=3, proto_c=0.1)
        Xt, targets = classify.make_tests(gt, 300, seed=4)
        for model in (res["nonuniform"].model, gt_model(gt)):
            grid = classify._scores(model, gt.net, Xt, targets)
            for q in range(300):
                t = int(targets[q])
                want = score_one(model, gt.net, Xt[q], t)
                assert grid[q, : len(want)].tobytes() == want.tobytes()
                assert np.all(grid[q, len(want) :] == -np.inf)
            want = [predict_one(model, gt.net, Xt[q], int(targets[q])) for q in range(300)]
            got = classify.predict(model, gt.net, Xt, targets)
            np.testing.assert_array_equal(got, want)
            truth = Xt[np.arange(300), targets]
            assert classify.error_rate(model, gt.net, Xt, targets) == np.mean(got != truth)

    def test_first_maximum_wins_ties(self):
        """With no counts every candidate scores the same, so each query
        predicts 0; where candidates 1 and 2 tie above 0, it predicts 1.
        Variable 0 has no children, variable 2 two parents."""
        net = BayesNet("ties", [[], [], [1, 3], []], np.array([3, 2, 2, 3]))
        X = np.array([[2, 1, 1, 0], [0, 0, 0, 2], [1, 1, 0, 1]])
        targets = np.array([0, 2, 3])
        empty = CountModel(net, np.zeros(net.n_counters))
        np.testing.assert_array_equal(classify.predict(empty, net, X, targets), [0, 0, 0])
        values = np.zeros(net.n_counters)
        values[net.fam_offset[0] : net.fam_offset[1]] = [1, 5, 5]
        tied = CountModel(net, values)
        got = classify.predict(tied, net, X, targets)
        np.testing.assert_array_equal(got, [1, 0, 0])
        for q in range(3):
            assert got[q] == predict_one(tied, net, X[q], int(targets[q]))
        assert classify.error_rate(tied, net, X, targets) == 2 / 3
