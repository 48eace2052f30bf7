"""Integration tests of the full learner (driver-side aggregation path).

These exercise the paper's central claims end to end on small/medium
streams: the approximation guarantee (Definition 2), the communication
orderings, and the Naive-Bayes shared-counter optimization (Sec 5.2).
"""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core import classify
from repro.core.learner import Learner, train_many
from repro.core.model import mean_abs_ratio_error
from repro.stream.aggregate import aggregate_local
from repro.stream.events import batch_ranges


@pytest.fixture(scope="module")
def alarm_runs():
    """One shared training run on ALARM@20K for the assertion tests."""
    gt = networks.ground_truth("alarm")
    res = train_many(
        None,
        gt,
        ["exact", "baseline", "uniform", "nonuniform"],
        m=20_000,
        k=30,
        eps=0.1,
        seed=11,
    )
    return gt, res


class TestExactMLE:
    def test_messages_are_2mn(self, alarm_runs):
        gt, res = alarm_runs
        assert res["exact"].total_messages == 2 * 20_000 * gt.net.n

    def test_counts_match_reference_aggregation(self, alarm_runs):
        gt, res = alarm_runs
        cid, sid, n = aggregate_local(gt, 0, 20_000, k=30, seed=11)
        ref = np.zeros(gt.net.n_counters)
        np.add.at(ref, cid, n)
        np.testing.assert_array_equal(res["exact"].model.values, ref)

    def test_every_event_counted_once_per_variable(self, alarm_runs):
        gt, res = alarm_runs
        v = res["exact"].model.values
        for i in [0, 10, gt.net.n - 1]:
            fam = v[gt.net.fam_offset[i] : gt.net.fam_offset[i + 1]]
            par = v[gt.net.par_offset[i] : gt.net.par_offset[i + 1]]
            assert fam.sum() == 20_000
            assert par.sum() == 20_000


class TestApproximationGuarantee:
    def test_epsilon_guarantee_vs_mle(self, alarm_runs):
        """Definition 2: P_approx / P_MLE within e^{+-eps} — checked on
        1000 joint queries for every approximate algorithm."""
        gt, res = alarm_runs
        Xt, _ = classify.make_tests(gt, 1000, seed=12)
        lp_mle = res["exact"].model.log_prob(Xt)
        for algo in ["baseline", "uniform", "nonuniform"]:
            lp = res[algo].model.log_prob(Xt)
            ratio = np.abs(lp - lp_mle)
            # eps = 0.1; allow the metric's smoothing differences on rare
            # configs by checking the 99th percentile, not the max.
            assert np.quantile(ratio, 0.99) <= 0.1, algo

    def test_estimates_close_to_exact_counts(self, alarm_runs):
        gt, res = alarm_runs
        exact = res["exact"].model.values
        for algo in ["baseline", "uniform", "nonuniform"]:
            est = res[algo].model.values
            big = exact >= 1000
            rel = np.abs(est[big] - exact[big]) / exact[big]
            assert rel.max() < 0.05, algo

    def test_guarantee_holds_at_calibrated_proto_c(self):
        """The experiments' proto_c=0.1 must still satisfy the (eps, delta)
        guarantee empirically (DESIGN.md substitution #5)."""
        gt = networks.ground_truth("alarm")
        res = train_many(
            None,
            gt,
            ["exact", "uniform"],
            m=20_000,
            k=30,
            eps=0.1,
            seed=13,
            proto_c=0.1,
        )
        Xt, _ = classify.make_tests(gt, 500, seed=14)
        err = mean_abs_ratio_error(
            res["uniform"].model.log_prob(Xt), res["exact"].model.log_prob(Xt)
        )
        assert err <= np.expm1(0.1)


class TestCommunication:
    def test_approx_cheaper_than_exact(self, alarm_runs):
        _, res = alarm_runs
        for algo in ["baseline", "uniform", "nonuniform"]:
            assert res[algo].total_messages < res["exact"].total_messages

    def test_uniform_cheaper_than_baseline(self, alarm_runs):
        _, res = alarm_runs
        assert res["uniform"].total_messages < res["baseline"].total_messages

    def test_history_monotone(self, alarm_runs):
        _, res = alarm_runs
        for r in res.values():
            events = [e for e, _ in r.history]
            msgs = [m for _, m in r.history]
            assert events == sorted(events)
            assert msgs == sorted(msgs)
            assert msgs[-1] == r.total_messages

    def test_exact_linear_approx_sublinear(self):
        """The headline: EXACTMLE grows linearly in m, approximate
        algorithms sublinearly (Figure 9's shape)."""
        gt = networks.ground_truth("alarm")
        r1 = train_many(None, gt, ["exact", "uniform"], m=10_000, k=30,
                        eps=0.1, seed=15, proto_c=0.1)
        r2 = train_many(None, gt, ["exact", "uniform"], m=80_000, k=30,
                        eps=0.1, seed=15, proto_c=0.1)
        assert r2["exact"].total_messages == 8 * r1["exact"].total_messages
        assert r2["uniform"].total_messages < 4 * r1["uniform"].total_messages

    def test_more_sites_more_messages(self):
        """Figure 11(a): communication grows with k."""
        gt = networks.ground_truth("alarm")
        msgs = []
        for k in [5, 30, 90]:
            r = train_many(None, gt, ["uniform"], m=20_000, k=k, eps=0.1,
                           seed=16, proto_c=0.1)
            msgs.append(r["uniform"].total_messages)
        assert msgs[0] < msgs[1] < msgs[2]

    def test_larger_eps_fewer_messages(self):
        gt = networks.ground_truth("alarm")
        out = []
        for eps in [0.05, 0.4]:
            r = train_many(None, gt, ["nonuniform"], m=20_000, k=30, eps=eps,
                           seed=17, proto_c=0.1)
            out.append(r["nonuniform"].total_messages)
        assert out[1] < out[0]


class TestNewAlarmHeterogeneity:
    def test_nonuniform_beats_uniform_on_heterogeneous_net(self):
        """Section 6.2 / Figure 11(b): on NEW-ALARM (6 variables widened
        to 20 values) NONUNIFORM's budget split sends fewer messages than
        UNIFORM once counters are in the thinning regime."""
        gt = networks.ground_truth("new-alarm")
        res = train_many(
            None, gt, ["uniform", "nonuniform"], m=300_000, k=30,
            eps=0.1, seed=27, proto_c=0.01,
        )
        u = res["uniform"].total_messages
        nu = res["nonuniform"].total_messages
        assert nu < u
        assert 1 - nu / u > 0.05  # a real gap, not noise


class TestSnapshots:
    def test_snapshot_error_decreases(self):
        gt = networks.ground_truth("alarm")
        res = train_many(None, gt, ["exact"], m=40_000, k=30, eps=0.1,
                         seed=18, collect_snapshots=True)
        Xt, _ = classify.make_tests(gt, 400, seed=19)
        from repro.core.model import CountModel

        lp_true = CountModel.from_cpds(gt.net, gt.cpds).log_prob(Xt)
        errs = []
        for events, vals in res["exact"].snapshots:
            errs.append(
                mean_abs_ratio_error(
                    CountModel(gt.net, vals).log_prob(Xt), lp_true
                )
            )
        assert errs[-1] < errs[0]


class TestNaiveBayesShared:
    def test_shared_counters_save_messages(self):
        """Algorithm 4's single shared parent counter beats per-leaf
        copies (Sec 5.2: 'This is wasteful...')."""
        net = networks.naive_bayes(12, J_root=4, J_leaf=3)
        gt = GroundTruth.random(net, seed=20, alpha=0.5)
        res = train_many(
            None, gt, ["nonuniform", "nb-shared"], m=30_000, k=10,
            eps=0.1, seed=21, proto_c=0.1,
        )
        assert res["nb-shared"].total_messages < res["nonuniform"].total_messages

    def test_shared_model_still_accurate(self):
        net = networks.naive_bayes(12, J_root=4, J_leaf=3)
        gt = GroundTruth.random(net, seed=20, alpha=0.5)
        res = train_many(
            None, gt, ["exact", "nb-shared"], m=30_000, k=10, eps=0.1, seed=22,
        )
        Xt, _ = classify.make_tests(gt, 400, seed=23)
        err = mean_abs_ratio_error(
            res["nb-shared"].model.log_prob(Xt), res["exact"].model.log_prob(Xt)
        )
        assert err <= np.expm1(0.1)

    def test_shared_counter_charged_once_per_increment(self):
        """Sec 5.2: the shared parent counter is one physical counter,
        incremented once per event, so no counter of nb-shared can send
        more messages than it received increments."""
        net = networks.naive_bayes(12, J_root=4, J_leaf=3)
        gt = GroundTruth.random(net, seed=20, alpha=0.5)
        learner = Learner(net, ["nb-shared"], k=10, eps=0.1, seed=21)
        for lo, hi in batch_ranges(20_000, first=1024):
            learner.update(*aggregate_local(gt, lo, hi, k=10, seed=21))
        eng = learner.engines["nb-shared"]
        assert np.all(eng.messages <= learner.ledger.totals[: eng.nc])
        shared = slice(net.par_offset[1], net.par_offset[2])
        assert learner.ledger.totals[shared].sum() == 20_000

    def test_shared_parent_blocks_identical(self):
        net = networks.naive_bayes(6, J_root=3, J_leaf=2)
        gt = GroundTruth.random(net, seed=24)
        res = train_many(None, gt, ["nb-shared"], m=5000, k=5, eps=0.1, seed=25)
        v = res["nb-shared"].model.values
        b1 = v[net.par_offset[1] : net.par_offset[2]]
        for i in range(2, net.n):
            np.testing.assert_array_equal(
                v[net.par_offset[i] : net.par_offset[i + 1]], b1
            )
