"""Cross-network invariants: every structural and pipeline property that
must hold on all four paper networks (and NEW-ALARM)."""
import numpy as np
import pytest

from repro.bayesnet import networks, sampling
from repro.core.budget import counter_eps, per_variable_eps
from repro.core.model import CountModel
from repro.stream.aggregate import aggregate_local
from tests.networks_props import min_conditional

ALL_NETS = ["alarm", "hepar2", "link", "munin", "new-alarm"]
SMALL = 600  # events for the sampling-based invariants on big nets


@pytest.mark.parametrize("name", ALL_NETS)
class TestStructureInvariants:
    def test_counter_blocks_partition_id_space(self, name):
        net = networks.make(name)
        sizes = (net.cards * net.K).sum() + net.K.sum()
        assert net.n_counters == sizes
        assert net.fam_offset[0] == 0
        assert net.par_offset[-1] == net.n_counters

    def test_topo_order_valid(self, name):
        net = networks.make(name)
        pos = np.empty(net.n, dtype=int)
        pos[net.topo] = np.arange(net.n)
        assert all(pos[p] < pos[j] for j, ps in enumerate(net.parents) for p in ps)

    def test_children_inverse_of_parents(self, name):
        net = networks.make(name)
        for p in range(0, net.n, max(1, net.n // 7)):
            for c in net.children[p]:
                assert p in net.parents[c]

    def test_parent_config_index_bounds(self, name):
        gt = networks.ground_truth(name)
        X = sampling.sample_events(gt, 0, 50, seed=1)
        for i in range(0, gt.net.n, max(1, gt.net.n // 9)):
            pidx = gt.net.parent_config_index(X, i)
            assert pidx.min() >= 0 and pidx.max() < int(gt.net.K[i])


@pytest.mark.parametrize("name", ALL_NETS)
class TestGroundTruthInvariants:
    def test_cpds_are_distributions(self, name):
        gt = networks.ground_truth(name)
        for i in range(0, gt.net.n, max(1, gt.net.n // 11)):
            np.testing.assert_allclose(gt.cpds[i].sum(axis=1), 1.0, atol=1e-9)

    def test_min_conditional_positive(self, name):
        gt = networks.ground_truth(name)
        assert min_conditional(gt) > 0

    def test_log_prob_finite(self, name):
        gt = networks.ground_truth(name)
        X = sampling.sample_events(gt, 0, 100, seed=2)
        lp = CountModel.from_cpds(gt.net, gt.cpds).log_prob(X)
        assert np.all(np.isfinite(lp)) and np.all(lp < 0)


@pytest.mark.parametrize("name", ALL_NETS)
class TestBudgetInvariants:
    def test_nonuniform_variance_budget(self, name):
        net = networks.make(name)
        nu, mu = per_variable_eps(net, "nonuniform", 0.1)
        assert np.sum(nu**2) == pytest.approx(0.1**2 / 256)
        assert np.sum(mu**2) == pytest.approx(0.1**2 / 256)

    def test_counter_eps_length(self, name):
        net = networks.make(name)
        for algo in ["baseline", "uniform", "nonuniform"]:
            assert len(counter_eps(net, algo, 0.1)) == net.n_counters


@pytest.mark.parametrize("name", ALL_NETS)
class TestPipelineInvariants:
    def test_aggregation_mass(self, name):
        gt = networks.ground_truth(name)
        cid, sid, n = aggregate_local(gt, 0, SMALL, k=6, seed=3)
        assert n.sum() == 2 * gt.net.n * SMALL
        assert cid.max() < gt.net.n_counters

    def test_exact_model_conditionals_normalized(self, name):
        """From exact counts, each observed parent config's conditional
        sums to ~1 (ratio of family to parent counters, Lemma 2)."""
        gt = networks.ground_truth(name)
        cid, _, n = aggregate_local(gt, 0, SMALL, k=6, seed=3)
        counts = np.zeros(gt.net.n_counters)
        np.add.at(counts, cid, n)
        net = gt.net
        i = int(net.topo[min(3, net.n - 1)])
        fam = counts[net.fam_offset[i] : net.fam_offset[i + 1]].reshape(
            int(net.K[i]), int(net.cards[i])
        )
        par = counts[net.par_offset[i] : net.par_offset[i + 1]]
        seen = par > 0
        np.testing.assert_allclose(fam.sum(axis=1)[seen], par[seen])

    def test_count_model_queries_finite(self, name):
        gt = networks.ground_truth(name)
        cid, _, n = aggregate_local(gt, 0, SMALL, k=6, seed=3)
        counts = np.zeros(gt.net.n_counters)
        np.add.at(counts, cid, n)
        model = CountModel(gt.net, counts)
        X = sampling.sample_events(gt, 1 << 42, (1 << 42) + 40, seed=4)
        lp = model.log_prob(X)
        assert np.all(np.isfinite(lp))
