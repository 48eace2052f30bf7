"""Unit tests for the BayesNet structure and flat counter indexing."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.structure import BayesNet
from tests.networks_props import max_parents


def random_events(net: BayesNet, m: int, *, seed: int) -> np.ndarray:
    """``m`` uniformly random assignments of ``net``'s variables."""
    return np.random.default_rng(seed).integers(0, net.cards, (m, net.n))


def tiny_vee() -> BayesNet:
    # X0 -> X2 <- X1, cards 2/3/4.
    return BayesNet("vee", [[], [], [0, 1]], np.array([2, 3, 4]))


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            BayesNet("c", [[1], [0]], np.array([2, 2]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            BayesNet("s", [[0]], np.array([2]))

    def test_long_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            BayesNet("c3", [[2], [0], [1]], np.array([2, 2, 2]))

    def test_bad_parent_id_rejected(self):
        for bad in (5, -1):
            with pytest.raises(ValueError, match="out of range"):
                BayesNet("b", [[bad]], np.array([2]))

    def test_duplicate_parent_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BayesNet("d", [[], [0, 0]], np.array([2, 2]))

    def test_cardinality_one_rejected(self):
        with pytest.raises(ValueError, match="cardinality"):
            BayesNet("u", [[]], np.array([1]))

    def test_cards_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            BayesNet("m", [[], []], np.array([2]))


class TestDerived:
    def test_vee_K(self):
        net = tiny_vee()
        assert net.K.tolist() == [1, 1, 6]

    def test_vee_counts(self):
        net = tiny_vee()
        assert net.n_family_counters == 2 + 3 + 24
        assert net.n_counters == net.n_family_counters + 1 + 1 + 6

    def test_vee_params(self):
        # (2-1)*1 + (3-1)*1 + (4-1)*6
        assert tiny_vee().n_params == 1 + 2 + 18

    def test_vee_children(self):
        net = tiny_vee()
        assert net.children[0] == [2] and net.children[1] == [2]
        assert net.children[2] == []

    def test_chain_topology(self):
        net = networks.chain(5, J=3)
        assert net.n_edges == 4
        assert max_parents(net) == 1
        assert list(net.topo) == [0, 1, 2, 3, 4]

    def test_naive_bayes_shape(self):
        net = networks.naive_bayes(6, J_root=4, J_leaf=3)
        assert net.K.tolist() == [1, 4, 4, 4, 4, 4]
        assert net.n_params == 3 + 5 * (2 * 4)

    def test_topo_is_permutation(self):
        net = networks.make("alarm")
        assert sorted(net.topo.tolist()) == list(range(net.n))

    @pytest.mark.parametrize("name", ["alarm", "hepar2", "link", "munin", "new-alarm"])
    def test_topo_equals_parent_scan_kahn(self, name):
        """Sampling draws its uniforms in ``topo`` order, so the order is
        pinned to Kahn's algorithm with each node's children found by
        scanning every parent list in id order."""
        net = networks.make(name)
        indeg = [len(ps) for ps in net.parents]
        order = [j for j in range(net.n) if indeg[j] == 0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for c in [j for j, ps in enumerate(net.parents) if u in ps]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        assert net.topo.tolist() == order

    def test_topo_parents_first(self):
        net = networks.make("hepar2")
        pos = np.empty(net.n, dtype=int)
        pos[net.topo] = np.arange(net.n)
        for j, ps in enumerate(net.parents):
            for p in ps:
                assert pos[p] < pos[j]


class TestCounterIndex:
    def test_parent_config_index_roundtrip(self):
        net = tiny_vee()
        # All 6 parent configs of node 2 enumerate 0..5 bijectively.
        X = np.array([[a, b, 0] for b in range(3) for a in range(2)])
        idx = net.parent_config_index(X, 2)
        assert sorted(idx.tolist()) == list(range(6))

    def test_parent_config_stride_order(self):
        net = tiny_vee()
        # First parent (node 0) is the fastest digit.
        assert net.parent_config_index(np.array([[1, 0, 0]]), 2)[0] == 1
        assert net.parent_config_index(np.array([[0, 1, 0]]), 2)[0] == 2

    def test_root_parent_index_zero(self):
        net = tiny_vee()
        X = np.array([[1, 2, 3], [0, 0, 0]])
        assert net.parent_config_index(X, 0).tolist() == [0, 0]

    def test_family_ids_bijective(self):
        net = tiny_vee()
        X = np.array(
            [[a, b, c] for a in range(2) for b in range(3) for c in range(4)]
        )
        fam2 = net.counter_ids(2, X[:, 2], net.parent_config_index(X, 2))[0]
        assert len(set(fam2.tolist())) == 24
        lo, hi = net.fam_offset[2], net.fam_offset[3]
        assert fam2.min() >= lo and fam2.max() < hi

    def test_decode_family_id_inverse(self):
        net = tiny_vee()
        X = np.array([[1, 2, 3]])
        pidx = net.parent_config_index(X, 2)
        cid = int(net.counter_ids(2, X[:, 2], pidx)[0][0])
        # Decode the id by the documented layout: variable i's family
        # block holds (x_i, x_par_index) at x_par_index * J_i + x_i.
        i = int(np.searchsorted(net.fam_offset, cid, side="right") - 1)
        off = cid - int(net.fam_offset[i])
        J = int(net.cards[i])
        assert (i, off % J, off // J) == (2, 3, int(pidx[0]))

    def test_counter_id_matrices_match_per_node(self):
        """Ids of every (event, variable) cell at once equal the ids
        computed one variable at a time."""
        net = networks.make("alarm")
        X = random_events(net, 50, seed=0)
        v = np.broadcast_to(np.arange(net.n), X.shape)
        fam, par = net.counter_ids(v, X, net.parent_index(X, v))
        for i in [0, 5, net.n - 1]:
            want = net.counter_ids(i, X[:, i], net.parent_config_index(X, i))
            assert np.array_equal(fam[:, i], want[0])
            assert np.array_equal(par[:, i], want[1])

    @pytest.mark.parametrize(
        "name", ["alarm", "hepar2", "link", "munin", "new-alarm", "chain", "naive-bayes"]
    )
    def test_parent_index_mixed_variables(self, name):
        """Row ``r``'s parent index for ``v[r]`` is that variable's
        ``parent_config_index`` in row ``r``, whatever mix of variables
        the rows ask for."""
        net = {"chain": networks.chain(6, J=3), "naive-bayes": networks.naive_bayes(5, 4, 3)}.get(
            name
        ) or networks.make(name)
        X = random_events(net, 300, seed=1)
        v = np.random.default_rng(2).integers(0, net.n, len(X))
        got = net.parent_index(X, v)
        want = [net.parent_config_index(X, int(v[r]))[r] for r in range(len(X))]
        np.testing.assert_array_equal(got, want)

    def test_blocks_disjoint(self):
        net = tiny_vee()
        owner = net.counter_owner()
        assert len(owner) == net.n_counters
        # Family block of node i and parent blocks never overlap.
        assert net.par_offset[0] == net.fam_offset[-1]

    @pytest.mark.parametrize("name", ["alarm", "hepar2"])
    def test_counter_owner_counts(self, name):
        net = networks.make(name)
        owner = net.counter_owner()
        for i in [0, net.n // 2, net.n - 1]:
            expect = int(net.cards[i] * net.K[i] + net.K[i])
            assert int((owner == i).sum()) == expect
