"""Unit tests for ancestral sampling and its determinism contract."""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bayesnet import networks, sampling
from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet
from tests.networks_props import exact_counter_probs, exact_counts, max_parents


@pytest.fixture(scope="module")
def chain_gt() -> GroundTruth:
    return GroundTruth.random(networks.chain(4, J=3), seed=1)


class TestDeterminism:
    def test_same_range_same_events(self, chain_gt):
        a = sampling.sample_events(chain_gt, 0, 1000, seed=5)
        b = sampling.sample_events(chain_gt, 0, 1000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_subrange_consistency(self, chain_gt):
        """Event t is identical no matter which [lo, hi) generated it."""
        full = sampling.sample_events(chain_gt, 0, 3000, seed=5)
        part = sampling.sample_events(chain_gt, 700, 2500, seed=5)
        np.testing.assert_array_equal(full[700:2500], part)

    def test_cross_chunk_boundary(self, chain_gt):
        c = sampling.CHUNK
        full = sampling.sample_events(chain_gt, 0, c + 50, seed=5)
        tail = sampling.sample_events(chain_gt, c - 10, c + 50, seed=5)
        np.testing.assert_array_equal(full[c - 10 :], tail)

    def test_seed_changes_events(self, chain_gt):
        a = sampling.sample_events(chain_gt, 0, 500, seed=5)
        b = sampling.sample_events(chain_gt, 0, 500, seed=6)
        assert not np.array_equal(a, b)

    def test_sites_subrange_consistency(self):
        full = sampling.sample_sites(0, 3000, k=7, seed=5)
        part = sampling.sample_sites(123, 2111, k=7, seed=5)
        np.testing.assert_array_equal(full[123:2111], part)

    def test_empty_range(self, chain_gt):
        assert sampling.sample_events(chain_gt, 10, 10, seed=1).shape == (0, 4)
        assert sampling.sample_sites(10, 10, k=3, seed=1).shape == (0,)


class TestDistribution:
    def test_values_in_domain(self, chain_gt):
        X = sampling.sample_events(chain_gt, 0, 2000, seed=2)
        for i in range(chain_gt.net.n):
            assert X[:, i].min() >= 0
            assert X[:, i].max() < int(chain_gt.net.cards[i])

    def test_root_marginal_matches_cpd(self, chain_gt):
        X = sampling.sample_events(chain_gt, 0, 40_000, seed=3)
        emp = np.bincount(X[:, 0], minlength=3) / len(X)
        np.testing.assert_allclose(emp, chain_gt.cpds[0][0], atol=0.02)

    def test_conditional_matches_cpd(self, chain_gt):
        X = sampling.sample_events(chain_gt, 0, 60_000, seed=4)
        for pv in range(3):
            sel = X[X[:, 0] == pv]
            emp = np.bincount(sel[:, 1], minlength=3) / len(sel)
            np.testing.assert_allclose(emp, chain_gt.cpds[1][pv], atol=0.03)

    def test_joint_matches_ground_truth_probs(self):
        """Empirical counter frequencies ~= analytic per-counter
        probabilities on a tree network."""
        gt = GroundTruth.random(networks.chain(5, J=2), seed=7)
        X = sampling.sample_events(gt, 0, 50_000, seed=8)
        probs = exact_counter_probs(gt)
        emp = exact_counts(gt.net, X) / len(X)
        np.testing.assert_allclose(emp, probs, atol=0.02)

    def test_sites_uniform(self):
        s = sampling.sample_sites(0, 60_000, k=30, seed=9)
        freq = np.bincount(s, minlength=30) / len(s)
        np.testing.assert_allclose(freq, 1 / 30, atol=0.005)

    def test_sites_range(self):
        s = sampling.sample_sites(0, 1000, k=4, seed=1)
        assert s.min() >= 0 and s.max() <= 3


class TestSliceConsistency:
    @pytest.fixture(scope="class")
    def hepar2(self):
        gt = networks.ground_truth("hepar2")
        assert max_parents(gt.net) > 1
        return gt, sampling.sample_events(gt, 0, 3 * sampling.CHUNK, seed=17)

    @settings(max_examples=30, deadline=None)
    @given(
        lo=st.integers(0, 3 * sampling.CHUNK),
        size=st.integers(0, 2 * sampling.CHUNK + 100),
    )
    @example(lo=sampling.CHUNK - 1, size=2)  # one row on each side of a boundary
    @example(lo=100, size=3 * sampling.CHUNK - 100)  # unaligned, two boundaries
    @example(lo=2 * sampling.CHUNK, size=sampling.CHUNK)  # one aligned chunk
    def test_any_slice_equals_full_stream(self, hepar2, lo, size):
        """On a multi-parent network, a slice generating only its own
        rows equals the same rows of one long draw, across chunk
        boundaries and at unaligned starts."""
        gt, full = hepar2
        hi = min(lo + size, 3 * sampling.CHUNK)
        part = sampling.sample_events(gt, lo, hi, seed=17)
        assert part.shape == (hi - lo, gt.net.n) and part.dtype == sampling.value_dtype(gt.net)
        np.testing.assert_array_equal(part, full[lo:hi])


def test_values_take_the_smallest_unsigned_type():
    """A variable with 300 values samples as uint16, with the values the
    int32 sampler drew (digest of the int64 values, taken from it)."""
    net = BayesNet("j300", [[], [0], [0, 1]], [300, 4, 3])
    gt = GroundTruth.random(net, seed=1, alpha=0.5)
    X = sampling.sample_events(gt, 5000, 5000 + 2 * sampling.CHUNK, seed=2)
    assert X.dtype == np.uint16 and X[:, 0].max() == 299
    h = hashlib.sha256(np.ascontiguousarray(X, dtype=np.int64).tobytes()).hexdigest()
    assert h == "d846e913982dac163266517b98d155f7fa268bc8e77f3b0fa56a1ed13ffd59bf"
    assert sampling.value_dtype(networks.make("hepar2")) == np.uint8


@pytest.mark.parametrize(
    "a, size",
    [(0, sampling.CHUNK), (0, 1), (0, 100), (1, 0), (5, 17),
     (3000, 4000), (sampling.CHUNK - 100, 100), (sampling.CHUNK - 1, 1)],
)
def test_slice_uniforms_equal_full_chunk_slice(a, size):
    """Advancing past the rows outside the slice reads the same doubles
    as slicing the full-chunk draw and leaves the generator where that
    draw does, twice in a row (as for consecutive nodes)."""
    fast = np.random.Generator(np.random.PCG64([3, 0xE7E47, 11]))
    full = np.random.Generator(np.random.PCG64([3, 0xE7E47, 11]))
    for _ in range(2):
        u = sampling._slice_uniforms(fast, a, size)
        np.testing.assert_array_equal(u, full.random(sampling.CHUNK)[a : a + size])
        assert fast.bit_generator.state == full.bit_generator.state
