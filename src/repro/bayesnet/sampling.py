"""Vectorized ancestral sampling of training / testing events.

The paper generates training data by "a topological ordering of all
vertices ... then assign values to nodes in this order, based on the
known conditional probability distributions" (Section 6.1). We implement
exactly that, vectorized over events.

Determinism contract: event ``t`` (a global stream index) always gets
the same value vector and the same site assignment for a given
``(ground truth, seed, k)``, no matter which ``[lo, hi)`` range or Spark
partition generated it. This is achieved by seeding an independent RNG
per fixed-size chunk of the stream (chunks aligned to absolute indices)
so the driver and any Spark partition produce identical events — a test
asserts this equality.

Within a chunk, row ``t`` depends only on its own uniforms (one per
node, at the same position of every node's full-chunk draw) and on its
parents' values in the same row. A slice ``[a, b)`` of a chunk therefore
generates only its own ``b - a`` rows: no prefix is regenerated.
"""
from __future__ import annotations

import numpy as np

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet

CHUNK = 8192  # stream chunk size the RNG seeding is aligned to


def chunk_edges(lo: int, hi: int) -> list[int]:
    """``lo``, every ``CHUNK`` boundary inside ``(lo, hi)``, then ``hi``."""
    return [lo, *range((lo // CHUNK + 1) * CHUNK, hi, CHUNK), hi]


def _slice_uniforms(rng: np.random.Generator, a: int, size: int) -> np.ndarray:
    """``rng.random(CHUNK)[a : a + size]``, leaving ``rng`` where that full
    draw would, without drawing the rows outside the slice.

    Exact for PCG64: a double takes one 64-bit output, and ``advance(d)``
    moves the state as ``d`` outputs would. (It also discards a buffered
    32-bit half; nothing here draws 32-bit values.)
    """
    rng.bit_generator.advance(a)
    u = rng.random(size)
    rng.bit_generator.advance(CHUNK - a - size)
    return u


def value_dtype(net: BayesNet) -> np.dtype:
    """The smallest unsigned integer type that holds every value of the
    network: uint8 up to 256 values per variable."""
    return np.min_scalar_type(int(net.cards.max()) - 1)


def _sample_chunk(gt: GroundTruth, start: int, size: int, seed: int) -> np.ndarray:
    """Events ``[start, start + size)``, which lie inside one chunk, as an
    ``(size, n)`` column-major matrix of ``value_dtype(gt.net)``."""
    net = gt.net
    chunk_id, a = divmod(start, CHUNK)
    rng = np.random.Generator(np.random.PCG64([seed, 0xE7E47, chunk_id]))
    X = np.empty((size, net.n), dtype=value_dtype(gt.net), order="F")
    for i in net.topo:
        i = int(i)
        # Each node owns a full chunk of uniforms, so the stream position
        # does not depend on the slice.
        u = _slice_uniforms(rng, a, size)
        # Inverse-CDF draw: the value is how many of the first J_i - 1
        # cumulative cells of the row's CPD lie below u.
        cells = np.take(gt.cum_cpds[i], net.parent_config_index(X, i), axis=1)
        np.sum(cells < u, axis=0, dtype=X.dtype, out=X[:, i])
    return X


def sample_events(gt: GroundTruth, lo: int, hi: int, *, seed: int) -> np.ndarray:
    """Events ``[lo, hi)`` of the stream — ``(hi-lo, n)`` matrix of
    ``value_dtype(gt.net)``, column-major so each variable's column is
    contiguous."""
    if hi <= lo:
        return np.zeros((0, gt.net.n), dtype=value_dtype(gt.net))
    edges = chunk_edges(lo, hi)
    if len(edges) == 2:
        return _sample_chunk(gt, lo, hi - lo, seed)
    # Each piece is copied in as it is drawn, so at most one piece lives
    # beside the result (concatenating would hold every piece at once).
    X = np.empty((hi - lo, gt.net.n), dtype=value_dtype(gt.net), order="F")
    for a, b in zip(edges[:-1], edges[1:]):
        X[a - lo : b - lo] = _sample_chunk(gt, a, b - a, seed)
    return X


def sample_sites(lo: int, hi: int, *, k: int, seed: int) -> np.ndarray:
    """Site of each event in ``[lo, hi)`` — uniform over ``k`` sites.

    "Each data point is sent to a site chosen uniformly at random"
    (Section 6.1). Chunk-aligned like :func:`sample_events`.
    """
    if hi <= lo:
        return np.zeros(0, dtype=np.int32)
    edges = chunk_edges(lo, hi)
    parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        c, off = divmod(a, CHUNK)
        rng = np.random.default_rng([seed, 0x517E5, c])
        # Bounded integers consume a data-dependent share of the stream,
        # so the chunk prefix is drawn too.
        parts.append(rng.integers(0, k, off + b - a, dtype=np.int32)[off:])
    return np.concatenate(parts)
