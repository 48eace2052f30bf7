"""Micro-batch schedule and event-frame helpers.

The continuous protocol reacts to every event; the simulator processes
the stream in micro-batches and refreshes the counters' reporting
probabilities at batch boundaries. Batches follow a *doubling* schedule
(1st batch ``first`` events, then the batch size doubles) so a counter's
``p`` lags its true count by at most one doubling — the same lag the
round-based protocol of Lemma 4 has by construction.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import sample_events, sample_sites


def batch_ranges(m: int, *, first: int = 1024) -> list[tuple[int, int]]:
    """Doubling micro-batch boundaries covering ``[0, m)``."""
    if first < 1:
        raise ValueError(f"first batch must hold at least one event, got {first}")
    if m <= 0:
        return []
    out: list[tuple[int, int]] = []
    lo, size = 0, min(first, m)
    while lo < m:
        hi = min(lo + size, m)
        out.append((lo, hi))
        lo = hi
        size *= 2
    return out


def events_pandas(
    gt: GroundTruth, lo: int, hi: int, *, k: int, seed: int
) -> pd.DataFrame:
    """Events ``[lo, hi)`` as a wide pandas frame.

    Columns: ``event_id``, ``site``, ``v0`` ... ``v{n-1}`` — the shape
    both Spark and the DuckDB oracle consume in tests.
    """
    X = sample_events(gt, lo, hi, seed=seed)
    sites = sample_sites(lo, hi, k=k, seed=seed)
    X = X.astype(np.int64)
    return pd.DataFrame({
        "event_id": np.arange(lo, hi, dtype=np.int64),
        "site": sites.astype(np.int64),
        **{f"v{i}": X[:, i] for i in range(gt.net.n)},
    })
