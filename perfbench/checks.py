"""Correctness checks applied to every measured benchmark call.

A call is one ``train_many`` plus that workload's evaluation. It fails if
it raises or if :func:`failures` returns anything; failed calls are
counted into the result line's ``failed`` and into ``ops_ok_ratio``.

The checks only read what a call produced (:class:`CallRecord`) and what
the run computed once, outside every timer (:class:`Expected`), so the
self-test can corrupt a record and see each check fire.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CallRecord:
    """What one call produced, as the checks see it."""

    #: algorithm -> total messages (Table 3's cost).
    messages: dict[str, int]
    #: (lo, hi, sum of n) for every micro-batch the engines were fed.
    batches: list[tuple[int, int, int]]
    #: (counter_id, site, n) of the first micro-batch.
    first_batch: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    #: approximate algorithm -> mean |P~/P^ - 1| against the exact MLE,
    #: one value per checkpoint (end of stream, or every micro-batch).
    err_mle: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class Expected:
    """Reference values, computed once per run outside the timers."""

    n_vars: int
    m: int
    eps: float
    ranges: list[tuple[int, int]]
    #: DuckDB oracle's (counter_id, site, n) for the first micro-batch.
    oracle: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: Driver-path messages per algorithm (Spark workloads only).
    driver_messages: dict[str, int] | None = None


def sorted_rows(
    cid: np.ndarray, sid: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ordered by (counter_id, site), as int64 arrays."""
    cid, sid, n = (np.asarray(a, dtype=np.int64) for a in (cid, sid, n))
    order = np.lexsort((sid, cid))
    return cid[order], sid[order], n[order]


def duckdb_first_batch(gt, lo: int, hi: int, *, k: int, seed: int):
    """The DuckDB oracle's aggregation of stream events ``[lo, hi)``."""
    import duckdb

    from repro.stream.aggregate import duckdb_counts_sql
    from repro.stream.events import events_pandas

    frame = events_pandas(gt, lo, hi, k=k, seed=seed)
    con = duckdb.connect()
    try:
        # MUNIN's SQL is 2,082 UNION ALL branches: deeper than DuckDB's
        # default expression limit, and each branch scanning the wide
        # pandas frame takes minutes, so copy it into a native table.
        con.execute("SET max_expression_depth TO 100000")
        con.register("events_frame", frame)
        con.execute("CREATE TABLE events AS SELECT * FROM events_frame")
        out = con.execute(duckdb_counts_sql(gt.net)).fetchdf()
    finally:
        con.close()
    return sorted_rows(out["counter_id"], out["site"], out["n"])


def failures(
    rec: CallRecord, exp: Expected, first_messages: dict[str, int] | None
) -> list[str]:
    """Every check ``rec`` fails; ``first_messages`` is the run's first call."""
    out = []
    if "exact" in rec.messages and rec.messages["exact"] != 2 * exp.m * exp.n_vars:
        out.append(
            f"EXACTMLE messages {rec.messages['exact']} != 2*m*n = "
            f"{2 * exp.m * exp.n_vars}"
        )
    if [(lo, hi) for lo, hi, _ in rec.batches] != exp.ranges:
        out.append("micro-batches differ from the doubling schedule")
    for lo, hi, total in rec.batches:
        if total != 2 * exp.n_vars * (hi - lo):
            out.append(f"batch [{lo}, {hi}) sum n {total} != 2*n*(hi-lo)")
    if rec.first_batch is None:
        out.append("first batch not observed")
    else:
        got = sorted_rows(*rec.first_batch)
        if len(got[0]) != len(exp.oracle[0]) or not all(
            np.array_equal(a, b) for a, b in zip(got, exp.oracle)
        ):
            out.append("first batch differs from the DuckDB oracle")
    if exp.driver_messages is not None and rec.messages != exp.driver_messages:
        out.append(
            f"messages {rec.messages} differ from the driver path's "
            f"{exp.driver_messages}"
        )
    if first_messages is not None and rec.messages != first_messages:
        out.append(f"messages {rec.messages} differ from the first call's")
    for algo, errs in rec.err_mle.items():
        if not errs or max(errs) > exp.eps:
            out.append(f"{algo}: mean |P~/P^-1| {errs} exceeds eps={exp.eps}")
    return out
