"""Self-test of the benchmark's checks and tracing, on a small ALARM stream.

Run from the repository root (a few seconds, no Spark)::

    python3 perfbench/selftest.py

It shows that every correctness check fires on a corrupted output, that
the traced layer self times add up to the ``train_many`` span, and that
neither the tap nor the tracing changes any message count.
"""
from __future__ import annotations

import copy
import sys
import warnings
from contextlib import ExitStack

import pandas as pd

from run import EPS, FIRST_BATCH, K, PROTO_C, SRC

M, SEED = 8192, 7
ALGOS = ["exact", "baseline", "uniform", "nonuniform"]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", pd.errors.PerformanceWarning)
    from checks import CallRecord, Expected, duckdb_first_batch, failures
    from tracing import StreamTap, Tracer, instrument

    from repro import experiments
    from repro.bayesnet import networks
    from repro.core import learner
    from repro.experiments import Config
    from repro.stream.events import batch_ranges

    gt = networks.ground_truth("alarm")

    def train():
        return learner.train_many(
            None, gt, ALGOS, m=M, k=K, eps=EPS, seed=SEED, proto_c=PROTO_C,
            first_batch=FIRST_BATCH,
        )

    def messages(res):
        return {a: int(r.total_messages) for a, r in res.items()}

    plain = messages(train())
    with ExitStack() as stack:
        tap = StreamTap(stack)
        tapped = train()
        batches, first_batch = tap.batches, tap.first_batch
        tap.reset()
        tr = Tracer()
        with ExitStack() as traced:
            instrument(tr, traced, sites_on_driver=True)
            traced_msgs = messages(train())
    expect(messages(tapped) == plain, "the tap leaves every message count unchanged")
    expect(traced_msgs == plain, "tracing leaves every message count unchanged")

    # The traced layers' self times add up to the train_many span.
    root = next(i for i, s in enumerate(tr.spans) if s[0] == "learner.train_many")
    span = tr.spans[root][2] - tr.spans[root][1]
    total = sum(tr.self_times(root).values())
    expect(abs(total - span) <= 1e-9 * max(span, 1.0),
           f"layer self times sum to the train_many span ({total:.6f} s vs {span:.6f} s)")
    expect(tr.counts["sampling.rows_requested"] == M, "sampled rows are counted")

    ranges = batch_ranges(M, first=FIRST_BATCH)
    exp = Expected(
        n_vars=gt.net.n, m=M, eps=EPS, ranges=ranges,
        oracle=duckdb_first_batch(gt, *ranges[0], k=K, seed=SEED),
        driver_messages=dict(plain),
    )
    ev = experiments.evaluate_models(gt, tapped, Config(
        m=M, k=K, eps=EPS, n_tests=200, seed=SEED, proto_c=PROTO_C, first_batch=FIRST_BATCH,
    ))
    good = CallRecord(
        messages=messages(tapped), batches=batches, first_batch=first_batch,
        err_mle={a: [ev[a]["err_mle"]] for a in ALGOS[1:]},
    )
    expect(failures(good, exp, plain) == [], "an unchanged call passes every check")

    def fires(corrupt, needle: str, what: str) -> None:
        bad = copy.deepcopy(good)
        first = dict(plain)
        corrupt(bad, first)
        found = failures(bad, exp, first)
        expect(any(needle in f for f in found), f"check fires: {what}")

    def off_by_one(algo):
        def corrupt(rec, first):
            rec.messages[algo] += 1
        return corrupt

    fires(off_by_one("exact"), "2*m*n", "EXACTMLE messages off by one")

    def sum_n(rec, first):
        lo, hi, n = rec.batches[1]
        rec.batches[1] = (lo, hi, n - 1)

    fires(sum_n, "sum n", "a batch's sum of n off by one")

    def drop_batch(rec, first):
        del rec.batches[-1]

    fires(drop_batch, "doubling schedule", "a micro-batch dropped")

    def drop_row(rec, first):
        rec.first_batch = tuple(a[1:] for a in rec.first_batch)

    fires(drop_row, "DuckDB oracle", "an aggregated row dropped")

    def wrong_count(rec, first):
        cid, sid, n = (a.copy() for a in rec.first_batch)
        n[0] += 1
        rec.first_batch = (cid, sid, n)

    fires(wrong_count, "DuckDB oracle", "an aggregated count off by one")
    fires(off_by_one("uniform"), "driver path", "Spark messages differ from the driver path")

    def other_first(rec, first):
        first["nonuniform"] += 1

    fires(other_first, "first call", "messages differ across calls at one seed")

    def loose(rec, first):
        rec.err_mle["nonuniform"] = rec.err_mle["nonuniform"] + [EPS * 1.01]

    fires(loose, "exceeds eps", "mean |P~/P^-1| above eps at one checkpoint")
    return 0


if __name__ == "__main__":
    sys.exit(main())
