"""Benchmark of the sample -> aggregate -> transport -> protocol -> evaluate pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload table-munin-local --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One process, closed loop, one caller: each call is ``train_many`` plus
the workload's evaluation, and the next call starts when the previous
one returns. Calls repeat until ``--seconds`` have passed (at least one
call). Every call is checked (see ``checks``). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import traceback
import warnings
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import pandas as pd

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

K, EPS, PROTO_C, FIRST_BATCH, N_TESTS = 30, 0.1, 0.1, 1024, 1000
ALL_ALGOS = ["exact", "baseline", "uniform", "nonuniform"]
# Network builds repeat at least this often and this long; setup_s is their median.
SETUP_MIN_BUILDS, SETUP_MIN_S = 3, 2.0
SPARK_SLOTS = min(4, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    net: str
    m: int
    algos: list[str]
    spark: bool = False
    #: Score the model on the held-out events after every micro-batch
    #: (Algorithm 3's anytime queries) instead of Tables 2-3's evaluation.
    anytime: bool = False


WORKLOADS = {
    # The paper's largest network at table scale: site-side sampling and
    # the kernel do most of the work, a third of generated rows are
    # regenerated chunk prefixes, and it has the only large network build.
    "table-munin-local": Workload("munin", 50_000, ALL_ALGOS),
    # The only workload where Spark tasks, shuffle and toPandas dominate.
    "table-hepar2-spark": Workload("hepar2", 50_000, ALL_ALGOS, spark=True),
    # Figure 11(b): a long stream in big batches, counters thinning, and a
    # read of every estimate beside every write.
    "stream-newalarm-1m": Workload(
        "new-alarm", 1_000_000, ["uniform", "nonuniform"], anytime=True
    ),
}

END_TO_END = {
    "setup_s": "s",
    "result_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "approx_messages": "count",
    "ops_ok_ratio": "ratio",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    # Spark's Python workers inherit the environment, not sys.path.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(WORK)
    # events_pandas builds the oracle's wide frame column by column.
    warnings.simplefilter("ignore", pd.errors.PerformanceWarning)
    result = Bench(args.workload, args.seed).run(args.seconds, bool(args.trace))
    if args.trace:
        print(f"spans written to {WORK}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one metric table for all."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, v in res["metrics"].items():
            metrics[f"{name}.{metric}"] = v
            print(f"{name:22s} {metric:34s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed, metrics=metrics)))
    return 0


class Bench:
    def __init__(self, name: str, seed: int) -> None:
        from repro.experiments import Config

        self.name, self.wl, self.seed = name, WORKLOADS[name], seed
        wl = self.wl
        self.cfg = Config(m=wl.m, k=K, eps=EPS, n_tests=N_TESTS, seed=seed,
                          proto_c=PROTO_C, first_batch=FIRST_BATCH)
        self.spark = None

    # ----------------------------------------------------------- set-up

    def setup(self, tr) -> float:
        from repro.bayesnet import networks
        from repro.core import classify

        builds = []
        t_end = perf_counter() + SETUP_MIN_S
        while len(builds) < SETUP_MIN_BUILDS or perf_counter() < t_end:
            # ground_truth memoizes; clear its caches so each build is real.
            networks._NET_CACHE.clear()
            networks._GT_CACHE.clear()
            t0 = perf_counter()
            with tr.span("networks.ground_truth") if tr else nullcontext():
                self.gt = networks.ground_truth(self.wl.net)
            builds.append(perf_counter() - t0)
        self.gt_build_s = statistics.median(builds)
        self.X_test, _ = classify.make_tests(self.gt, N_TESTS, seed=self.seed + 1)
        if not self.wl.spark:
            return self.gt_build_s
        t0 = perf_counter()
        self.spark = start_spark()
        # The first call starts the Python workers and the second still runs
        # about 10% slow while the JVM warms up.
        for _ in range(2):
            self.train(self.spark)
        return self.gt_build_s + perf_counter() - t0

    def train(self, spark):
        from repro.core import learner

        return learner.train_many(
            spark, self.gt, self.wl.algos,
            m=self.wl.m, k=K, eps=EPS, seed=self.seed, proto_c=PROTO_C,
            first_batch=FIRST_BATCH, collect_snapshots=self.wl.anytime,
        )

    # ------------------------------------------------------------ calls

    def call(self, tap) -> dict:
        """One timed call, plus what the checks need from it."""
        from repro import experiments
        from repro.core.model import CountModel

        t0 = perf_counter()
        res = self.train(self.spark)
        t1 = perf_counter()
        ev = experiments.evaluate_models(self.gt, res, self.cfg)
        anytime = {
            a: [CountModel(self.gt.net, v).log_prob(self.X_test) for _, v in res[a].snapshots]
            for a in (self.wl.algos if self.wl.anytime else [])
        }
        t2 = perf_counter()
        out = dict(
            train_s=t1 - t0, result_s=t2 - t0, res=res, ev=ev, anytime=anytime,
            batches=tap.batches, first_batch=tap.first_batch,
            exact_snapshots=tap.exact_snapshots,
        )
        tap.reset()
        return out

    def loop(self, tap, seconds: float, min_calls: int) -> tuple[list[dict], int]:
        calls, attempted = [], 0
        t_end = perf_counter() + seconds
        while attempted < min_calls or perf_counter() < t_end:
            attempted += 1
            try:
                calls.append(self.call(tap))
            except Exception:
                traceback.print_exc()
                tap.reset()
        return calls, attempted

    # ------------------------------------------------------------ checks

    def record(self, c: dict):
        from checks import CallRecord
        from repro.core.model import CountModel, mean_abs_ratio_error

        approx = [a for a in self.wl.algos if a != "exact"]
        if self.wl.anytime:
            mle = [CountModel(self.gt.net, v).log_prob(self.X_test) for v in c["exact_snapshots"]]
            err = {a: [mean_abs_ratio_error(lp, ref) for lp, ref in zip(c["anytime"][a], mle)]
                   for a in approx}
        else:
            err = {a: [c["ev"][a]["err_mle"]] for a in approx}
        return CallRecord(
            messages={a: int(r.total_messages) for a, r in c["res"].items()},
            batches=c["batches"], first_batch=c["first_batch"], err_mle=err,
        )

    def expected(self):
        from checks import Expected, duckdb_first_batch
        from repro.stream.events import batch_ranges

        ranges = batch_ranges(self.wl.m, first=FIRST_BATCH)
        driver = None
        if self.wl.spark:
            driver = {a: int(r.total_messages) for a, r in self.train(None).items()}
        return Expected(
            n_vars=self.gt.net.n, m=self.wl.m, eps=EPS, ranges=ranges,
            oracle=duckdb_first_batch(self.gt, *ranges[0], k=K, seed=self.seed),
            driver_messages=driver,
        )

    def failed_calls(self, calls: list[dict], attempted: int, exp) -> int:
        from checks import failures

        failed = attempted - len(calls)
        first = None
        for c in calls:
            rec = self.record(c)
            first = first or rec.messages
            bad = failures(rec, exp, first)
            for msg in bad:
                print(f"check failed: {msg}", file=sys.stderr)
            failed += bool(bad)
        return failed

    # --------------------------------------------------------------- run

    def run(self, seconds: float, trace: bool) -> dict:
        from tracing import StreamTap, Tracer, instrument

        tr = Tracer() if trace else None
        with ExitStack() as stack:
            stack.callback(lambda: stop_spark(self.spark))
            setup_s = self.setup(tr)
            # Without EXACTMLE the tap keeps the exact counts the checks need.
            tap = StreamTap(stack, None if "exact" in self.wl.algos else self.gt.net.n_counters)
            if trace:
                plain, attempted = self.loop(tap, seconds / 2, 1)
                with ExitStack() as traced:
                    instrument(tr, traced, sites_on_driver=not self.wl.spark)
                    tap.tracer = tr
                    calls, att = self.loop(tap, seconds / 2, 1)
                    tap.tracer = None
                attempted += att
                all_calls = plain + calls
            else:
                all_calls, attempted = self.loop(tap, seconds, 1)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if not all_calls:
                raise RuntimeError("every call raised")
            failed = self.failed_calls(all_calls, attempted, self.expected())
            if trace:
                metrics, units = self.layer_metrics(tr, plain, calls), dict(LAYER_UNITS)
                tr.dump(WORK / f"trace-{self.name}-seed{self.seed}.json")
        if not trace:
            first = all_calls[0]["res"]
            metrics = {
                "setup_s": setup_s,
                "result_s": statistics.median(c["result_s"] for c in all_calls),
                "events_per_s": self.wl.m / statistics.median(c["train_s"] for c in all_calls),
                "peak_rss_mb": peak_rss_mb,
                "approx_messages": sum(
                    int(r.total_messages) for a, r in first.items() if a != "exact"
                ),
                "ops_ok_ratio": 1.0 - failed / attempted,
            }
            units = END_TO_END
        print(f"{len(all_calls)} of {attempted} calls returned, {failed} failed; result_s "
              + " ".join(f"{c['result_s']:.3f}" for c in all_calls), file=sys.stderr)
        return dict(
            correct=failed == 0, attempted=attempted, failed=failed,
            metrics={k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        )

    # ------------------------------------------------------------ layers

    def layer_metrics(self, tr, plain: list[dict], calls: list[dict]) -> dict:
        from repro.core.model import CountModel
        from repro.stream.aggregate import aggregate_local

        n = len(calls)
        if not n:
            raise RuntimeError("every traced call raised")
        self_s = tr.self_times()

        def per(span: str) -> float:
            return self_s.get(span, 0.0) / n

        def cnt(key: str) -> float:
            return tr.counts.get(key, 0) / n

        out = {
            "networks.ground_truth_s": self.gt_build_s,
            "sampling.sample_events_s": per("sampling.sample_events"),
            "sampling.sample_sites_s": per("sampling.sample_sites"),
            "sampling.rows_requested": cnt("sampling.rows_requested"),
            "sampling.rows_generated": cnt("sampling.rows_generated"),
            "aggregate.kernel_s": per("aggregate.kernel"),
            "aggregate.local_self_s": per("aggregate.aggregate_local"),
            "aggregate.keys_in": cnt("aggregate.keys_in"),
            "aggregate.rows_out": cnt("aggregate.rows_out"),
            "spark.aggregate_generated_s": per("spark.aggregate_generated"),
            "spark.tasks": cnt("spark.tasks"),
            "spark.rows_to_driver": cnt("spark.rows_to_driver"),
            "engine.rows_in": cnt("engine.rows_in"),
            "engine.report_msgs": cnt("engine.approx_msgs") - cnt("engine.sync_msgs"),
            "engine.sync_msgs": cnt("engine.sync_msgs"),
            "engine.rounds_advanced": cnt("engine.rounds_advanced"),
            "engine.p_lt1_share": cnt("engine.p_lt1_share"),
            "engine.estimates_s": per("engine.estimates"),
            "learner.self_s": per("learner.train_many"),
            "model.log_prob_s": per("model.log_prob"),
            "classify.error_rate_s": per("classify.error_rate"),
            "bench.tap_s": per("bench.tap"),
            "trace.overhead_s": statistics.median(c["result_s"] for c in calls)
            - statistics.median(c["result_s"] for c in plain),
        }
        gen = out["sampling.rows_generated"]
        out["sampling.useful_ratio"] = out["sampling.rows_requested"] / gen if gen else 0.0
        queries = cnt("classify.queries")
        out["classify.us_per_query"] = 1e6 * out["classify.error_rate_s"] / queries if queries else 0.0
        for algo in ALL_ALGOS:
            out[f"engine.update_s.{algo}"] = per(f"engine.update.{algo}")

        # Spark transport against the driver path on the same batches.
        local_s = 0.0
        if self.wl.spark:
            t0 = perf_counter()
            for c in calls:
                for lo, hi, _ in c["batches"]:
                    aggregate_local(self.gt, lo, hi, k=K, seed=self.seed)
            local_s = (perf_counter() - t0) / n
        out["spark.local_replay_s"] = local_s
        spark_s = out["spark.aggregate_generated_s"]
        out["spark.overhead_s"] = spark_s - local_s if local_s else 0.0
        out["spark.vs_local_ratio"] = spark_s / local_s if local_s else 0.0

        # Definition 2's 99th-percentile form, recorded, not gated.
        last = calls[-1]
        if self.wl.anytime:
            lp_mle = CountModel(self.gt.net, last["exact_snapshots"][-1]).log_prob(self.X_test)
        else:
            lp_mle = last["res"]["exact"].model.log_prob(self.X_test)
        for algo in ("baseline", "uniform", "nonuniform"):
            r = last["res"].get(algo)
            out[f"guarantee.p99_log_ratio.{algo}"] = (
                float(np.quantile(np.abs(r.model.log_prob(self.X_test) - lp_mle), 0.99))
                if r is not None else 0.0
            )
        return out


LAYER_UNITS = [
    ("networks.ground_truth_s", "s"),
    ("sampling.sample_events_s", "s"),
    ("sampling.sample_sites_s", "s"),
    ("sampling.rows_requested", "count"),
    ("sampling.rows_generated", "count"),
    ("sampling.useful_ratio", "ratio"),
    ("aggregate.kernel_s", "s"),
    ("aggregate.local_self_s", "s"),
    ("aggregate.keys_in", "count"),
    ("aggregate.rows_out", "count"),
    ("spark.aggregate_generated_s", "s"),
    ("spark.tasks", "count"),
    ("spark.rows_to_driver", "count"),
    ("spark.local_replay_s", "s"),
    ("spark.overhead_s", "s"),
    ("spark.vs_local_ratio", "ratio"),
    ("engine.update_s.exact", "s"),
    ("engine.update_s.baseline", "s"),
    ("engine.update_s.uniform", "s"),
    ("engine.update_s.nonuniform", "s"),
    ("engine.rows_in", "count"),
    ("engine.report_msgs", "count"),
    ("engine.sync_msgs", "count"),
    ("engine.rounds_advanced", "count"),
    ("engine.p_lt1_share", "ratio"),
    ("engine.estimates_s", "s"),
    ("learner.self_s", "s"),
    ("model.log_prob_s", "s"),
    ("classify.error_rate_s", "s"),
    ("classify.us_per_query", "us"),
    ("bench.tap_s", "s"),
    ("trace.overhead_s", "s"),
    ("guarantee.p99_log_ratio.baseline", "nat"),
    ("guarantee.p99_log_ratio.uniform", "nat"),
    ("guarantee.p99_log_ratio.nonuniform", "nat"),
]


# ------------------------------------------------------------------ Spark


def start_spark():
    """Local session with the jobs' settings, at most ``SPARK_SLOTS`` slots,
    no UI, and every scratch file inside the checkout."""
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK)
    # For spark-submit's launcher JVM too; without -XX:-UsePerfData each
    # JVM writes /tmp/hsperfdata_<user>.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={WORK} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
        "--master", f"local[{SPARK_SLOTS}]",
        "--driver-memory", "2g",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", f"spark.sql.warehouse.dir={WORK / 'warehouse'}",
        "pyspark-shell",
    ])
    from repro.experiments import get_spark

    spark = get_spark()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    if spark is None:
        return
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
