"""Experiment harness: reproduces every table of the evaluation section
(and the figure-shaped supplementary sweeps), holds the full-scale sweep
parameters, and is the one renderer of EXPERIMENTS.md: one function per
section. :data:`RUNS` says how each section of the report is computed;
``jobs/run_all.py`` runs every section, or the named ones.

The paper's reference numbers are embedded here so the rendered report
shows *paper vs measured* side by side. Configuration comes from env
vars, one knob set for every section:

=================  ========  =====================================
env var            default   meaning
=================  ========  =====================================
REPRO_M            50000     training events (paper Tables 2-3: 50K)
REPRO_K            30        number of sites
REPRO_EPS          0.1       approximation budget
REPRO_TESTS        1000      test events
REPRO_SEED         7         master seed
REPRO_PROTO_C      0.1       counter reporting constant (DESIGN.md #5)
=================  ========  =====================================
"""
from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bayesnet import networks
from repro.core import classify
from repro.core.learner import ALGORITHMS, TrainResult, train_many
from repro.core.model import CountModel, mean_abs_ratio_error

#: The four algorithms of the paper's tables (Algorithm 4 is Naive-Bayes only).
ALGOS = [a for a, spec in ALGORITHMS.items() if not spec.shared_parents]
APPROX = [a for a in ALGOS if a != "exact"]
NETWORKS = ["alarm", "hepar2", "link", "munin"]

# Full-scale sweeps of the supplementary figure tables, read by RUNS.
FIG9_NETWORK, FIG9_M = "alarm", 1_000_000
FIG5_NETWORK, FIG5_M = "hepar2", 500_000
FIG10_NETWORK, FIG10_EPS = "hepar2", [0.02, 0.05, 0.1, 0.2, 0.4]
FIG11A_NETWORK, FIG11A_K = "alarm", [10, 20, 30, 40, 50]
FIG11B_M = 5_000_000

# ----------------------------------------------------------------- paper
# Reference numbers transcribed from the paper.

PAPER_TABLE1 = {
    "alarm": dict(nodes=37, edges=46, params=509),
    "hepar2": dict(nodes=70, edges=123, params=1453),
    "link": dict(nodes=724, edges=1125, params=14211),
    "munin": dict(nodes=1041, edges=1397, params=80592),
}

PAPER_TABLE2 = {  # classification error rate, 50K training instances
    "alarm": dict(exact=0.056, baseline=0.055, uniform=0.053, nonuniform=0.066),
    "hepar2": dict(exact=0.191, baseline=0.187, uniform=0.198, nonuniform=0.212),
    "link": dict(exact=0.109, baseline=0.110, uniform=0.111, nonuniform=0.110),
    "munin": dict(exact=0.091, baseline=0.091, uniform=0.093, nonuniform=0.091),
}

PAPER_TABLE3 = {  # messages to learn the classifier, 50K instances
    "alarm": dict(exact=3_700_000, baseline=406_721, uniform=323_710, nonuniform=322_639),
    "hepar2": dict(exact=7_000_000, baseline=1_079_385, uniform=758_631, nonuniform=754_429),
    "link": dict(exact=72_400_000, baseline=29_781_937, uniform=8_223_133, nonuniform=8_062_889),
    "munin": dict(exact=104_100_000, baseline=34_388_688, uniform=11_317_844, nonuniform=11_261_617),
}


def _env(name: str, default, cast):
    return lambda: cast(os.environ.get(name, default))


@dataclass
class Config:
    # default_factory so env overrides are read at *instantiation* time.
    m: int = field(default_factory=_env("REPRO_M", 50_000, int))
    k: int = field(default_factory=_env("REPRO_K", 30, int))
    eps: float = field(default_factory=_env("REPRO_EPS", 0.1, float))
    n_tests: int = field(default_factory=_env("REPRO_TESTS", 1000, int))
    seed: int = field(default_factory=_env("REPRO_SEED", 7, int))
    proto_c: float = field(default_factory=_env("REPRO_PROTO_C", 0.1, float))
    first_batch: int = 1024

    def __post_init__(self) -> None:
        # Table 3 divides by EXACTMLE's messages, which are 0 without
        # training events, and every error rate is a share of the test
        # events. The engines and the budget refuse the others too, but
        # only once training starts: after the ground truth and the JVM.
        for var, value, ok, need in [
            ("REPRO_M", self.m, self.m >= 1, "at least 1"),
            ("REPRO_TESTS", self.n_tests, self.n_tests >= 1, "at least 1"),
            ("REPRO_K", self.k, self.k >= 1, "at least 1"),
            ("REPRO_EPS", self.eps, 0 < self.eps < 1, "in (0, 1)"),
            ("REPRO_SEED", self.seed, self.seed >= 0, "non-negative"),
            ("REPRO_PROTO_C", self.proto_c, 0 < self.proto_c < np.inf, "positive and finite"),
        ]:
            if not ok:
                raise ValueError(f"{var} must be {need}, got {value}")


def spark_socket_dir(base: str = "/tmp") -> Path:
    """The directory of Spark's Unix domain sockets, ``<base>/repro-spark-<uid>``,
    created with mode 0700 if missing.

    Its path does not depend on ``TMPDIR``, ``java.io.tmpdir`` or the
    checkout: Spark names each socket ``.<uuid4>.sock`` (42 characters),
    and the whole path must fit AF_UNIX's 107 bytes. PySpark sends no
    auth token over these sockets, so the directory's permissions are the
    only access control: one that is not a directory owned by the user,
    or that its group or others can access, is refused.
    """
    uid = os.getuid()
    path = Path(base) / f"repro-spark-{uid}"
    try:
        path.mkdir(mode=0o700)
    except FileExistsError:
        pass
    st = path.lstat()
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != uid or st.st_mode & 0o077:
        raise ValueError(
            f"Spark socket directory {path} must be a directory owned by uid {uid} "
            f"with mode 0700; it has mode {stat.filemode(st.st_mode)}, owner uid {st.st_uid}"
        )
    return path


def get_spark():
    """SparkSession for spark-submit entrypoints (conftest-compatible).

    Arrow is on. The Python workers import the driver's ``repro``: its
    directory goes ahead of the process's ``PYTHONPATH``. They fork from
    :mod:`repro.stream.daemon`, so no task re-reads Spark's zip archives.
    The JVM and its Python processes talk over Unix domain sockets in
    :func:`spark_socket_dir`: over loopback TCP every task waited ~41 ms
    for its first input record.
    """
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("repro-jobs")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.executorEnv.PYTHONPATH", str(Path(__file__).resolve().parents[1]))
        .config("spark.python.daemon.module", "repro.stream.daemon")
        .config("spark.python.unix.domain.socket.enabled", "true")
        .config("spark.python.unix.domain.socket.dir", str(spark_socket_dir()))
        .getOrCreate()
    )


def stop_spark() -> None:
    """Stop the session :func:`get_spark` started, if one is running. Its
    socket files go with it; a process that exits without stopping its
    session leaves one in :func:`spark_socket_dir`."""
    from pyspark.sql import SparkSession

    session = SparkSession.getActiveSession()
    if session is not None:
        session.stop()


# ------------------------------------------------------------- Table 1


def table1_rows() -> list[dict]:
    rows = []
    for name in NETWORKS:
        net = networks.make(name)
        rows.append(dict(
            network=name, nodes=net.n, edges=net.n_edges, params=net.n_params,
            **{f"paper_{key}": v for key, v in PAPER_TABLE1[name].items()},
        ))
    return rows


# --------------------------------------------------------- Tables 2 & 3


def _train(spark, gt, cfg: Config, algos=ALGOS, **over) -> dict[str, TrainResult]:
    """``train_many`` at ``cfg``'s settings; ``over`` replaces any of
    them (m, k, eps, proto_c) or adds ``collect_snapshots``."""
    kw = dict(m=cfg.m, k=cfg.k, eps=cfg.eps, seed=cfg.seed,
              proto_c=cfg.proto_c, first_batch=cfg.first_batch)
    return train_many(spark, gt, algos, **{**kw, **over})


def evaluate_models(gt, results: dict[str, TrainResult], cfg: Config) -> dict[str, dict]:
    """Per-algorithm metrics: messages (Table 3), classification error
    (Table 2), the figure-style testing errors, and the share of test
    queries whose log-probability is more than ``cfg.eps`` from
    EXACTMLE's (Definition 2 per query)."""
    Xt, targets = classify.make_tests(gt, cfg.n_tests, seed=cfg.seed + 1)
    lp_true = CountModel.from_cpds(gt.net, gt.cpds).log_prob(Xt)
    lp_mle = results["exact"].model.log_prob(Xt) if "exact" in results else None
    out: dict[str, dict] = {}
    for algo, r in results.items():
        lp = lp_mle if algo == "exact" else r.model.log_prob(Xt)
        out[algo] = dict(
            messages=int(r.total_messages),
            cls_err=classify.error_rate(r.model, gt.net, Xt, targets),
            err_gt=mean_abs_ratio_error(lp, lp_true),
            err_mle=None if lp_mle is None else mean_abs_ratio_error(lp, lp_mle),
            past_eps=None if lp_mle is None else float(np.mean(np.abs(lp - lp_mle) > cfg.eps)),
        )
    return out


def run_tables23(spark, cfg: Config, names=NETWORKS) -> dict[str, dict]:
    """Train all four algorithms per network and evaluate — the joint
    reproduction of Tables 2 and 3 (same runs, two readouts)."""
    out = {}
    for name in names:
        gt = networks.ground_truth(name)
        out[name] = evaluate_models(gt, _train(spark, gt, cfg), cfg)
    return out


# ------------------------------------------------- figure-shaped sweeps


def comm_vs_m(spark, name: str, m_max: int, cfg: Config) -> dict:
    """Figure 9: cumulative messages at every (doubling) checkpoint up to
    ``m_max`` — one training run, read off the history."""
    res = _train(spark, networks.ground_truth(name), cfg, m=m_max)
    return {algo: res[algo].history for algo in ALGOS}


def error_vs_m(spark, name: str, m_max: int, cfg: Config) -> list[dict]:
    """Figures 3-8: testing error (vs ground truth and vs EXACTMLE) as a
    function of the number of training points, from model snapshots."""
    gt = networks.ground_truth(name)
    res = _train(spark, gt, cfg, m=m_max, collect_snapshots=True)
    Xt, _ = classify.make_tests(gt, cfg.n_tests, seed=cfg.seed + 1)
    lp_true = CountModel.from_cpds(gt.net, gt.cpds).log_prob(Xt)
    rows = []
    for b, (events, exact_vals) in enumerate(res["exact"].snapshots):
        lp_mle = CountModel(gt.net, exact_vals).log_prob(Xt)
        row = dict(m=events, exact_err_gt=mean_abs_ratio_error(lp_mle, lp_true))
        for algo in APPROX:
            lp = CountModel(gt.net, res[algo].snapshots[b][1]).log_prob(Xt)
            row[f"{algo}_err_gt"] = mean_abs_ratio_error(lp, lp_true)
            row[f"{algo}_err_mle"] = mean_abs_ratio_error(lp, lp_mle)
        rows.append(row)
    return rows


def error_vs_eps(name: str, eps_list: list[float], cfg: Config) -> list[dict]:
    """Figure 10: testing error vs the approximation budget eps (driver
    aggregation path — small m sweeps)."""
    gt = networks.ground_truth(name)
    rows = []
    for eps in eps_list:
        ev = evaluate_models(gt, _train(None, gt, cfg, eps=eps), cfg)
        rows.append(dict(eps=eps, **{f"{a}_err_gt": ev[a]["err_gt"] for a in ALGOS},
                         **{f"{a}_err_mle": ev[a]["err_mle"] for a in APPROX}))
    return rows


def comm_vs_k(name: str, k_list: list[int], cfg: Config) -> list[dict]:
    """Figure 11(a): messages vs number of sites."""
    gt = networks.ground_truth(name)
    runs = ((k, _train(None, gt, cfg, k=k)) for k in k_list)
    return [dict(k=k, **{a: res[a].total_messages for a in ALGOS}) for k, res in runs]


def new_alarm_comm(spark, m: int, cfg: Config) -> dict:
    """Figure 11(b): UNIFORM vs NONUNIFORM on the heterogeneous
    NEW-ALARM network (paper: NONUNIFORM ~35% cheaper).

    Returns the saving at every (doubling) checkpoint — the saving grows
    with m as the high-cardinality counters enter the thinning regime.
    A second run, at ``proto_c/10`` (``paper_regime``), shows the
    operating point of the paper's (more aggressive) implementation,
    where the asymptotic saving appears at feasible m (DESIGN.md #5).
    """
    gt = networks.ground_truth("new-alarm")

    def sweep(proto_c: float) -> list[dict]:
        res = _train(spark, gt, cfg, ["uniform", "nonuniform"], m=m, proto_c=proto_c)
        return [
            dict(m=mm, uniform=u, nonuniform=nu, saving=1 - nu / u)
            for (mm, u), (_, nu) in zip(
                res["uniform"].history[1:], res["nonuniform"].history[1:]
            )
        ]

    rows = sweep(cfg.proto_c)
    paper = dict(sweep(cfg.proto_c / 10)[-1], proto_c=cfg.proto_c / 10)
    return dict(m=m, rows=rows, **{k: rows[-1][k] for k in ("uniform", "nonuniform", "saving")},
                paper_regime=paper)


# ------------------------------------------------------------ reporting
# One function per report section, each ``(results, cfg) -> markdown``.
# EXPERIMENTS.md is the header plus every section whose results key is
# present; running only some sections prints the sections of their results.


def save_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, default=float)


def message_order(msgs: dict) -> str:
    """``ALGOS`` from most to fewest messages, e.g. ``exact > baseline >
    uniform > nonuniform``; ``=`` joins equal counts."""
    order = sorted(ALGOS, key=lambda a: -msgs[a])
    out = order[0]
    for prev, a in zip(order, order[1:]):
        out += (" = " if msgs[a] == msgs[prev] else " > ") + a
    return out


def message_ordering_lines(tables23: dict) -> list[str]:
    """Markdown lines saying on which networks the measured message
    ordering matches the paper's Table 3 and, for each that does not,
    both orderings."""
    nets = [n for n in NETWORKS if n in tables23]
    ours = {n: message_order({a: tables23[n][a]["messages"] for a in ALGOS}) for n in nets}
    paper = {n: message_order(PAPER_TABLE3[n]) for n in nets}
    off = [n for n in nets if ours[n] != paper[n]]
    same = ", ".join(n.upper() for n in nets if n not in off)
    if not off:
        return [f"The message ordering matches the paper on every network ({same})."]
    head = ", ".join(n.upper() for n in off)
    if same:
        head += f"; it matches on {same}"
    return [
        f"The message ordering (most to fewest) does not match the paper on {head}:",
        "",
        *(f"- {n.upper()}: ours {ours[n]}; paper {paper[n]}." for n in off),
    ]


def _md(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _table(head: list[str], rows) -> list[str]:
    """A markdown table: the header cells, then one line per row of cells."""
    return [
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
        *("| " + " | ".join(map(str, row)) + " |" for row in rows),
    ]


def _reductions(hist: dict) -> list[tuple[int, float]]:
    """Figure 9's ``(m, exact/nonuniform messages)`` per checkpoint."""
    return [
        (hist["exact"][i][0], hist["exact"][i][1] / max(hist["nonuniform"][i][1], 1))
        for i in range(1, len(hist["exact"]))
    ]


def fig9_lines(r: dict) -> list[str]:
    """Table 3's sentence on how the reduction grows with m, computed
    from Figure 9's run; none without one."""
    if "fig9" not in r:
        return []
    red = _reductions(r["fig9"])
    grows = all(b >= a for (_, a), (_, b) in zip(red, red[1:]))
    out = (
        f"The reduction {'grows' if grows else 'does not grow steadily'} with m "
        f"(Figure 9 below, {r['fig9_network'].upper()}): it reaches "
        f"{red[-1][1]:.1f}x at m={red[-1][0]:,}"
    )
    doubled = [i for i in range(1, len(red)) if red[i][0] >= 2 * red[i - 1][0]]
    if doubled:
        (m0, r0), (m1, r1) = red[doubled[-1] - 1], red[doubled[-1]]
        out += (
            f", and over the last doubling of m ({m0:,} → {m1:,} events) it "
            f"went {r0:.1f}x → {r1:.1f}x, {r1 / r0:.1f}x per doubling"
        )
    return [out + "."]


def fig5_lines(rows: list[dict]) -> list[str]:
    """Figures 3-8's sentence on the approximation error (vs EXACTMLE)
    as m grows, computed from the rows."""
    errs = [[row[f"{a}_err_mle"] for a in APPROX] for row in rows]
    nonzero = [i for i, e in enumerate(errs) if max(e) > 0]
    if not nonzero:
        return ["Error vs EXACTMLE (approximation error) is 0 at every m."]
    i = nonzero[0]
    (lo0, hi0), (lo1, hi1) = (min(errs[i]), max(errs[i])), (min(errs[-1]), max(errs[-1]))
    zero = f" is 0 up to m={rows[i - 1]['m']:,} and" if i else ""
    return [
        f"Error vs EXACTMLE (approximation error){zero} "
        f"{'rises' if hi1 > hi0 else 'does not rise'} from {lo0:.4f}–{hi0:.4f} "
        f"at m={rows[i]['m']:,} to {lo1:.4f}–{hi1:.4f} at m={rows[-1]['m']:,} "
        f"(the range over {', '.join(APPROX)})."
    ]


def guarantee_lines(tables23: dict, eps: float) -> list[str]:
    """Table 2's sentence on Definition 2 per query: the largest share of
    test queries with ``|log P~ - log P^| > eps`` over the approximate
    algorithms and networks, and the range of their mean error vs
    EXACTMLE against ``e^eps - 1``."""
    nets = [n for n in NETWORKS if n in tables23]
    cells = [(tables23[n][a], a, n) for n in nets for a in APPROX]
    worst, algo, net = max(cells, key=lambda c: c[0]["past_eps"])
    errs = [c[0]["err_mle"] for c in cells]
    bound = np.expm1(eps)
    per_query = (
        "holds for every test query"
        if worst["past_eps"] == 0
        else f"fails for up to {worst['past_eps']:.1%} of the test queries "
        f"({algo} on {net.upper()})"
    )
    return [
        f"Definition 2 per query (|log P̃ − log P̂| ≤ eps={eps} against EXACTMLE) "
        f"{per_query}. The mean error vs EXACTMLE is {min(errs):.4f}–{max(errs):.4f} "
        f"over {', '.join(APPROX)} on {', '.join(n.upper() for n in nets)}, "
        f"{'below' if max(errs) < bound else 'not below'} e^eps − 1 = {bound:.4f}."
    ]


def fig10_lines(rows: list[dict]) -> list[str]:
    """Figure 10's sentences on how each error moves with eps, computed
    from the rows (the range is over the approximate algorithms)."""

    def move(what: str, suffix: str) -> str:
        lo, hi = [[row[f"{a}{suffix}"] for a in APPROX] for row in (rows[0], rows[-1])]
        return (
            f"{what} {'rises' if max(hi) > max(lo) else 'does not rise'} with eps, "
            f"from {min(lo):.4f}–{max(lo):.4f} at eps={rows[0]['eps']} to "
            f"{min(hi):.4f}–{max(hi):.4f} at eps={rows[-1]['eps']}"
        )

    exact = sorted({round(row["exact_err_gt"], 4) for row in rows})
    return [
        move("Error vs EXACTMLE", "_err_mle") + f" (the range over {', '.join(APPROX)}).",
        move("Error vs ground truth", "_err_gt")
        + f", against EXACTMLE's {'–'.join(f'{e:.4f}' for e in exact)}.",
    ]


def _err_table(first: str, rows: list[tuple]) -> list[str]:
    """Figures 3-8 and 10: every algorithm's error vs the ground truth,
    then every approximate one's vs EXACTMLE, one row per sweep point."""
    keys = ["exact_err_gt", *(f"{a}_err_gt" for a in APPROX),
            *(f"{a}_err_mle" for a in APPROX)]
    head = [k.replace("_err_gt", " err(GT)").replace("_err_mle", " err(MLE)") for k in keys]
    return _table([first, *head], ([x, *(f"{row[k]:.4f}" for k in keys)] for x, row in rows))


def render_header(cfg: Config) -> str:
    return _md([
        "# EXPERIMENTS — paper vs measured",
        "",
        "Reproduction of *Learning Graphical Models from a Distributed Stream*",
        "(Zhang, Tirthapura, Cormode — ICDE 2018). Regenerate with",
        "`python jobs/run_all.py` (knobs: `REPRO_M`, `REPRO_K`, `REPRO_EPS`,",
        "`REPRO_TESTS`, `REPRO_SEED`, `REPRO_PROTO_C`; see DESIGN.md).",
        "",
        f"Run configuration: m={cfg.m:,} training events, k={cfg.k} sites, "
        f"eps={cfg.eps}, {cfg.n_tests} test events, proto_c={cfg.proto_c}, "
        f"seed={cfg.seed}.",
        "",
        "Substitutions that affect absolute numbers (DESIGN.md §5): the",
        "networks are synthetic stand-ins matched to Table 1's shape; the",
        "distributed-counter reporting constant `proto_c` is calibrated so",
        "the counters operate in the thinning regime the paper's",
        "implementation shows. At it the (eps, delta) guarantee of",
        "Definition 2 is met in the mean, not for every query: Table 2's",
        "section gives the measured share of test queries past eps.",
        "Compare *shapes* (orderings, relative gaps, growth in m), not raw",
        "message counts.",
        "",
    ])


def render_table1(r: dict, cfg: Config) -> str:
    rows = [
        [x["network"].upper(), f"{x['nodes']} / {x['paper_nodes']}",
         f"{x['edges']} / {x['paper_edges']}", f"{x['params']:,} / {x['paper_params']:,}"]
        for x in r["table1"]
    ]
    head = ["Dataset", *(f"{c} (ours/paper)" for c in ("Nodes", "Edges", "Parameters"))]
    return _md(["## Table 1 — networks used in the experiments", "", *_table(head, rows), ""])


def _ours_paper(t: dict, cell) -> list[str]:
    """Table 2 or 3: one row per network, ``cell(name, algo)`` per algorithm."""
    return _table(
        ["Dataset", *(f"{a} (ours/paper)" for a in ALGOS)],
        ([n.upper(), *(cell(n, a) for a in ALGOS)] for n in NETWORKS if n in t),
    )


def render_table2(r: dict, cfg: Config) -> str:
    t = r["tables23"]
    return _md([
        f"## Table 2 — classification error rate ({cfg.m:,} training instances)",
        "",
        *_ours_paper(t, lambda n, a: f"{t[n][a]['cls_err']:.3f} / {PAPER_TABLE2[n][a]:.3f}"),
        "",
        "The reproduction target is the paper's qualitative finding: the",
        "approximate algorithms classify essentially as well as EXACTMLE",
        "(differences within test noise).",
        "",
        *guarantee_lines(t, cfg.eps),
        "",
    ])


def render_table3(r: dict, cfg: Config) -> str:
    t = r["tables23"]
    reduction = [
        [n.upper(), f"{t[n]['exact']['messages'] / t[n]['nonuniform']['messages']:.1f}x",
         f"{PAPER_TABLE3[n]['exact'] / PAPER_TABLE3[n]['nonuniform']:.1f}x"]
        for n in NETWORKS if n in t
    ]
    return _md([
        f"## Table 3 — messages to learn the classifier ({cfg.m:,} instances)",
        "",
        *_ours_paper(t, lambda n, a: f"{t[n][a]['messages']:,} / {PAPER_TABLE3[n][a]:,}"),
        "",
        *_table(["Dataset", "exact/nonuniform reduction (ours)", "(paper)"], reduction),
        "",
        *message_ordering_lines(t),
        "",
        "Absolute reductions at m=50K are smaller",
        "because our guarantee-preserving counter constant thins later than",
        "the paper's implementation (DESIGN.md #5) — on LINK/MUNIN the mass",
        "is spread over 10-100x more counters, so at 50K events most",
        "counters are still below their thinning threshold.",
        *fig9_lines(r),
        "",
    ])


def render_fig9(r: dict, cfg: Config) -> str:
    hist = r["fig9"]
    rows = (
        [f"{m:,}", *(f"{hist[a][i][1]:,}" for a in ALGOS), f"{red:.1f}x"]
        for i, (m, red) in enumerate(_reductions(hist), start=1)
    )
    return _md([
        "## Figure 9 (supplementary) — messages vs training points",
        "",
        f"Network: {r['fig9_network']}. EXACTMLE grows linearly; the",
        "approximate algorithms logarithmically — the paper's 100-1000x",
        "claim is this widening gap.",
        "",
        *_table(["m", *ALGOS, "exact/nonuniform"], rows),
        "",
    ])


def render_fig5(r: dict, cfg: Config) -> str:
    return _md([
        "## Figures 3-8 (supplementary) — testing error vs training points",
        "",
        f"Network: {r['fig5_network']}. Error vs ground truth falls with m",
        "(statistical error) — the paper's Figures 5 and 8.",
        *fig5_lines(r["fig5"]),
        "",
        *_err_table("m", ((f"{row['m']:,}", row) for row in r["fig5"])),
        "",
    ])


def render_fig10(r: dict, cfg: Config) -> str:
    return _md([
        "## Figure 10 (supplementary) — error vs eps",
        "",
        f"Network: {r['fig10_network']}, m={cfg.m:,}.",
        *fig10_lines(r["fig10"]),
        "",
        *_err_table("eps", ((row["eps"], row) for row in r["fig10"])),
        "",
    ])


def render_fig11a(r: dict, cfg: Config) -> str:
    rows = ([row["k"], *(f"{row[a]:,}" for a in ALGOS)] for row in r["fig11a"])
    return _md([
        "## Figure 11(a) (supplementary) — messages vs number of sites k",
        "",
        *_table(["k", *ALGOS], rows),
        "",
    ])


def render_fig11b(r: dict, cfg: Config) -> str:
    b, pr = r["fig11b"], r["fig11b"]["paper_regime"]
    rows = (
        [f"{x['m']:,}", f"{x['uniform']:,}", f"{x['nonuniform']:,}", f"{x['saving']:.1%}"]
        for x in b["rows"]
    )
    return _md([
        "## Figure 11(b) (supplementary) — NEW-ALARM: UNIFORM vs NONUNIFORM",
        "",
        *_table(["m", "uniform", "nonuniform", "NONUNIFORM saving"], rows),
        "",
        f"At the calibrated `proto_c` the saving reaches {b['saving']:.1%} "
        f"by m={b['m']:,} and keeps growing (paper: ~35%); the paper's",
        "value is the asymptotic regime where every counter of the",
        "high-cardinality variables is past its thinning threshold, which",
        "our guarantee-preserving constant reaches only at larger m",
        "(DESIGN.md substitution #5).",
        "",
        f"At the paper's operating point (`proto_c={pr['proto_c']}`, "
        f"guarantee no longer provable): uniform={pr['uniform']:,}, "
        f"nonuniform={pr['nonuniform']:,} — saving {pr['saving']:.1%}, "
        "approaching the paper's ~35% (the asymptotic limit of the "
        "allocation is ~41% for this network).",
        "",
    ])


#: Report sections in order, each with the results key it renders.
SECTIONS = [
    ("table1", render_table1), ("tables23", render_table2), ("tables23", render_table3),
    ("fig9", render_fig9), ("fig5", render_fig5), ("fig10", render_fig10),
    ("fig11a", render_fig11a), ("fig11b", render_fig11b),
]


#: Each section of ``jobs/run_all.py``, in report order: ``cfg -> {results
#: key: value}`` with its runner, sweep parameters and path (Spark or
#: driver), all looked up when it runs; only Spark sections start a session.
RUNS = {
    "table1": lambda cfg: {"table1": table1_rows()},
    "tables23": lambda cfg: {"tables23": run_tables23(get_spark(), cfg, NETWORKS)},
    "fig9": lambda cfg: {"fig9_network": FIG9_NETWORK,
                         "fig9": comm_vs_m(get_spark(), FIG9_NETWORK, FIG9_M, cfg)},
    "fig5": lambda cfg: {"fig5_network": FIG5_NETWORK,
                         "fig5": error_vs_m(get_spark(), FIG5_NETWORK, FIG5_M, cfg)},
    "fig10": lambda cfg: {"fig10_network": FIG10_NETWORK,
                          "fig10": error_vs_eps(FIG10_NETWORK, FIG10_EPS, cfg)},
    "fig11": lambda cfg: {"fig11a": comm_vs_k(FIG11A_NETWORK, FIG11A_K, cfg),
                          "fig11b": new_alarm_comm(get_spark(), FIG11B_M, cfg)},
}


def render_sections(r: dict, cfg: Config) -> str:
    """Every report section whose results key is in ``r``, in order."""
    return "".join(render(r, cfg) for key, render in SECTIONS if key in r)


def render_experiments_md(r: dict, cfg: Config) -> str:
    """Render the full paper-vs-measured report (EXPERIMENTS.md)."""
    return render_header(cfg) + render_sections(r, cfg)
