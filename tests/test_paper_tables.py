"""Tables 2 and 3 in miniature on all four paper networks: the paper's
message ordering and its "approximate classifiers match EXACTMLE"
finding, at m=10K on the driver path (the Spark path is pinned equal to
it by ``test_spark_endtoend.py``)."""
import pytest

from repro.bayesnet import networks
from repro.core import classify
from repro.core.learner import train_many
from repro.experiments import ALGOS, NETWORKS

M, K, EPS, SEED, PROTO_C = 10_000, 30, 0.1, 7, 0.1


@pytest.mark.parametrize("name", NETWORKS)
def test_table3_ordering_and_table2_closeness(name):
    gt = networks.ground_truth(name)
    res = train_many(
        None, gt, ALGOS, m=M, k=K, eps=EPS, seed=SEED, proto_c=PROTO_C
    )

    msgs = {a: res[a].total_messages for a in ALGOS}
    assert msgs["exact"] == 2 * M * gt.net.n
    # BASELINE's eps/(3n) counters may legitimately stay below their
    # thinning threshold at this scale on the large networks (every
    # update is forwarded, = exact); UNIFORM/NONUNIFORM must thin.
    assert msgs["baseline"] <= msgs["exact"]
    for a in ["uniform", "nonuniform"]:
        assert msgs[a] < msgs["exact"]
    assert msgs["uniform"] <= msgs["baseline"]

    Xt, targets = classify.make_tests(gt, 200, seed=SEED + 1)
    errs = {a: classify.error_rate(res[a].model, gt.net, Xt, targets) for a in ALGOS}
    for a in ["baseline", "uniform", "nonuniform"]:
        assert abs(errs[a] - errs["exact"]) < 0.08, (a, errs)
