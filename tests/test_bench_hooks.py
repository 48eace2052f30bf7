"""The hooks ``perfbench/`` relies on stay in place.

The benchmark observes ``train_many`` from outside ``src/``: it patches
the module-global aggregation functions ``repro.core.learner`` calls and
reads each batch's ``lo, hi`` from their last two positional arguments.
If those hooks move, every benchmark call fails.
"""
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core import learner
from repro.stream.events import batch_ranges

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    """Every benchmark check fires on corrupted output (no Spark)."""
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("path", ["aggregate_generated", "aggregate_local"])
def test_train_many_calls_aggregation_with_batch_bounds_last(spark, path):
    gt = GroundTruth.random(networks.chain(4, J=3), seed=5)
    real = getattr(learner, path)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args[-2:])
        return real(*args, **kwargs)

    with mock.patch.object(learner, path, recorder):
        learner.train_many(
            spark if path == "aggregate_generated" else None,
            gt, ["exact"], m=5000, k=3, eps=0.1, seed=1, first_batch=512,
        )
    assert calls == batch_ranges(5000, first=512)


def test_spark_path_calls_aggregation_batch_by_batch(spark):
    """The Spark path hands perfbench one ``aggregate_generated`` call per
    micro-batch, in stream order, shaped as its trace hook unpacks it:
    ``(job, gt, lo, hi)`` positionally, ``k`` and ``seed`` by keyword."""
    gt = GroundTruth.random(networks.chain(4, J=3), seed=5)
    real = learner.aggregate_generated
    calls = []

    def recorder(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    with mock.patch.object(learner, "aggregate_generated", recorder):
        learner.train_many(
            spark, gt, ["exact"], m=20_000, k=3, eps=0.1, seed=1, first_batch=512,
        )
    assert [args[-2:] for args, _, _ in calls] == batch_ranges(20_000, first=512)
    for args, kwargs, (_, _, n) in calls:
        assert len(args) == 4 and args[1] is gt
        assert kwargs == {"k": 3, "seed": 1}
        lo, hi = args[-2:]
        assert n.sum() == 2 * gt.net.n * (hi - lo)
