"""Synthetic input at a configurable scale factor: the paper's
distributed Bayesian-network event stream, as a Spark DataFrame the
DuckDB oracle tests can also read."""
from pyspark.sql import DataFrame, SparkSession

_N_BN_EVENTS_PER_SF = 500_000


def bn_events(
    spark: SparkSession,
    network: str = "alarm",
    *,
    sf: float = 0.01,
    k: int = 30,
    seed: int = 0,
) -> DataFrame:
    """The evaluated paper's input: a horizontally-partitioned stream of
    training events sampled from a ground-truth Bayesian network.

    Schema: ``event_id, site, v0..v{n-1}`` — one categorical value per
    network variable, plus the (uniformly random) site that received the
    event. SF=1.0 is ~500K events (the paper's tables use 50K = SF 0.1
    of this scale; its figures up to 5M). Events are drawn from the
    repository's fixed stand-in (``networks.ground_truth(network)``),
    the network the learners are built for; ``seed`` seeds the stream
    only.
    """
    from repro.bayesnet import networks as _networks
    from repro.stream.events import events_pandas

    gt = _networks.ground_truth(network)
    m = max(1, int(_N_BN_EVENTS_PER_SF * sf))
    return spark.createDataFrame(events_pandas(gt, 0, m, k=k, seed=seed))
