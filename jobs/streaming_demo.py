"""Structured Streaming demo: stage the distributed stream as one parquet
file per micro-batch (written with pyarrow, no Spark job) and learn the
model with a real streaming query (foreachBatch).

Usage: spark-submit jobs/streaming_demo.py [network] [m]
"""
import sys
import tempfile

from repro.bayesnet import networks
from repro.experiments import Config, get_spark
from repro.stream.streaming import run_streaming_learner, stage_stream


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "alarm"
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    cfg = Config()
    gt = networks.ground_truth(name)
    d = tempfile.mkdtemp(prefix="repro-stream-")
    nb = stage_stream(gt, d, m=m, k=cfg.k, seed=cfg.seed)
    print(f"staged {nb} micro-batches under {d}")
    out = run_streaming_learner(
        get_spark(), gt, d, k=cfg.k, eps=cfg.eps,
        algos=["exact", "nonuniform"], seed=cfg.seed, proto_c=cfg.proto_c,
    )
    for algo, res in out.items():
        print(
            f"{algo}: {res.total_messages:,} messages, "
            f"model over {res.model.net.n_counters} counters"
        )


if __name__ == "__main__":
    main()
