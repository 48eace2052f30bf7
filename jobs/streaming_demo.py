"""Structured Streaming demo: learn the model with a real streaming query
(foreachBatch) over the stream staged as one parquet file per
micro-batch; the call deletes every file it writes.

Usage: spark-submit jobs/streaming_demo.py [network] [m]
"""
import sys

from repro.bayesnet import networks
from repro.experiments import Config, get_spark, stop_spark
from repro.stream.streaming import run_streaming_learner


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "alarm"
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    cfg = Config()
    out = run_streaming_learner(
        get_spark(), networks.ground_truth(name), ["exact", "nonuniform"],
        m=m, k=cfg.k, eps=cfg.eps, seed=cfg.seed, proto_c=cfg.proto_c,
    )
    print(f"streamed {m:,} events in {len(out['exact'].history) - 1} micro-batches")
    for algo, res in out.items():
        print(
            f"{algo}: {res.total_messages:,} messages, "
            f"model over {res.model.net.n_counters} counters"
        )


if __name__ == "__main__":
    try:
        main()
    finally:
        stop_spark()
