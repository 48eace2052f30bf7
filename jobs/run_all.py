"""Run every experiment at full scale and regenerate EXPERIMENTS.md +
results/: the paper's tables (m=50K, k=30, eps=0.1, 1000 tests) plus
the supplementary figure-shaped sweeps.

Usage: spark-submit jobs/run_all.py
"""
import os
import time

from repro import experiments as ex


def main() -> None:
    cfg = ex.Config()
    spark = ex.get_spark()
    t0 = time.time()

    def stamp(label: str) -> None:
        print(f"[run_all] {label} done at {time.time()-t0:.0f}s", flush=True)

    results: dict = {"table1": ex.table1_rows()}
    stamp("table1")
    results["tables23"] = ex.run_tables23(spark, cfg)
    stamp("tables 2+3")
    results["fig9_network"] = ex.FIG9_NETWORK
    results["fig9"] = ex.comm_vs_m(spark, ex.FIG9_NETWORK, ex.FIG9_M, cfg)
    stamp("fig9")
    results["fig5_network"] = ex.FIG5_NETWORK
    results["fig5"] = ex.error_vs_m(spark, ex.FIG5_NETWORK, ex.FIG5_M, cfg)
    stamp("fig5")
    results["fig10_network"] = ex.FIG10_NETWORK
    results["fig10"] = ex.error_vs_eps(ex.FIG10_NETWORK, ex.FIG10_EPS, cfg)
    stamp("fig10")
    results["fig11a"] = ex.comm_vs_k(ex.FIG11A_NETWORK, ex.FIG11A_K, cfg)
    stamp("fig11a")
    results["fig11b"] = ex.new_alarm_comm(spark, ex.FIG11B_M, cfg)
    stamp("fig11b")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ex.save_json(os.path.join(root, "results", "results.json"), results)
    with open(os.path.join(root, "EXPERIMENTS.md"), "w") as f:
        f.write(ex.render_experiments_md(results, cfg))
    print(f"[run_all] wrote EXPERIMENTS.md and results/results.json "
          f"({time.time()-t0:.0f}s total)")


if __name__ == "__main__":
    main()
