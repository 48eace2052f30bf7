"""Run the experiments of EXPERIMENTS.md: the paper's tables (m=50K,
k=30, eps=0.1, 1000 tests) plus the supplementary figure-shaped sweeps.

With no arguments, run every section and regenerate EXPERIMENTS.md and
results/results.json. With section names (``experiments.RUNS``: table1
tables23 fig9 fig5 fig10 fig11), run only those and print their part of
EXPERIMENTS.md, writing nothing. Progress goes to stderr.

Usage: spark-submit jobs/run_all.py [section ...]
"""
import os
import sys
import time

from repro import experiments as ex


def main(sections: list[str]) -> None:
    unknown = [s for s in sections if s not in ex.RUNS]
    if unknown:
        sys.exit(f"unknown sections {unknown}; known: {list(ex.RUNS)}")
    cfg = ex.Config()
    t0 = time.time()
    results: dict = {}
    for name in sections or ex.RUNS:
        results.update(ex.RUNS[name](cfg))
        print(f"[run_all] {name} done at {time.time()-t0:.0f}s", file=sys.stderr, flush=True)
    if sections:
        print(ex.render_sections(results, cfg), end="")
        return

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ex.save_json(os.path.join(root, "results", "results.json"), results)
    with open(os.path.join(root, "EXPERIMENTS.md"), "w") as f:
        f.write(ex.render_experiments_md(results, cfg))
    print(f"[run_all] wrote EXPERIMENTS.md and results/results.json "
          f"({time.time()-t0:.0f}s total)", file=sys.stderr)


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    finally:
        ex.stop_spark()
