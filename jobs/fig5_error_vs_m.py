"""Figures 3-8 (supplementary table): testing error vs number of
training points, relative to the ground truth and to EXACTMLE.

Usage: spark-submit jobs/fig5_error_vs_m.py [network] [m_max]
"""
import sys

from repro import experiments as ex


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else ex.FIG5_NETWORK
    m_max = int(sys.argv[2]) if len(sys.argv) > 2 else ex.FIG5_M
    cfg = ex.Config()
    results = {"fig5_network": name, "fig5": ex.error_vs_m(ex.get_spark(), name, m_max, cfg)}
    print(ex.render_sections(results, cfg), end="")


if __name__ == "__main__":
    main()
