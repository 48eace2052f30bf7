"""Figure 9 (supplementary table): communication cost vs number of
training points — the log-vs-linear headline claim.

Usage: spark-submit jobs/fig9_comm_vs_m.py [network] [m_max]
"""
import sys

from repro import experiments as ex


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else ex.FIG9_NETWORK
    m_max = int(sys.argv[2]) if len(sys.argv) > 2 else ex.FIG9_M
    cfg = ex.Config()
    results = {"fig9_network": name, "fig9": ex.comm_vs_m(ex.get_spark(), name, m_max, cfg)}
    print(ex.render_sections(results, cfg), end="")


if __name__ == "__main__":
    main()
