"""Figure 10 (supplementary table): testing error vs the approximation
factor eps.

Usage: python jobs/fig10_error_vs_eps.py [network]
"""
import sys

from repro import experiments as ex


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else ex.FIG10_NETWORK
    cfg = ex.Config()
    results = {"fig10_network": name, "fig10": ex.error_vs_eps(name, ex.FIG10_EPS, cfg)}
    print(ex.render_sections(results, cfg), end="")


if __name__ == "__main__":
    main()
