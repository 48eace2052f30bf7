"""Figure 11 (supplementary tables): (a) messages vs number of sites k
on ALARM; (b) UNIFORM vs NONUNIFORM on the heterogeneous NEW-ALARM.

Usage: spark-submit jobs/fig11_comm.py [m_for_new_alarm]
"""
import sys

from repro import experiments as ex


def main() -> None:
    m = int(sys.argv[1]) if len(sys.argv) > 1 else ex.FIG11B_M
    cfg = ex.Config()
    results = {
        "fig11a": ex.comm_vs_k(ex.FIG11A_NETWORK, ex.FIG11A_K, cfg),
        "fig11b": ex.new_alarm_comm(ex.get_spark(), m, cfg),
    }
    print(ex.render_sections(results, cfg), end="")


if __name__ == "__main__":
    main()
