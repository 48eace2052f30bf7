"""Tables 2 and 3: classification error rate and messages to learn the
classifier, from the same training runs (50K training instances, 1000
tests; REPRO_M / REPRO_TESTS to override).

Usage: spark-submit jobs/tables23.py [network ...]
"""
import sys

from repro import experiments as ex


def main() -> None:
    cfg = ex.Config()
    results = {"tables23": ex.run_tables23(ex.get_spark(), cfg, sys.argv[1:] or ex.NETWORKS)}
    print(ex.render_sections(results, cfg), end="")


if __name__ == "__main__":
    main()
