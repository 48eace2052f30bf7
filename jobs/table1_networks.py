"""Table 1: the networks used in the experiments (paper vs stand-ins).

Usage: python jobs/table1_networks.py   (no Spark needed)
"""
from repro import experiments as ex


def main() -> None:
    print(ex.render_sections({"table1": ex.table1_rows()}, ex.Config()), end="")


if __name__ == "__main__":
    main()
