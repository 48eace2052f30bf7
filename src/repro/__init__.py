"""Reproduction of "Learning Graphical Models from a Distributed Stream"
(Zhang, Tirthapura, Cormode — ICDE 2018) on PySpark.

Subpackages: ``bayesnet`` (network substrate), ``distmon`` (distributed
counter protocol), ``stream`` (Spark dataflow), ``core`` (the paper's
algorithms), plus ``experiments`` (table/figure harness, sweep
parameters and the EXPERIMENTS.md renderer).
"""
