"""Bayesian-network substrate.

The paper assumes a fixed-structure Bayesian network whose parameters
(CPDs) are learned from a distributed stream. This subpackage provides
the network structure (``structure``: DAG + cardinalities + flat counter
indexing), ground-truth CPDs (``cpd``), vectorized ancestral sampling
(``sampling``), and synthetic stand-ins for the paper's benchmark
networks (``networks``, Table 1). It re-exports nothing: import the
submodule.
"""
