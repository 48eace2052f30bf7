"""The paper's contribution: communication-efficient continuous
maintenance of an approximate MLE of a Bayesian network over a
distributed stream.

* :mod:`repro.core.budget` — per-variable counter error parameters for
  BASELINE (Sec 4.3), UNIFORM (Sec 4.4), NONUNIFORM (Sec 4.5, Lagrange
  solution Eqs 7-8) and the Naive-Bayes specialization (Eq 9).
* :mod:`repro.core.model` — Algorithm 3 queries over counter estimates.
* :mod:`repro.core.learner` — the algorithm registry and the
  ``Learner`` every driver feeds micro-batch aggregates to.
* :mod:`repro.core.classify` — Bayesian classification (Sec 5.3).
"""
from repro.core.budget import counter_eps
from repro.core.model import CountModel
from repro.core.learner import train_many, TrainResult

__all__ = ["counter_eps", "CountModel", "train_many", "TrainResult"]
