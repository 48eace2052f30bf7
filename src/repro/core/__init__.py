"""The paper's contribution: communication-efficient continuous
maintenance of an approximate MLE of a Bayesian network over a
distributed stream. The package re-exports nothing; import the
submodule:

* :mod:`repro.core.budget` — per-variable counter error parameters for
  BASELINE (Sec 4.3), UNIFORM (Sec 4.4), NONUNIFORM (Sec 4.5, Lagrange
  solution Eqs 7-8) and the Naive-Bayes specialization (Eq 9).
* :mod:`repro.core.model` — Algorithm 3 queries over counter estimates.
* :mod:`repro.core.learner` — the algorithm registry and the
  ``Learner`` every driver feeds micro-batch aggregates to.
* :mod:`repro.core.classify` — Bayesian classification (Sec 5.3).
"""
