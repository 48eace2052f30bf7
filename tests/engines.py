"""Standalone engines over a site ledger, fed as ``Learner.update`` feeds
them: each batch is added to the ledger once, then taken by every engine.
Also a snapshot of objects' state, to show a refused batch moved nothing."""
import numpy as np

from repro.distmon.batch import BatchCounterEngine, SiteLedger


def batch_engine(eps, k, **kwargs) -> BatchCounterEngine:
    """A ``BatchCounterEngine`` over a ledger of its own."""
    eps = np.asarray(eps, dtype=np.float64)
    return BatchCounterEngine(eps, SiteLedger(len(eps), k), **kwargs)


def feed(engines, cid, sid, n) -> None:
    """Add ``(cid, sid, n)`` to the ledger of ``engines`` (one engine, or a
    list sharing a ledger), then update each engine with it."""
    engines = engines if isinstance(engines, list) else [engines]
    engines[0].ledger.add(cid, sid, n)
    for e in engines:
        e.update(cid, sid, n)


def state(*objs) -> list[dict]:
    """Every attribute of ``objs``: arrays as bytes, generators by their
    state. Two snapshots are equal when nothing moved in between."""

    def value(v):
        if isinstance(v, np.ndarray):
            return v.tobytes()
        return v.bit_generator.state if isinstance(v, np.random.Generator) else v

    return [{k: value(v) for k, v in vars(o).items()} for o in objs]
