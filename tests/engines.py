"""Standalone engines over a site ledger, fed as ``Learner.update`` feeds
them: each batch is added to the ledger once, then taken by every engine.
Also a way to force reporting probabilities, and a snapshot of objects'
state, to show a refused batch moved nothing."""
import numpy as np

from repro.distmon.batch import BatchCounterEngine, SiteLedger


def batch_engine(eps, k, **kwargs) -> BatchCounterEngine:
    """A ``BatchCounterEngine`` over a ledger of its own."""
    eps = np.asarray(eps, dtype=np.float64)
    return BatchCounterEngine(eps, SiteLedger(len(eps), k), **kwargs)


def force_p(e: BatchCounterEngine, p) -> None:
    """Set the engine's ``p`` (an array of ``e.nc``, or one value for all)
    and give a slot to each counter pushed below 1, as a round advance
    would. ``p`` never rises, so a counter with a slot must stay below 1."""
    e.p[:] = p
    assert np.all(e.p[e.ids] < 1.0), "p never rises"
    e._add_slots(np.flatnonzero((e.p < 1.0) & (e.slot < 0)))


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
