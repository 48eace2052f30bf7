"""Standalone engines over a site ledger, fed as ``Learner.update`` feeds
them: each batch is added to the ledger once, then taken by every engine.
Also a way to force reporting probabilities, a snapshot of objects'
state, to show a refused batch moved nothing, and the check that one
``Learner`` over many specs trains what separate ``train_many`` calls
train."""
import numpy as np

from repro.core.learner import ALGORITHMS, Learner, Spec, train_many
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


#: Settings of one stream that differ only in ``eps``, and only in
#: ``proto_c``; every algorithm appears once per setting.
SWEEPS = {
    "eps": [dict(eps=0.1, proto_c=0.1), dict(eps=0.3, proto_c=0.1)],
    "proto_c": [dict(eps=0.1, proto_c=0.1), dict(eps=0.1, proto_c=0.01)],
}


def assert_one_learner_equals_separate_runs(spark, gt, settings, **kw) -> None:
    """One ``Learner`` over ``Spec.of`` of every registered algorithm at
    each setting, fed one aggregation of the stream, trains bit-for-bit
    what one ``train_many`` per setting trains: messages, history, model
    values and snapshots. ``kw`` holds ``m``, ``k``, ``seed`` and
    ``first_batch``."""
    algos = list(ALGORITHMS)
    runs = [Spec.of(algos, seed=kw["seed"], **setting) for setting in settings]
    learner = Learner(gt.net, [s for run in runs for s in run], k=kw["k"], collect_snapshots=True)
    res = learner.run(spark, gt, m=kw["m"], seed=kw["seed"], first_batch=kw["first_batch"])
    # The settings train different engines, so no spec stood in for another.
    assert res[runs[0][-1]].history != res[runs[1][-1]].history
    for setting, run in zip(settings, runs):
        ref = train_many(spark, gt, algos, collect_snapshots=True, **kw, **setting)
        for s in run:
            got, want = res[s], ref[s.algo]
            assert got.total_messages == want.total_messages, s
            assert got.history == want.history, s
            np.testing.assert_array_equal(got.model.values, want.model.values, err_msg=str(s))
            assert [e for e, _ in got.snapshots] == [e for e, _ in want.snapshots], s
            for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
                np.testing.assert_array_equal(a, b, err_msg=str(s))
