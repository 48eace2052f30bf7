"""Tests for the experiment harness (config, runners, report renderer)."""
import json
import os

import numpy as np
import pytest

from repro import experiments as ex
from repro.bayesnet import networks


@pytest.fixture()
def tiny_cfg(monkeypatch):
    for v in ["REPRO_M", "REPRO_K", "REPRO_EPS", "REPRO_TESTS", "REPRO_SEED"]:
        monkeypatch.delenv(v, raising=False)
    cfg = ex.Config()
    cfg.m = 4000
    cfg.k = 5
    cfg.n_tests = 100
    cfg.first_batch = 512
    return cfg


class TestConfig:
    def test_defaults(self, monkeypatch):
        for v in ["REPRO_M", "REPRO_K", "REPRO_EPS"]:
            monkeypatch.delenv(v, raising=False)
        cfg = ex.Config()
        assert cfg.m == 50_000 and cfg.k == 30 and cfg.eps == 0.1

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_M", "1234")
        monkeypatch.setenv("REPRO_PROTO_C", "0.5")
        cfg = ex.Config()
        assert cfg.m == 1234 and cfg.proto_c == 0.5

    @pytest.mark.parametrize("n_tests", ["0", "-3"])
    def test_rejects_no_test_events(self, monkeypatch, n_tests):
        """Every error rate is a share of the test events: an empty test
        set is refused when the config is built, not after training."""
        monkeypatch.setenv("REPRO_TESTS", n_tests)
        with pytest.raises(ValueError, match="REPRO_TESTS"):
            ex.Config()

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_rejects_no_training_events(self, monkeypatch, m):
        """Table 3 divides by EXACTMLE's messages: with no training events
        they are 0, so the config is refused before training."""
        monkeypatch.setenv("REPRO_M", m)
        with pytest.raises(ValueError, match="REPRO_M"):
            ex.Config()

    @pytest.mark.parametrize("var, value", [
        ("REPRO_K", "0"),
        ("REPRO_EPS", "0"),
        ("REPRO_EPS", "1.5"),
        ("REPRO_EPS", "nan"),
        ("REPRO_SEED", "-1"),
        ("REPRO_PROTO_C", "0"),
        ("REPRO_PROTO_C", "inf"),
    ])
    def test_rejects_setting_training_would_refuse(self, monkeypatch, var, value):
        """The engines and the budget refuse these only once training
        starts, after the ground truth is built (and, in Spark sections,
        the JVM started): the config refuses them first, naming the
        variable."""
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=var):
            ex.Config()


class TestPaperConstants:
    def test_table3_exact_is_2mn(self):
        """Sanity of transcription: the paper's EXACTMLE Table 3 rows are
        exactly 2 * 50K * n for each network."""
        for name, spec in networks.PAPER_NETWORKS.items():
            assert ex.PAPER_TABLE3[name]["exact"] == 2 * 50_000 * spec.n_nodes

    def test_tables_cover_all_networks(self):
        for name in ex.NETWORKS:
            assert set(ex.PAPER_TABLE2[name]) == set(ex.ALGOS)
            assert set(ex.PAPER_TABLE3[name]) == set(ex.ALGOS)

    def test_table1_rows_match_generator(self):
        for r in ex.table1_rows():
            assert r["nodes"] == r["paper_nodes"]
            assert r["edges"] == r["paper_edges"]
            assert abs(r["params"] - r["paper_params"]) / r["paper_params"] < 0.05


class TestRunners:
    def test_run_tables23_local_shape(self, tiny_cfg):
        out = ex.run_tables23(None, tiny_cfg, ["alarm"])
        assert set(out) == {"alarm"}
        for a in ex.ALGOS:
            cell = out["alarm"][a]
            assert cell["messages"] > 0
            assert 0 <= cell["cls_err"] <= 1
            assert cell["err_gt"] >= 0
        assert out["alarm"]["exact"]["err_mle"] == 0.0

    def test_evaluate_models_scores_each_model_once(self, tiny_cfg, monkeypatch):
        """EXACTMLE's log-probabilities are both its own score and the
        reference of every other algorithm's: computed once, not twice.
        The ground truth, a counter model over its CPDs, is scored once
        too."""
        from repro.core.model import CountModel

        gt = networks.ground_truth("alarm")
        res = ex._train(None, gt, tiny_cfg)
        scored: list[CountModel] = []
        log_prob = CountModel.log_prob

        def counted(model, X):
            scored.append(model)
            return log_prob(model, X)

        monkeypatch.setattr(CountModel, "log_prob", counted)
        ex.evaluate_models(gt, res, tiny_cfg)
        truth = [m for m in scored if all(m is not r.model for r in res.values())]
        assert len(truth) == 1 and truth[0].lam == 0.0
        np.testing.assert_array_equal(
            truth[0].values, CountModel.from_cpds(gt.net, gt.cpds).values
        )
        assert sorted(map(id, scored)) == sorted(map(id, [*truth, *(r.model for r in res.values())]))

    def test_comm_vs_k_monotone(self, tiny_cfg):
        rows = ex.comm_vs_k("alarm", [2, 20], tiny_cfg)
        assert rows[0]["exact"] == rows[1]["exact"]  # exact is k-free
        assert rows[0]["uniform"] <= rows[1]["uniform"]

    def test_error_vs_eps_rows(self, tiny_cfg):
        rows = ex.error_vs_eps("alarm", [0.1, 0.4], tiny_cfg)
        assert [r["eps"] for r in rows] == [0.1, 0.4]
        for r in rows:
            assert r["nonuniform_err_mle"] >= 0

    def test_error_vs_m_rows(self, tiny_cfg):
        rows = ex.error_vs_m(None, "alarm", 4000, tiny_cfg)
        assert [r["m"] for r in rows][-1] == 4000
        assert rows[-1]["exact_err_gt"] < rows[0]["exact_err_gt"] * 2

    def test_new_alarm_comm(self, tiny_cfg):
        out = ex.new_alarm_comm(None, 4000, tiny_cfg)
        assert out["uniform"] > 0 and out["nonuniform"] > 0

    @pytest.mark.parametrize("sweep", ["fig10", "fig11b"])
    def test_sweep_aggregates_its_stream_once(self, tiny_cfg, monkeypatch, sweep):
        """A sweep over eps or proto_c aggregates each batch of its stream
        once, not once per setting: the aggregation does not depend on
        either."""
        from repro.core import learner
        from repro.stream.events import batch_ranges

        calls = []
        aggregate_local = learner.aggregate_local

        def counted(gt, lo, hi, **kwargs):
            calls.append((lo, hi))
            return aggregate_local(gt, lo, hi, **kwargs)

        monkeypatch.setattr(learner, "aggregate_local", counted)
        if sweep == "fig10":
            ex.error_vs_eps("alarm", [0.05, 0.1, 0.4], tiny_cfg)
        else:
            ex.new_alarm_comm(None, tiny_cfg.m, tiny_cfg)
        assert calls == batch_ranges(tiny_cfg.m, first=tiny_cfg.first_batch)


class TestReport:
    def _tiny_results(self, tiny_cfg):
        out = ex.run_tables23(None, tiny_cfg, ["alarm"])
        return {
            "table1": ex.table1_rows(),
            "tables23": out,
            "fig11a": ex.comm_vs_k("alarm", [2, 4], tiny_cfg),
            "fig11b": ex.new_alarm_comm(None, 2000, tiny_cfg),
        }

    def test_render_markdown(self, tiny_cfg):
        md = ex.render_experiments_md(self._tiny_results(tiny_cfg), tiny_cfg)
        assert "# EXPERIMENTS" in md
        assert "Table 1" in md and "Table 2" in md and "Table 3" in md
        assert "ALARM" in md
        assert "paper" in md

    def test_save_json_roundtrip(self, tiny_cfg, tmp_path):
        res = {"x": np.float64(1.5), "rows": [{"a": 1}]}
        p = str(tmp_path / "sub" / "r.json")
        ex.save_json(p, res)
        with open(p) as f:
            back = json.load(f)
        assert back["x"] == 1.5


def test_message_ordering_is_computed_against_paper():
    """One network in the paper's Table 3 order and one not: only the
    second is named, with both orderings."""
    def table(msgs):
        return {a: {"messages": v} for a, v in zip(ex.ALGOS, msgs)}

    tables23 = {
        "alarm": table([9_000, 800, 400, 300]),  # paper order
        "munin": table([9_000, 800, 300, 400]),  # nonuniform above uniform
    }
    lines = ex.message_ordering_lines(tables23)
    text = "\n".join(lines)
    assert lines[0].startswith("The message ordering") and "does not match" in lines[0]
    assert "MUNIN" in lines[0] and "matches on ALARM" in lines[0]
    assert "- MUNIN: ours exact > baseline > nonuniform > uniform;" in text
    assert "- ALARM" not in text
    ok = ex.message_ordering_lines({"alarm": tables23["alarm"]})
    assert ok == ["The message ordering matches the paper on every network (ALARM)."]
    assert ex.message_order({"exact": 5, "baseline": 3, "uniform": 3, "nonuniform": 1}) == (
        "exact > baseline = uniform > nonuniform"
    )


def test_committed_report_is_the_render_of_committed_results(monkeypatch):
    """EXPERIMENTS.md is exactly what the renderer gives for the committed
    results at the default configuration."""
    for v in ["REPRO_M", "REPRO_K", "REPRO_EPS", "REPRO_TESTS", "REPRO_SEED", "REPRO_PROTO_C"]:
        monkeypatch.delenv(v, raising=False)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "results", "results.json")) as f:
        results = json.load(f)
    with open(os.path.join(root, "EXPERIMENTS.md")) as f:
        committed = f.read()
    assert ex.render_experiments_md(results, ex.Config()) == committed


class TestComputedSentences:
    @staticmethod
    def fig9(exact, nonuniform, ms):
        return {"fig9_network": "alarm", "fig9": {
            "exact": [[0, 0], *zip(ms, exact)], "nonuniform": [[0, 0], *zip(ms, nonuniform)],
        }}

    def test_fig9_clause(self):
        assert ex.fig9_lines({}) == []
        r = self.fig9([2000, 6000, 14000], [2000, 3000, 3500], [1000, 3000, 7000])
        assert ex.fig9_lines(r) == [
            "The reduction grows with m (Figure 9 below, ALARM): it reaches 4.0x at "
            "m=7,000, and over the last doubling of m (3,000 → 7,000 events) it went "
            "2.0x → 4.0x, 2.0x per doubling."
        ]
        # The last step (7,000 -> 9,000) is no doubling; the reduction falls.
        r = self.fig9([2000, 6000, 14000, 18000], [2000, 3000, 3500, 6000],
                      [1000, 3000, 7000, 9000])
        (line,) = ex.fig9_lines(r)
        assert line.startswith("The reduction does not grow steadily with m")
        assert "reaches 3.0x at m=9,000" in line and "(3,000 → 7,000 events)" in line

    @staticmethod
    def fig5(ms, errs):
        return [dict(m=m, **{f"{a}_err_mle": e for a, e in zip(ex.APPROX, es)})
                for m, es in zip(ms, errs)]

    def test_fig5_sentence(self):
        rows = self.fig5([100, 200, 400], [[0, 0, 0], [0.001, 0.003, 0.002], [0.02, 0.01, 0.04]])
        assert ex.fig5_lines(rows) == [
            "Error vs EXACTMLE (approximation error) is 0 up to m=100 and rises from "
            "0.0010–0.0030 at m=200 to 0.0100–0.0400 at m=400 (the range over baseline, "
            "uniform, nonuniform)."
        ]
        falling = self.fig5([100, 200], [[0.03, 0.02, 0.01], [0.001, 0.003, 0.002]])
        assert ex.fig5_lines(falling)[0].startswith(
            "Error vs EXACTMLE (approximation error) does not rise from 0.0100–0.0300 at m=100"
        )
        zero = self.fig5([100, 200], [[0, 0, 0], [0, 0, 0]])
        assert ex.fig5_lines(zero) == ["Error vs EXACTMLE (approximation error) is 0 at every m."]

    @staticmethod
    def fig10(eps, exact, gt, mle):
        return [dict(eps=e, exact_err_gt=x, **{f"{a}_err_gt": g for a, g in zip(ex.APPROX, gs)},
                     **{f"{a}_err_mle": m for a, m in zip(ex.APPROX, ms)})
                for e, x, gs, ms in zip(eps, exact, gt, mle)]

    def test_fig10_sentences(self):
        """Error vs ground truth is said to rise with eps when the
        approximate algorithms' worst error does, whatever EXACTMLE's."""
        rows = self.fig10([0.02, 0.4], [0.1287, 0.1287],
                          [[0.1290, 0.1289, 0.1290], [0.1895, 0.1969, 0.1835]],
                          [[0.0026, 0.0039, 0.0028], [0.1293, 0.1329, 0.1244]])
        assert ex.fig10_lines(rows) == [
            "Error vs EXACTMLE rises with eps, from 0.0026–0.0039 at eps=0.02 to "
            "0.1244–0.1329 at eps=0.4 (the range over baseline, uniform, nonuniform).",
            "Error vs ground truth rises with eps, from 0.1289–0.1290 at eps=0.02 to "
            "0.1835–0.1969 at eps=0.4, against EXACTMLE's 0.1287.",
        ]
        flat = self.fig10([0.02, 0.4], [0.13, 0.12], [[0.13] * 3, [0.12] * 3], [[0.01] * 3] * 2)
        lines = ex.fig10_lines(flat)
        assert lines[0].startswith("Error vs EXACTMLE does not rise with eps")
        assert lines[1].startswith("Error vs ground truth does not rise with eps")
        assert lines[1].endswith("against EXACTMLE's 0.1200–0.1300.")

    def test_guarantee_sentence(self):
        def cell(past, err):
            return dict(past_eps=past, err_mle=err)

        t = {"alarm": dict(baseline=cell(0.0, 0.02), uniform=cell(0.01, 0.03),
                           nonuniform=cell(0.041, 0.05)),
             "hepar2": dict(baseline=cell(0.0, 0.017), uniform=cell(0.016, 0.035),
                            nonuniform=cell(0.063, 0.047))}
        assert ex.guarantee_lines(t, 0.1) == [
            "Definition 2 per query (|log P̃ − log P̂| ≤ eps=0.1 against EXACTMLE) fails "
            "for up to 6.3% of the test queries (nonuniform on HEPAR2). The mean error vs "
            "EXACTMLE is 0.0170–0.0500 over baseline, uniform, nonuniform on ALARM, HEPAR2, "
            "below e^eps − 1 = 0.1052."
        ]
        for row in t.values():
            for c in row.values():
                c["past_eps"], c["err_mle"] = 0.0, 0.2
        (line,) = ex.guarantee_lines(t, 0.1)
        assert "holds for every test query" in line and "not below e^eps − 1" in line
