"""Tests for the experiment harness (config, runners, report renderer)."""
import json

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
