"""Every jobs/ entrypoint runs and prints its sections of EXPERIMENTS.md.

The smoke tests shrink the scale knobs (jobs read them from env);
``get_spark`` resolves to the session-scoped test Spark via
``getOrCreate``. The stubbed tests replace each job's runners with the
committed results and check that the job prints exactly the sections
``render_experiments_md`` gives for them, with the runners called at the
sweep parameters ``repro.experiments`` declares.
"""
import importlib.util
import json
import os
import sys

import pytest

from repro import experiments as ex

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
JOBS = os.path.join(ROOT, "jobs")


def load_job(name):
    spec = importlib.util.spec_from_file_location(
        f"jobs_{name}", os.path.join(JOBS, f"{name}.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture()
def tiny_env(monkeypatch):
    monkeypatch.setenv("REPRO_M", "3000")
    monkeypatch.setenv("REPRO_K", "5")
    monkeypatch.setenv("REPRO_TESTS", "100")


class TestJobEntrypoints:
    def test_table1(self, capsys):
        load_job("table1_networks").main()
        out = capsys.readouterr().out
        assert "ALARM" in out and "MUNIN" in out
        assert "509" in out  # paper param target shown

    @staticmethod
    def tables23_sections(capsys, monkeypatch):
        """The merged tables23 job's output, split at the Table 3 heading."""
        monkeypatch.setattr(sys, "argv", ["tables23", "alarm"])
        load_job("tables23").main()
        out = capsys.readouterr().out
        table2, sep, table3 = out.partition("## Table 3")
        assert sep, out
        return table2, sep + table3

    def test_table2(self, spark, tiny_env, capsys, monkeypatch):
        table2, _ = self.tables23_sections(capsys, monkeypatch)
        assert "Table 2" in table2 and "ALARM" in table2 and "paper" in table2

    def test_table3(self, spark, tiny_env, capsys, monkeypatch):
        _, table3 = self.tables23_sections(capsys, monkeypatch)
        assert "Table 3" in table3 and "ALARM" in table3
        assert "222,000" in table3  # exact = 2 * 3000 * 37

    def test_fig9(self, spark, tiny_env, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fig9", "alarm", "5000"])
        load_job("fig9_comm_vs_m").main()
        out = capsys.readouterr().out
        assert "Figure 9" in out and "x" in out

    def test_fig10(self, tiny_env, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fig10", "alarm"])
        load_job("fig10_error_vs_eps").main()
        out = capsys.readouterr().out
        assert "Figure 10" in out

    def test_fig11(self, spark, tiny_env, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fig11", "4000"])
        load_job("fig11_comm").main()
        out = capsys.readouterr().out
        assert "Figure 11(a)" in out and "Figure 11(b)" in out

    def test_streaming_demo(self, spark, tiny_env, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["streaming_demo", "alarm", "2000"])
        load_job("streaming_demo").main()
        out = capsys.readouterr().out
        assert "micro-batches" in out and "messages" in out


@pytest.fixture()
def committed(monkeypatch):
    """The committed results, with Spark stubbed out and no env knobs."""
    for v in ["REPRO_M", "REPRO_K", "REPRO_EPS", "REPRO_TESTS", "REPRO_SEED", "REPRO_PROTO_C"]:
        monkeypatch.delenv(v, raising=False)
    monkeypatch.setattr(ex, "get_spark", lambda: None)
    with open(os.path.join(ROOT, "results", "results.json")) as f:
        return json.load(f)


def stub(monkeypatch, name, value, calls):
    """Replace runner ``ex.<name>`` by one returning ``value`` and
    recording its arguments, ``Config`` left out, in ``calls[name]``."""
    def runner(*args, **kw):
        calls[name] = (tuple(a for a in args if not isinstance(a, ex.Config)), kw)
        return value
    monkeypatch.setattr(ex, name, runner)


# job, argv, {runner: the results key it fills}, the other results keys
# the job sets, and {runner: (positional args, keyword args)} it must be
# called with (Config left out; the Spark session is the stub's None).
STUBBED = [
    ("table1_networks", [], {"table1_rows": "table1"}, {}, {"table1_rows": ((), {})}),
    ("tables23", [], {"run_tables23": "tables23"}, {},
     {"run_tables23": ((None, ex.NETWORKS), {})}),
    ("tables23", ["hepar2", "munin"], {"run_tables23": "tables23"}, {},
     {"run_tables23": ((None, ["hepar2", "munin"]), {})}),
    ("fig9_comm_vs_m", [], {"comm_vs_m": "fig9"}, {"fig9_network": ex.FIG9_NETWORK},
     {"comm_vs_m": ((None, ex.FIG9_NETWORK, ex.FIG9_M), {})}),
    ("fig9_comm_vs_m", ["hepar2", "5000"], {"comm_vs_m": "fig9"}, {"fig9_network": "hepar2"},
     {"comm_vs_m": ((None, "hepar2", 5000), {})}),
    ("fig5_error_vs_m", [], {"error_vs_m": "fig5"}, {"fig5_network": ex.FIG5_NETWORK},
     {"error_vs_m": ((None, ex.FIG5_NETWORK, ex.FIG5_M), {})}),
    ("fig10_error_vs_eps", [], {"error_vs_eps": "fig10"}, {"fig10_network": ex.FIG10_NETWORK},
     {"error_vs_eps": ((ex.FIG10_NETWORK, ex.FIG10_EPS), {})}),
    ("fig11_comm", [], {"comm_vs_k": "fig11a", "new_alarm_comm": "fig11b"}, {},
     {"comm_vs_k": ((ex.FIG11A_NETWORK, ex.FIG11A_K), {}),
      "new_alarm_comm": ((None, ex.FIG11B_M), {})}),
]


@pytest.mark.parametrize(
    "job, argv, runners, extra, args", STUBBED, ids=["-".join([s[0], *s[1]]) for s in STUBBED]
)
def test_job_prints_its_report_sections(job, argv, runners, extra, args, committed,
                                        monkeypatch, capsys):
    calls: dict = {}
    for name, key in runners.items():
        stub(monkeypatch, name, committed[key], calls)
    monkeypatch.setattr(sys, "argv", [job, *argv])
    load_job(job).main()
    out = capsys.readouterr().out
    assert calls == args
    results = {**{key: committed[key] for key in runners.values()}, **extra}
    cfg = ex.Config()
    assert out.startswith("## ")
    assert ex.render_header(cfg) + out == ex.render_experiments_md(results, cfg)
