"""Every jobs/ entrypoint runs; ``run_all.py <section>`` prints that
section of EXPERIMENTS.md.

The smoke tests shrink the scale knobs (env) and the sweep constants;
``get_spark`` resolves to the session-scoped test Spark via
``getOrCreate``, except for ``streaming_demo.py``, which runs in its own
process and JVM. The stubbed tests replace every runner with the
committed results and check that each section prints exactly what
``render_experiments_md`` gives for them, with the runners called at the
sweep parameters ``repro.experiments`` declares.
"""
import importlib.util
import json
import os
import subprocess
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


def run_sections(*sections):
    load_job("run_all").main(list(sections))


class TestJobEntrypoints:
    def test_table1(self, capsys):
        run_sections("table1")
        out = capsys.readouterr().out
        assert "ALARM" in out and "MUNIN" in out
        assert "509" in out  # paper param target shown

    @staticmethod
    def tables23_sections(capsys, monkeypatch):
        """The tables23 section's output, split at the Table 3 heading."""
        monkeypatch.setattr(ex, "NETWORKS", ["alarm"])
        run_sections("tables23")
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
        monkeypatch.setattr(ex, "FIG9_NETWORK", "alarm")
        monkeypatch.setattr(ex, "FIG9_M", 5000)
        run_sections("fig9")
        out = capsys.readouterr().out
        assert "Figure 9" in out and "x" in out

    def test_fig10(self, tiny_env, capsys, monkeypatch):
        monkeypatch.setattr(ex, "FIG10_NETWORK", "alarm")
        run_sections("fig10")
        out = capsys.readouterr().out
        assert "Figure 10" in out

    def test_fig11(self, spark, tiny_env, capsys, monkeypatch):
        monkeypatch.setattr(ex, "FIG11B_M", 4000)
        run_sections("fig11")
        out = capsys.readouterr().out
        assert "Figure 11(a)" in out and "Figure 11(b)" in out

    def test_streaming_demo(self, tiny_env):
        """Run as spark-submit runs it, in its own JVM; when it exits, the
        socket directory holds no socket file it did not hold before."""
        sockets = ex.spark_socket_dir()
        before = set(sockets.glob("*.sock"))
        path = filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        out = subprocess.run(
            [sys.executable, os.path.join(JOBS, "streaming_demo.py"), "alarm", "2000"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "micro-batches" in out.stdout and "messages" in out.stdout
        assert set(sockets.glob("*.sock")) <= before


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


#: Each runner and the results key it fills.
RUNNERS = {
    "table1_rows": "table1", "run_tables23": "tables23", "comm_vs_m": "fig9",
    "error_vs_m": "fig5", "error_vs_eps": "fig10", "comm_vs_k": "fig11a",
    "new_alarm_comm": "fig11b",
}


@pytest.fixture()
def calls(committed, monkeypatch):
    """Every runner stubbed to return its committed results; the dict
    fills with the arguments of the runners called."""
    out: dict = {}
    for name, key in RUNNERS.items():
        stub(monkeypatch, name, committed[key], out)
    return out


# A label naming what the section shows, its section name, the results
# keys it sets besides its runners', and {runner: (positional args,
# keyword args)} it must call (Config left out; the Spark session is the
# stub's None).
STUBBED = [
    ("table1_networks", "table1", {}, {"table1_rows": ((), {})}),
    ("tables23", "tables23", {}, {"run_tables23": ((None, ex.NETWORKS), {})}),
    ("fig9_comm_vs_m", "fig9", {"fig9_network": ex.FIG9_NETWORK},
     {"comm_vs_m": ((None, ex.FIG9_NETWORK, ex.FIG9_M), {})}),
    ("fig5_error_vs_m", "fig5", {"fig5_network": ex.FIG5_NETWORK},
     {"error_vs_m": ((None, ex.FIG5_NETWORK, ex.FIG5_M), {})}),
    ("fig10_error_vs_eps", "fig10", {"fig10_network": ex.FIG10_NETWORK},
     {"error_vs_eps": ((ex.FIG10_NETWORK, ex.FIG10_EPS), {})}),
    ("fig11_comm", "fig11", {},
     {"comm_vs_k": ((ex.FIG11A_NETWORK, ex.FIG11A_K), {}),
      "new_alarm_comm": ((None, ex.FIG11B_M), {})}),
]


@pytest.mark.parametrize("section, extra, args", [s[1:] for s in STUBBED],
                         ids=[s[0] for s in STUBBED])
def test_job_prints_its_report_sections(section, extra, args, committed, calls, capsys):
    run_sections(section)
    out = capsys.readouterr().out
    assert calls == args
    results = {**{RUNNERS[name]: committed[RUNNERS[name]] for name in args}, **extra}
    cfg = ex.Config()
    assert out.startswith("## ")
    assert ex.render_header(cfg) + out == ex.render_experiments_md(results, cfg)


def test_unknown_section_exits_before_any_runner(calls, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_sections("table1", "fig99")
    assert exit_.value.code not in (0, None)
    assert "fig99" in str(exit_.value.code)
    assert all(name in str(exit_.value.code) for name in ex.RUNS)
    assert calls == {}
    assert capsys.readouterr().out == ""


def test_sections_fill_exactly_the_rendered_keys(committed, calls):
    """Every section fills at least one key the report renders, no two
    fill the same key, and together they fill every key ``SECTIONS``
    renders and nothing the committed results lack."""
    filled = {name: set(run(ex.Config())) for name, run in ex.RUNS.items()}
    rendered = {key for key, _ in ex.SECTIONS}
    assert all(keys & rendered for keys in filled.values())
    union = set().union(*filled.values())
    assert sum(map(len, filled.values())) == len(union)
    assert rendered <= union and union == set(committed)
    assert [s[1] for s in STUBBED] == list(ex.RUNS)
