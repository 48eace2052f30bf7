"""Tests for the synth_data BN event-stream generator, with an oracle
check on its aggregation."""
import pandas as pd
import pytest

from repro import oracle, synth_data
from repro.bayesnet import networks


class TestBnEvents:
    def test_schema_and_scale(self, spark):
        df = synth_data.bn_events(spark, "alarm", sf=0.002, k=5, seed=1)
        net = networks.make("alarm")
        assert df.columns[:2] == ["event_id", "site"]
        assert len(df.columns) == 2 + net.n
        assert df.count() == 1000

    def test_sites_within_k(self, spark):
        df = synth_data.bn_events(spark, "alarm", sf=0.001, k=7, seed=1)
        row = df.selectExpr("min(site) lo", "max(site) hi").collect()[0]
        assert row.lo >= 0 and row.hi < 7

    def test_counts_oracle(self, spark):
        """BN event stream -> counter counts, oracle-checked end to end."""
        from repro.stream.aggregate import aggregate_events_df, duckdb_counts_sql

        net = networks.make("alarm")
        df = synth_data.bn_events(spark, "alarm", sf=0.002, k=4, seed=2)
        cid, sid, n = aggregate_events_df(spark, net, df, k=4)
        got = pd.DataFrame({"counter_id": cid, "site": sid, "n": n})
        oracle.assert_equivalent(
            got, duckdb_counts_sql(net), events=df.toPandas()
        )
