import os

# Master and driver memory are read at JVM launch, so they must be in
# PYSPARK_SUBMIT_ARGS before pyspark starts; pytest loads this file first.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '2g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402

# Bound now: tests that monkeypatch ``experiments.get_spark`` leave the
# session fixture on the real one.
from repro.experiments import get_spark  # noqa: E402


@pytest.fixture(scope="session")
def spark():
    """The jobs' SparkSession, shared by the whole test session."""
    s = get_spark()
    yield s
    s.stop()
