"""The Python worker daemon: Spark tasks keep each zip archive's directory
and import the driver's ``repro``; the JVM talks to them over Unix domain
sockets in a private directory."""
import importlib
import os
import subprocess
import sys
import zipfile
import zipimport

import pytest

import repro
from repro import experiments
from repro.stream import daemon


def read_directory_calls(reset) -> int:
    """How many archive directories ``reset()`` reads."""
    calls = []
    orig = zipimport._read_directory
    zipimport._read_directory = lambda path: (calls.append(path), orig(path))[1]
    try:
        reset()
    finally:
        zipimport._read_directory = orig
    return len(calls)


def test_patch_applies_below_3_13_only(monkeypatch, tmp_path):
    archive = tmp_path / "mod.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("mod.py", "")
    importer = zipimport.zipimporter(str(archive))
    # Restores the class's own method after the test.
    monkeypatch.setattr(
        zipimport.zipimporter, "invalidate_caches", zipimport.zipimporter.invalidate_caches
    )
    own = zipimport.zipimporter.invalidate_caches

    monkeypatch.setattr(sys, "version_info", (3, 13, 0, "final", 0))
    assert not daemon.patch_zipimport()
    assert zipimport.zipimporter.invalidate_caches is own

    monkeypatch.setattr(sys, "version_info", (3, 12, 9, "final", 0))
    assert daemon.patch_zipimport()
    assert read_directory_calls(importer.invalidate_caches) == 0
    assert importer.find_spec("mod") is not None


def probe(_):
    """One task's archive reads in ``importlib.invalidate_caches()``, and
    the file its ``repro`` comes from."""
    import repro as task_repro

    yield read_directory_calls(importlib.invalidate_caches), task_repro.__file__


def test_tasks_keep_zip_directories_and_import_the_drivers_repro(spark):
    [(reads, path)] = spark.sparkContext.parallelize([0], 1).mapPartitions(probe).collect()
    assert reads == 0
    assert os.path.samefile(path, repro.__file__)


def worker_env(_):
    """The transport settings a task's worker was forked with."""
    yield os.environ.get("PYTHON_UNIX_DOMAIN_ENABLED"), os.environ.get(
        "PYTHON_WORKER_FACTORY_SOCK_DIR"
    )


def test_session_talks_to_its_workers_over_private_unix_sockets(spark):
    sc = spark.sparkContext
    sockets = str(experiments.spark_socket_dir())
    assert sc.getConf().get("spark.python.unix.domain.socket.enabled") == "true"
    address = sc._accumulatorServer.server_address
    assert isinstance(address, str) and os.path.dirname(address) == sockets
    [(enabled, sock_dir)] = sc.parallelize([0], 1).mapPartitions(worker_env).collect()
    # The JVM writes the flag as "True"; pyspark's daemon reads it lowercased.
    assert enabled.lower() == "true"
    assert sock_dir == sockets


#: Runs one job, prints its accumulator server's socket, then raises
#: without stopping its session.
UNSTOPPED = """
from repro.experiments import get_spark
sc = get_spark().sparkContext
sc.parallelize(range(4), 2).map(lambda x: x + 1).sum()
print(sc._accumulatorServer.server_address, flush=True)
raise SystemExit("exits without stop()")
"""


def test_process_that_never_stops_its_session_leaves_no_socket():
    """PySpark stops nothing at exit; ``get_spark``'s exit hook unlinks the
    accumulator server's socket, the one file the process would leave."""
    sockets = experiments.spark_socket_dir()
    before = set(sockets.glob("*.sock"))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", UNSTOPPED], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1 and "exits without stop()" in out.stderr, out.stderr
    sock = out.stdout.strip().splitlines()[-1]
    assert os.path.dirname(sock) == str(sockets) and not os.path.exists(sock)
    assert set(sockets.glob("*.sock")) <= before


def test_socket_dir_fits_af_unix_whatever_the_temp_dir(monkeypatch):
    """A socket path is the directory, '/' and ``.<uuid4>.sock`` (42
    characters); AF_UNIX takes 107 bytes."""
    long_tmp = "/" + "t" * 199
    monkeypatch.setenv("TMPDIR", long_tmp)
    monkeypatch.setenv("JAVA_TOOL_OPTIONS", f"-Djava.io.tmpdir={long_tmp}")
    path = experiments.spark_socket_dir()
    assert len(os.fsencode(path)) + 1 + 42 <= 107
    assert os.stat(path).st_mode & 0o777 == 0o700


def test_socket_dir_is_created_private(tmp_path):
    path = experiments.spark_socket_dir(str(tmp_path))
    assert path.parent == tmp_path and os.stat(path).st_mode & 0o777 == 0o700
    assert experiments.spark_socket_dir(str(tmp_path)) == path


def test_socket_dir_refuses_a_group_readable_directory(tmp_path):
    path = tmp_path / f"repro-spark-{os.getuid()}"
    path.mkdir(mode=0o700)
    path.chmod(0o755)
    with pytest.raises(ValueError, match=str(path)):
        experiments.spark_socket_dir(str(tmp_path))


def test_socket_dir_refuses_another_users_directory(tmp_path, monkeypatch):
    other = os.getuid() + 1
    path = tmp_path / f"repro-spark-{other}"
    path.mkdir(mode=0o700)
    monkeypatch.setattr(os, "getuid", lambda: other)
    with pytest.raises(ValueError, match=str(path)):
        experiments.spark_socket_dir(str(tmp_path))
