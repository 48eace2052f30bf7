"""The Python worker daemon: Spark tasks keep each zip archive's directory
and import the driver's ``repro``."""
import importlib
import os
import sys
import zipfile
import zipimport

import repro
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
