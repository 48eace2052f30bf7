"""Spark's Python worker daemon, without each task's archive re-reads.

Spark forks its Python workers from one daemon process
(``spark.python.daemon.module``, which :func:`repro.experiments.get_spark`
points here). Before every task, the worker's ``setup_spark_files`` calls
``importlib.invalidate_caches()``. Before CPython 3.13 that makes every
``zipimport.zipimporter`` on the import path re-read its whole archive's
directory: 16 importers over ``pyspark.zip`` (1,328 entries) and the py4j
zip, 0.1-0.2 s of every task spent parsing 26,672 entries while the JVM
waits. From 3.13 the call only drops the cached directory, and the next
import from the archive reads it once.

The archives a worker imports from are Spark's own and the files shipped
with the job, which do not change while the worker runs, so below 3.13
the daemon lets each importer keep the directory it has read, then runs
pyspark's own daemon. Its workers fork from it and inherit the change.
"""
from __future__ import annotations

import sys
import zipimport


def _keep_directory(self: zipimport.zipimporter) -> None:
    """Keep the archive directory this importer has already read."""


def patch_zipimport() -> bool:
    """Below Python 3.13, make ``zipimporter.invalidate_caches`` keep the
    directory it has read; returns whether it did."""
    if sys.version_info >= (3, 13):
        return False
    zipimport.zipimporter.invalidate_caches = _keep_directory
    return True


if __name__ == "__main__":
    patch_zipimport()
    from pyspark.daemon import manager

    manager()
