"""Stub kept because ``perfbench/run.py`` imports this module and reads
``USING_NUMBA`` for its context line; the file goes at the next benchmark
change."""

USING_NUMBA = False
