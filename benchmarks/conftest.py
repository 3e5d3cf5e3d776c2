"""Shared benchmark configuration.

Each bench regenerates one Table-1 row group or figure mechanism (see the
experiment index, ``python -m repro.experiments --list``) and prints the measured rows; the timing
numbers from pytest-benchmark cover the core operation once (the drivers
are deterministic, so single-round pedantic timing is representative).
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` with a single round (drivers are too heavy for the
    default calibration loop) and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run
