"""Every example script compiles and runs end to end.

Each one is run in a subprocess and must exit cleanly with output.  This
covers the Protocol-only backend path (``composable_pipeline.py``) and
the public ``last_mbc`` / ``last_result`` attributes (``quickstart.py``,
``mpc_sensor_fleet.py``); all seven take a few seconds in total.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

SCRIPTS = [
    "quickstart.py",
    "graph_road_network.py",
    "mpc_sensor_fleet.py",
    "streaming_intrusion.py",
    "dynamic_inventory.py",
    "sliding_window_traffic.py",
    "composable_pipeline.py",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_compiles(script):
    py_compile.compile(str(EXAMPLES / script), doraise=True)


def test_all_examples_listed():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(SCRIPTS)
