"""The import contract: ``import repro.api`` loads no backend family.

``import repro.api, repro.store`` loads the facade (spec, registry,
session, adapters) and what every session's solve uses; each backend
family (``repro.streaming.*``, ``repro.sketches``, ``repro.mpc`` with
``repro.engine``, the snapshot container format) loads when its first
session is built.  The lazy packages re-export every public name as the
very object its defining module holds, which is what the benchmark
tracer's rebinding and pickled process-pool tasks rely on.  The
fresh-process import check and its module list are
``benchmarks/cold_start.py``'s, which CI also runs with ``--quick``.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import pickle
import subprocess
import sys
import types

import pytest

from repro.api import available_backends

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "cold_start", ROOT / "benchmarks" / "cold_start.py")
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)

#: options that make every registered backend constructible
OPTIONS = {
    "dynamic": {"delta_universe": 64},
    "dynamic-deterministic": {"delta_universe": 64},
    "sliding-window": {"window": 50, "r_min": 0.1, "r_max": 10.0},
}

#: modules building a session of each backend must load; ``offline``
#: runs on the core alone
FAMILY = {
    "offline": (),
    "insertion-only": ("repro.streaming.insertion_only",),
    "ceccarello-stream": ("repro.streaming.baseline_ceccarello",),
    "dynamic": ("repro.streaming.dynamic", "repro.sketches.sparse_recovery"),
    "dynamic-deterministic": ("repro.streaming.dynamic_deterministic",
                              "repro.sketches.vandermonde"),
    "sliding-window": ("repro.streaming.sliding_window",),
    "mpc-two-round": ("repro.mpc.two_round", "repro.engine.executor"),
    "mpc-one-round": ("repro.mpc.one_round", "repro.engine.executor"),
    "mpc-multi-round": ("repro.mpc.multi_round", "repro.engine.executor"),
    "cpp-mpc-deterministic": ("repro.mpc.baselines", "repro.engine.executor"),
    "cpp-mpc-randomized": ("repro.mpc.baselines", "repro.engine.executor"),
}

_PROBE = """
import json, sys
import repro.api, repro.store
at_import = set(sys.modules)
spec = repro.api.ProblemSpec(k=2, z=1, eps=0.5, dim=2, seed=0)
repro.api.KCenterSession.from_spec(spec, backend=sys.argv[1],
                                   **json.loads(sys.argv[2]))
print(json.dumps(sorted(set(sys.modules) - at_import)))
"""


@pytest.fixture
def src_on_path(monkeypatch):
    """Fresh interpreters import this checkout's ``src``."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def _matching(modules, names) -> "list[str]":
    return [m for m in modules if cold_start.matches(m, names)]


def test_import_loads_no_backend_family(src_on_path):
    assert cold_start.check_import_set() == []


def test_every_backend_has_a_family():
    assert set(FAMILY) == set(available_backends())


@pytest.mark.parametrize("backend", sorted(FAMILY))
def test_building_a_session_loads_its_family(backend, src_on_path):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, backend,
         json.dumps(OPTIONS.get(backend, {}))],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    added = json.loads(proc.stdout.splitlines()[-1])
    assert set(FAMILY[backend]) <= set(added)
    # no other model's family comes along
    mpc = backend.startswith(("mpc", "cpp"))
    foreign = ("repro.streaming.", "repro.sketches") if mpc \
        else ("repro.mpc", "repro.engine")
    assert _matching(added, foreign) == []
    if backend == "insertion-only":  # nor do its siblings
        assert _matching(added, ("repro.streaming.",)) \
            == ["repro.streaming.insertion_only"]


def test_snapshot_error_is_one_class():
    import repro.api
    import repro.persist
    import repro.persist.format

    assert repro.api.SnapshotError is repro.persist.SnapshotError
    assert repro.api.SnapshotError is repro.persist.format.SnapshotError


LAZY_PACKAGES = ("repro", "repro.core", "repro.streaming", "repro.mpc",
                 "repro.engine", "repro.persist")

#: exported constants, which carry no ``__module__``: their defining module
CONSTANTS = {
    "RESULTS_DIR_ENV": "repro.engine.cache",
    **dict.fromkeys(("SNAPSHOT_FORMAT_VERSION",
                     "DEFAULT_MAX_DECOMPRESSED_BYTES",
                     "DEFAULT_MMAP_THRESHOLD", "MANIFEST_MEMBER",
                     "PAYLOAD_MEMBER"), "repro.persist.format"),
}


def _defined_in(name: str, obj) -> object:
    """``obj`` as its defining module holds it, found the way pickle
    finds it (``__module__`` and ``__qualname__``)."""
    if isinstance(obj, types.ModuleType):
        return sys.modules[obj.__name__]
    if name in CONSTANTS:
        return getattr(importlib.import_module(CONSTANTS[name]), name)
    owner = importlib.import_module(obj.__module__)
    for part in obj.__qualname__.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_exports_are_the_defining_objects(package):
    pkg = importlib.import_module(package)
    assert len(pkg.__all__) == len(set(pkg.__all__))
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        if name == "__version__":
            continue
        assert obj is _defined_in(name, obj), (package, name)
        assert name in dir(pkg)
        if callable(obj) and not isinstance(obj, types.ModuleType):
            assert pickle.loads(pickle.dumps(obj)) is obj, (package, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_resolves_every_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    pkg = importlib.import_module(package)
    assert set(namespace) == set(pkg.__all__)
    for name, obj in namespace.items():
        assert obj is getattr(pkg, name)


def test_unknown_name_raises_attribute_error():
    import repro.core
    import repro.mpc

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name  # noqa: B018
    assert not hasattr(repro.mpc, "no_such_name")


def test_rebinding_the_defining_module_is_seen(monkeypatch):
    # the tracer wraps a function where it is defined; the package's
    # export must follow instead of holding a stale copy
    import repro.core
    import repro.core.greedy

    def wrapped(*args, **kwargs):
        return None

    monkeypatch.setattr(repro.core.greedy, "charikar_greedy", wrapped)
    assert repro.core.charikar_greedy is wrapped
