"""Time what a fresh process pays before its first answer.

    PYTHONPATH=src python benchmarks/cold_start.py            # 5 reps
    PYTHONPATH=src python benchmarks/cold_start.py --quick    # 1 rep

Each case runs in its own fresh interpreter (``sys.executable``, the
caller's environment, so ``PYTHONPATH`` picks the tree) and is timed from
the parent, start to exit:

* ``import``: ``import repro.api, repro.store``;
* ``<backend>``: that import, then a first ``KCenterSession`` of the
  backend built, extended with 2,000 points of four 2-D clusters and
  solved (``insertion_only``, ``offline``, ``mpc_two_round``, ``dynamic``
  on integer points of ``[64]^2`` and ``sliding_window``);
* ``serve``: ``python -m repro.serve --port 0`` until its ready file
  appears (the server is then stopped and not timed).

Before timing, it checks the import contract in a fresh interpreter:
``import repro.api, repro.store`` loads no ``repro.mpc``,
``repro.engine``, ``repro.sketches`` or ``repro.streaming.*`` module,
no ``repro.persist.format``, and none of ``concurrent.futures.process``,
``multiprocessing`` and ``scipy``; a violation exits with status 1,
unless ``--no-check`` is given (to time a tree that predates the
contract).

The last stdout line is one flat JSON object of numbers for
``benchmarks/ab.py --extra``: ``forbidden_modules``, the number of those
modules the import loaded, and per case the median ``<case>_s`` and the
minimum ``<case>_min_s`` over the repetitions.  Cases alternate within
each repetition, so a slow spell of the machine spreads over all of
them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

#: modules ``import repro.api, repro.store`` must leave unloaded (a name
#: covers the module and everything below it)
NOT_AT_IMPORT = ("repro.mpc", "repro.engine", "repro.sketches",
                 "repro.streaming.", "repro.persist.format",
                 "concurrent.futures.process", "multiprocessing", "scipy")

_IMPORT = "import repro.api, repro.store"

_FIRST_SOLVE = _IMPORT + """
import numpy as np
from repro.api import KCenterSession, ProblemSpec
rng = np.random.default_rng(0)
pts = np.concatenate([rng.normal(c, 0.5, (500, 2))
                      for c in [(0, 0), (10, 0), (0, 10), (10, 10)]])
rng.shuffle(pts)
backend, options = {backend!r}, {options!r}
if backend == "dynamic":
    pts = np.clip(np.abs(pts).astype(int) + 1, 1, 64)
spec = ProblemSpec(k=4, z=20, eps=0.5, dim=2, seed=0)
sess = KCenterSession.from_spec(spec, backend=backend, **options)
sess.extend(pts)
assert sess.solve().radius > 0
"""

BACKENDS = {
    "insertion-only": {},
    "offline": {},
    "mpc-two-round": {},
    "dynamic": {"delta_universe": 64},
    "sliding-window": {"window": 1000, "r_min": 0.1, "r_max": 100.0},
}


def matches(module: str, names) -> bool:
    """Whether ``module`` is one of ``names`` or below one of them."""
    return any(module == n or module.startswith(n if n.endswith(".")
                                                else n + ".")
               for n in names)


def check_import_set() -> "list[str]":
    """The ``NOT_AT_IMPORT`` modules a fresh ``import repro.api,
    repro.store`` loads (empty when the contract holds)."""
    code = _IMPORT + "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return [m for m in json.loads(out.splitlines()[-1])
            if matches(m, NOT_AT_IMPORT)]


def _time_code(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _time_serve() -> float:
    """Seconds from starting ``python -m repro.serve`` to its ready file."""
    tmp = tempfile.mkdtemp(prefix="cold-start-")
    ready = os.path.join(tmp, "ready.json")
    cmd = [sys.executable, "-m", "repro.serve", "--port", "0",
           "--spool-dir", os.path.join(tmp, "spool"), "--ready-file", ready]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        while not os.path.exists(ready):
            if proc.poll() is not None or time.perf_counter() - t0 > 60:
                raise RuntimeError("python -m repro.serve did not start")
            time.sleep(0.002)
        return time.perf_counter() - t0
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def cases() -> "dict[str, object]":
    """Case name -> a callable returning one timing in seconds."""
    out = {"import": lambda: _time_code(_IMPORT)}
    for backend, options in BACKENDS.items():
        code = _FIRST_SOLVE.format(backend=backend, options=options)
        out[backend.replace("-", "_")] = lambda code=code: _time_code(code)
    out["serve"] = _time_serve
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="one repetition per case")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--no-check", action="store_true",
                    help="time even when the import set fails its check")
    args = ap.parse_args(argv)
    loaded = check_import_set()
    print(f"import set: {'ok' if not loaded else 'FAIL'} ({len(loaded)} "
          f"forbidden modules loaded{': ' if loaded else ''}"
          f"{', '.join(loaded)})")
    if loaded and not args.no_check:
        return 1
    timed = cases()
    times: "dict[str, list[float]]" = {name: [] for name in timed}
    for _ in range(1 if args.quick else args.reps):
        for name, fn in timed.items():
            times[name].append(fn())
    out = {"forbidden_modules": len(loaded)}
    for name, ts in times.items():
        out[f"{name}_s"] = statistics.median(ts)
        out[f"{name}_min_s"] = min(ts)
        print(f"{name:<16} median {out[f'{name}_s']:.3f} s  "
              f"min {out[f'{name}_min_s']:.3f} s  ({len(ts)} runs)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
