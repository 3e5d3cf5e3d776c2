"""Pluggable parallel execution for per-machine (and per-experiment) work.

The paper's MPC model *is* parallelism — ``m`` machines with ``s``-bounded
memory computing between synchronous communication rounds — but the
simulator used to execute every machine sequentially in Python for-loops.
This module supplies the execution substrate the round protocols (and the
experiment runner) fan work out through:

* :class:`Executor` — the minimal protocol: an order-preserving ``map``.
* :class:`SerialExecutor` — the reference semantics (a list comprehension).
* :class:`ThreadExecutor` — ``concurrent.futures.ThreadPoolExecutor``;
  no serialization cost, but only the time spent inside C kernels
  (SciPy distance blocks, BLAS) releases the GIL.
* :class:`ProcessExecutor` — ``concurrent.futures.ProcessPoolExecutor``;
  separate interpreters, at the price of pickling tasks and results
  (task callables must be module-level).

Neither pool is a measured speedup.  The one recorded comparison, the
n=50,000 two-round instance of ``benchmarks/bench_engine_scaling.py``
on a 2-core VM (one run each), took 14.9 s serial, 19.9 s on
``thread:2`` and 20.9 s on ``process:2``; no run on more cores has
been recorded.

Determinism is a hard requirement: parallel runs must be *bit-identical*
to serial ones.  Three mechanisms guarantee it:

1. every ``map`` preserves input order (``concurrent.futures`` map
   semantics), regardless of completion order;
2. randomized tasks draw from generators derived via
   :func:`numpy.random.SeedSequence.spawn` (:func:`derive_rngs`), so each
   task's stream depends only on ``(root seed, task index)`` — never on
   which worker ran it or when;
3. :func:`map_machines` keeps all :class:`~repro.mpc.machine.Machine`
   storage accounting in the calling process, applied in machine order
   after the fan-out returns, so peak-memory bookkeeping is identical
   under every executor (worker processes only ever see *copies* of a
   ``Machine``; charging them there would be silently lost).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "derive_seeds",
    "derive_rngs",
    "map_machines",
]


@runtime_checkable
class Executor(Protocol):
    """Structural protocol: anything with an order-preserving ``map``.

    ``map(fn, items)`` must return ``[fn(x) for x in items]`` — same
    values, same order — however the calls are scheduled.
    """

    name: str

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, preserving input order."""


class SerialExecutor:
    """In-process sequential execution (the reference semantics)."""

    name = "serial"

    def __init__(self, jobs: "int | None" = None):
        self.jobs = 1

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` serially (the reference semantics)."""
        return [fn(x) for x in items]

    def close(self) -> None:
        """No resources to release; kept for interface symmetry."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class _PoolExecutor:
    """Shared plumbing for the ``concurrent.futures``-backed executors.

    The underlying pool is created lazily on the first parallel ``map``
    and *reused* across calls — a 2-round MPC protocol maps twice per
    run, and process-pool startup (fork + interpreter warmup) is far too
    expensive to pay per map.  ``close()`` (or use as a context manager)
    tears the pool down; the next ``map`` would re-create it.
    """

    name = "pool"
    _pool_cls: type = ThreadPoolExecutor

    def __init__(self, jobs: "int | None" = None):
        if jobs is not None and int(jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs) if jobs is not None else None
        self._pool = None

    @property
    def _max_workers(self) -> int:
        return self.jobs if self.jobs is not None else (os.cpu_count() or 1)

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1 or self._max_workers == 1:
            return [fn(x) for x in items]
        if self._pool is None:
            self._pool = self._pool_cls(max_workers=self._max_workers)
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """Shut the worker pool down (re-created lazily if used again)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):  # best-effort cleanup of worker processes/threads
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class ThreadExecutor(_PoolExecutor):
    """Thread-pool execution; best when the work releases the GIL."""

    name = "thread"
    _pool_cls = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """Process-pool execution; ``fn`` and its arguments must pickle
    (module-level functions, plain-data arguments)."""

    name = "process"
    _pool_cls = ProcessPoolExecutor


_EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(
    spec: "Executor | str | None" = None, jobs: "int | None" = None
) -> Executor:
    """Resolve an executor from a name, an instance, or ``None``.

    Accepted forms::

        get_executor()                    # SerialExecutor
        get_executor("thread")            # ThreadExecutor, jobs = cpu count
        get_executor("process", jobs=4)   # ProcessExecutor, 4 workers
        get_executor("thread:8")          # inline job count
        get_executor(my_executor)         # passthrough (jobs ignored)
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        name, _, inline = spec.partition(":")
        if inline:
            if jobs is not None and int(inline) != int(jobs):
                raise ValueError(
                    f"conflicting job counts: {spec!r} versus jobs={jobs}"
                )
            jobs = int(inline)
        try:
            cls = _EXECUTORS[name]
        except KeyError:
            raise ValueError(
                f"unknown executor {name!r}; available: {sorted(_EXECUTORS)}"
            ) from None
        return cls(jobs=jobs)
    if isinstance(spec, Executor):
        return spec
    raise TypeError(
        f"executor must be None, a name, or an Executor, got {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# Deterministic per-task randomness
# ---------------------------------------------------------------------------


def derive_seeds(seed: "int | None", n: int) -> "list[np.random.SeedSequence]":
    """``n`` independent child seed sequences of ``SeedSequence(seed)``.

    Child ``i`` depends only on ``(seed, i)``, so a task's randomness is
    identical whether it runs serially, on a thread, or in another
    process — the foundation of executor parity for randomized work.
    ``seed=None`` draws fresh OS entropy for the root (children are then
    still mutually independent, just not replayable).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    root = np.random.SeedSequence(seed) if seed is not None else np.random.SeedSequence()
    return root.spawn(n)


def derive_rngs(seed: "int | None", n: int) -> "list[np.random.Generator]":
    """Per-task generators over :func:`derive_seeds`."""
    return [np.random.default_rng(s) for s in derive_seeds(seed, n)]


# ---------------------------------------------------------------------------
# Machine-accounting-preserving fan-out
# ---------------------------------------------------------------------------


def map_machines(
    executor: "Executor | str | None",
    fn: Callable,
    tasks: Sequence,
    machines: "Sequence | None" = None,
    charge: "Callable | None" = None,
) -> list:
    """Fan per-machine ``tasks`` out through ``executor``; account serially.

    ``fn(tasks[i])`` is machine ``i``'s local computation.  When
    ``machines`` and ``charge`` are given, ``charge(machines[i],
    tasks[i], results[i])`` runs in the *calling* process, in machine
    order, after all results are in — so :class:`Machine.charge` /
    ``peak_items`` bookkeeping is bit-identical under every executor
    (a worker process would otherwise mutate a pickled copy and the
    accounting would be silently dropped).
    """
    results = get_executor(executor).map(fn, tasks)
    if charge is not None:
        if machines is None:
            raise ValueError("charge requires machines")
        for mach, task, result in zip(machines, tasks, results):
            charge(mach, task, result)
    return results
