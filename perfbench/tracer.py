"""Layer spans for the traced benchmark run.

The tracer wraps public entry points of each ``repro`` layer from the
outside (nothing under ``src/`` knows about it) and aggregates the calls
into a span tree: one node per distinct path of span names, holding the
call count, the total seconds, and a work count (rows, pairs, points).
A node's self time is its total minus the totals of its same-thread
children.  Work done in process-pool workers is recorded there and sent
back with each task's result; it is attached to the calling span as a
"remote" subtree, which counts toward layer totals but not against the
caller's self time (it ran concurrently, on another core).

Trees are kept in memory, one root per thread, and merged when the run
ends.  ``install()`` wraps every module binding of each function, so the
span fires whichever module its caller imported it through.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time

_clock = time.perf_counter


class Node:
    """One span path: calls, total seconds, work units, children."""

    __slots__ = ("calls", "total", "work", "children", "remote")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.work = 0
        self.children: "dict[str, Node]" = {}
        self.remote: "dict[str, Node]" = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node()
        return node

    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def merge(self, other: "Node") -> None:
        self.calls += other.calls
        self.total += other.total
        self.work += other.work
        for attr in ("children", "remote"):
            mine = getattr(self, attr)
            for name, node in getattr(other, attr).items():
                mine.setdefault(name, Node()).merge(node)

    def to_dict(self) -> dict:
        return {"calls": self.calls, "total": self.total, "work": self.work,
                "children": {k: v.to_dict() for k, v in self.children.items()},
                "remote": {k: v.to_dict() for k, v in self.remote.items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "Node":
        node = cls()
        node.calls, node.total, node.work = doc["calls"], doc["total"], doc["work"]
        node.children = {k: cls.from_dict(v) for k, v in doc["children"].items()}
        node.remote = {k: cls.from_dict(v) for k, v in doc["remote"].items()}
        return node


class Tracer:
    """Per-thread span stacks feeding one mergeable tree."""

    def __init__(self):
        self._local = threading.local()
        self._roots: "list[Node]" = []
        self._lock = threading.Lock()

    def _stack(self) -> "list[Node]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            root = Node()
            stack = self._local.stack = [root]
            with self._lock:
                self._roots.append(root)
        return stack

    def reset_thread(self) -> Node:
        """Start a fresh tree for this thread (forked workers inherit the
        parent's stack) and return its root."""
        root = Node()
        self._local.stack = [root]
        return root

    def clear(self) -> None:
        """Forget every span recorded so far (call with no span open)."""
        with self._lock:
            for root in self._roots:
                root.children.clear()
                root.remote.clear()

    def tree(self) -> Node:
        """All threads' trees merged into one root."""
        out = Node()
        with self._lock:
            roots = list(self._roots)
        for root in roots:
            out.merge(root)
        return out

    def wrap(self, fn, name: str, work=None):
        """``fn`` with a span named ``name``; ``work(args, kwargs)`` adds
        a work count to the node."""
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            node = stack[-1].child(name)
            stack.append(node)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                node.total += _clock() - t0
                node.calls += 1
                stack.pop()
                if work is not None:
                    node.work += work(args, kwargs)

        return traced

    def attach_remote(self, name: str, doc: dict) -> None:
        """Attach a worker's serialized tree under the current span."""
        parent = self._stack()[-1]
        parent.remote.setdefault(name, Node()).merge(Node.from_dict(doc))


TRACER = Tracer()
_INSTALL_PID = os.getpid()


def _run_task(fn, item):
    """Pool-side wrapper: ``(result, serialized engine.task span)``.

    Runs in the worker under a fresh tree.  The pool runs single tasks
    inline in the caller, where the caller's own stack already records
    the spans (and must not be reset)."""
    if os.getpid() == _INSTALL_PID:
        return TRACER.wrap(fn, "engine.task")(item), None
    root = TRACER.reset_thread()
    result = TRACER.wrap(fn, "engine.task")(item)
    return result, root.children["engine.task"].to_dict()


def _rows(a) -> int:
    """Rows of an array-like or chunked source (1 for a single point)."""
    shape = getattr(a, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    try:
        return len(a)
    except TypeError:
        return 1


def _install_function(module_name: str, attr: str, name: str, work=None):
    """Wrap ``module.attr`` at every ``repro`` module that binds it."""
    orig = getattr(sys.modules[module_name], attr)
    traced = TRACER.wrap(orig, name, work)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, traced)


def _install_method(cls, attr: str, name: str, work=None):
    """Wrap a method (plain or classmethod) on ``cls``."""
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(TRACER.wrap(raw.__func__, name, work)))
    else:
        setattr(cls, attr, TRACER.wrap(raw, name, work))


def _install_pool_map(cls):
    """Process-pool ``map``: tasks run under :func:`_run_task` in the
    workers and their trees come back with the results."""
    orig = cls.map

    def map_traced(self, fn, items):
        results = orig(self, functools.partial(_run_task, fn), items)
        out = []
        for result, doc in results:
            if doc is not None:
                TRACER.attach_remote("engine.task", doc)
            out.append(result)
        return out

    cls.map = TRACER.wrap(map_traced, "engine.map")


def install() -> Tracer:
    """Wrap every layer's entry points; returns the tracer."""
    import repro.api.session as session
    import repro.core.greedy  # noqa: F401 - bindings resolved via sys.modules
    import repro.core.mbc  # noqa: F401
    import repro.engine.executor as executor
    import repro.geometry.grid as grid
    import repro.kernels.distance  # noqa: F401
    import repro.mpc.two_round as two_round
    import repro.persist.format  # noqa: F401
    import repro.serve.manager as manager
    import repro.serve.server as server
    import repro.store.spool as spool
    import repro.streaming.dynamic as dynamic
    import repro.streaming.insertion_only as insertion_only
    import repro.streaming.sliding_window as sliding_window

    def rows0(args, kwargs):
        return _rows(args[1]) if len(args) > 1 else 0

    # repro.api: the session facade
    for attr in ("extend", "delete_many", "coreset", "solve", "save"):
        _install_method(session.KCenterSession, attr, f"api.{attr}",
                        rows0 if attr in ("extend", "delete_many") else None)
    _install_method(session.KCenterSession, "load", "api.load")
    # repro.store: memory-mapped chunk reads
    _install_method(spool.StoreSource, "_rows", "store.read",
                    lambda a, k: int(a[2]) - int(a[1]))
    # repro.streaming: insertion-only (batched + scalar) and sliding window
    _install_method(insertion_only.InsertionOnlyCoreset, "extend",
                    "streaming.extend", rows0)
    _install_method(insertion_only.InsertionOnlyCoreset, "insert",
                    "streaming.insert")
    _install_method(sliding_window.SlidingWindowCoreset, "extend",
                    "streaming.window_extend", rows0)
    # repro.sketches: the fully-dynamic backend's sketch updates
    _install_method(dynamic.DynamicCoreset, "extend", "sketches.extend", rows0)
    _install_method(dynamic.DynamicCoreset, "delete_many", "sketches.delete",
                    rows0)
    _install_method(dynamic.DynamicCoreset, "coreset", "sketches.decode")
    # repro.core.mbc: recompression (Alg. 4) and construction (Alg. 1);
    # the MPC coordinator's final compression is its own span
    _install_function("repro.core.mbc", "update_coreset", "core.mbc.recompress")
    _install_function("repro.core.mbc", "mbc_construction", "core.mbc.construct")
    two_round.mbc_construction = TRACER.wrap(
        two_round.mbc_construction, "mpc.compress")
    # repro.core.greedy: radius search, its decisions and Gonzalez
    _install_function("repro.core.greedy", "charikar_greedy", "core.greedy.search")
    _install_function("repro.core.greedy", "gonzalez", "core.greedy.gonzalez")
    for attr in ("_grid_decision", "_geometric_decision", "_greedy_disks"):
        _install_function("repro.core.greedy", attr, "core.greedy.decision")
    # repro.geometry: grid bucketing
    _install_method(grid.PointGrid, "build", "geometry.grid_build", rows0)
    # repro.kernels: dense blocks and sparse pair lists
    _install_function(
        "repro.kernels.distance", "pairwise_kernel", "kernels.pairwise",
        lambda a, k: _rows(a[1]) * _rows(a[2]))
    _install_function(
        "repro.kernels.distance", "pair_distances", "kernels.pairs",
        lambda a, k: len(a[2]))
    # repro.mpc: rounds, named after their task function
    inner_map = two_round.map_machines

    def map_machines(executor_, fn, tasks, *args, **kwargs):
        return TRACER.wrap(inner_map, f"mpc.round:{fn.__name__}")(
            executor_, fn, tasks, *args, **kwargs)

    two_round.map_machines = map_machines
    _install_function("repro.mpc.two_round", "two_round_coreset", "mpc.protocol")
    # repro.engine: process pools
    _install_pool_map(executor.ProcessExecutor)
    # repro.persist: snapshot files
    _install_function("repro.persist.format", "write_snapshot", "persist.write")
    _install_function("repro.persist.format", "read_snapshot", "persist.read")
    # repro.serve: HTTP handling, wire decoding, the session manager
    for verb in ("do_GET", "do_PUT", "do_POST", "do_DELETE"):
        _install_method(server._Handler, verb, "serve.http")
    _install_function("repro.serve.wire", "decode_points", "serve.wire",
                      lambda a, k: len(a[0]))
    for attr in ("extend", "delete_points", "solve", "create"):
        _install_method(manager.SessionManager, attr, f"serve.manager.{attr}")
    return TRACER


# -- reading the tree -------------------------------------------------------


def walk(node: Node):
    """Every ``(name, node)`` below ``node``, worker subtrees included."""
    for name, child in list(node.children.items()) + list(node.remote.items()):
        yield name, child
        yield from walk(child)


def by_name(root: Node) -> "dict[str, dict]":
    """Sum calls / total / self / work of every span, by span name."""
    out: "dict[str, dict]" = {}
    for name, node in walk(root):
        acc = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                    "work": 0})
        acc["calls"] += node.calls
        acc["total"] += node.total
        acc["self"] += node.self_time()
        acc["work"] += node.work
    return out


def total_without(root: Node, name: str, child: str) -> float:
    """Seconds in spans ``name`` outside their ``child`` spans."""
    out = 0.0
    for n, node in walk(root):
        if n == name:
            sub = node.children.get(child)
            out += node.total - (sub.total if sub is not None else 0.0)
    return out


def render(root: Node, wall: float) -> "list[str]":
    """The span tree as indented lines: calls, total, self, share."""
    lines = [f"{'span':<48} {'calls':>9} {'total_s':>9} {'self_s':>9} "
             f"{'self%':>6}"]

    def visit(node: Node, depth: int) -> None:
        items = [(n, c, "") for n, c in node.children.items()]
        items += [(n, c, " [worker]") for n, c in node.remote.items()]
        for name, child, mark in sorted(items, key=lambda t: -t[1].total):
            share = 100.0 * child.self_time() / wall if wall > 0 else 0.0
            label = ("  " * depth + name + mark)[:48]
            lines.append(f"{label:<48} {child.calls:>9} {child.total:>9.3f} "
                         f"{child.self_time():>9.3f} {share:>6.1f}")
            visit(child, depth + 1)

    visit(root, 0)
    return lines
