"""One benchmark workload, run in a fresh process.

``run.py`` starts this file once per measured run::

    python3 perfbench/workload.py --workload offline-search --seed 3 \
        --seconds 20 --out result.json --tmp scratch-dir [--traced]

It builds the workload's inputs from the seed, sets up, then repeats the
workload's unit of work until ``--seconds`` have passed, checks every
output, and writes one JSON document with the end-to-end figures, the
check results and, with ``--traced``, the layer span tree.  Peak RSS is
this process's own (for ``serve-mixed``, the server's), so one workload
never inherits another's high-water mark.

The library and the server are driven only through their public entry
points: :class:`repro.api.KCenterSession` (plus the ``repro.store`` and
``repro.engine`` objects a session accepts) and ``python -m repro.serve``.
"""

from __future__ import annotations

import argparse
import collections
import http.client
import json
import os
import queue
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

clock = time.perf_counter

#: set-up runs at least this many times, and again while the reps so far
#: took under SETUP_MIN_S (cheap set-ups); setup_s is the median
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 0.5, 50

#: seconds :func:`calibrate` takes on the reference box (2-core Xeon VM,
#: about, uncontended).  Every time metric is reported in reference seconds:
#: measured seconds x CALIB_REF_S / (calibration time), with the
#: calibrations taken right before and after the timed interval, which
#: cancels the host's speed changes (the shared reference box changes
#: speed by 20-25% from one second to the next, and by up to 2x over
#: minutes)
CALIB_REF_S = 0.050
#: the same for each kind of :func:`calibrate`
_CALIB_KIND_REF_S = {"library": 0.050, "serve": 0.040}
_CALIB_PTS = np.random.default_rng(12345).random((600, 2))
_CALIB_ONES = np.ones(600)
_CALIB_BLOCK = np.random.default_rng(12346).random((4000, 2))


def calibrate(kind: str = "library") -> float:
    """Seconds of a fixed computation that touches no ``repro`` code,
    scaled to :data:`CALIB_REF_S` on the reference box: dense distance
    blocks with a threshold matvec and a pure-Python loop, and for the
    library workloads also rectangular blocks against 4,000 points with
    threshold counts (memory-bound like a grid decision).

    With the rectangular blocks, passes of the offline search scaled by
    the calibration spread 0.11 within a run on a contended host, against
    0.18 without them.  The serve probe (``kind="serve"``) leaves them
    out: its Python and socket work slowed far less than they did, and
    probe runs whose calibration read twice as slow served as fast."""
    from scipy.spatial.distance import cdist

    t0 = clock()
    for _ in range(10 if kind == "library" else 20):
        (cdist(_CALIB_PTS, _CALIB_PTS) <= 0.1) @ _CALIB_ONES
    if kind == "library":
        for lo in range(0, 2000, 500):
            (cdist(_CALIB_BLOCK[lo:lo + 500], _CALIB_BLOCK) <= 0.05).sum(axis=1)
    acc = 0
    for i in range(100_000):
        acc += i * i
    return (clock() - t0) * CALIB_REF_S / _CALIB_KIND_REF_S[kind]


def to_ref(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibrations taking ``before`` and
    ``after`` seconds, in reference seconds."""
    return seconds * CALIB_REF_S / ((before + after) / 2.0)


def pin_to_one_core(pid: "int | None" = None) -> None:
    """Run every thread of process ``pid`` (default: this one), and every
    thread and process it starts later, on one core: the last this
    process may use, where the calibrations run too.

    The reference box is a shared 2-core VM whose cores slow down one at
    a time.  A calibration on one core then says little about work on the
    other, and work spread over both waits for the slower: the MPC
    workload's pool of two workers, one per core, spread its pass times
    by 0.1-0.2 between runs of the same code, against 0.04 when the pool
    shares one core.  Its figures are then the pool's work, not its
    parallel speed-up; the workers' tasks are time-sliced on the core, so
    ``engine.parallel_eff`` (wall-clock task time over map time x jobs)
    reads about 1 without one.  The serve-mixed probe pins the server and
    the client the same way."""
    cpu = max(os.sched_getaffinity(0))
    pid = os.getpid() if pid is None else pid
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # the thread has ended
            pass


def _tracer():
    """The layer tracer when this run is traced, else ``None``."""
    return sys.modules.get("tracer")


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(xs):
    return float(statistics.median(xs))


def _percentile(xs, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries count as misses)."""
    s = sorted(xs)
    idx = min(len(s) - 1, max(0, int(np.ceil(q / 100.0 * len(s))) - 1))
    return float(s[idx])


def _timed_passes(seconds: float, one_pass) -> "list[dict]":
    """Run ``one_pass`` until ``seconds`` have passed (at least once).  A
    pass is not started when it would probably end more than half a pass
    after ``seconds``, so the run's length stays close to ``seconds``."""
    tr = _tracer()
    if tr is not None:
        tr.TRACER.clear()  # per-layer figures cover the measured passes only
    passes, t_start = [], clock()
    while not passes or (clock() - t_start + 0.5 * passes[-1]["elapsed_s"]
                         < seconds):
        passes.append(one_pass())
    return passes


def _start_interpreter() -> None:
    """What a fresh process pays before its first call: start Python and
    import the library (part of every library workload's set-up)."""
    subprocess.run([sys.executable, "-c", "import repro.api, repro.store"],
                   check=True, env=dict(os.environ,
                                        PYTHONPATH=os.path.join(ROOT, "src")))


def _repeat_setup(setup) -> "tuple[list[float], object]":
    """Run ``setup`` repeatedly (see :data:`SETUP_REPS`); keep the last
    result.  ``setup(i)`` returns ``(state, close)``; earlier states are
    closed.  Returns each repetition's time in reference seconds (a
    calibration before the first and after each one) and the state."""
    times, ref_times, state, close = [], [], None, None
    before = calibrate()
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S
                                      and len(times) < SETUP_MAX_REPS):
        if close is not None:
            close()
        t0 = clock()
        state, close = setup(len(times))
        times.append(clock() - t0)
        after = calibrate()
        ref_times.append(to_ref(times[-1], before, after))
        before = after
    return ref_times, state


def _library_result(setup_times, passes, n, extras=None) -> dict:
    """End-to-end figures and checks shared by the library workloads.

    Each pass records ``ingest_s`` (first point offered until the coreset
    is in hand) and its ``solve_times``, both in reference seconds, the
    coreset's size and weight and the radius.
    """
    ingest = [p["ingest_s"] for p in passes]
    checks = []
    for i, p in enumerate(passes):
        checks.append([f"pass {i}: coreset weight == points ingested",
                       p["weight"] == n, f"{p['weight']} vs {n}"])
    first = passes[0]
    same = all(p["radius"] == first["radius"]
               and p["coreset_size"] == first["coreset_size"] for p in passes)
    checks.append(["every pass gives the same radius and coreset size", same,
                   f"radius {first['radius']!r}, size {first['coreset_size']}"])
    e2e = {
        "setup_s": _median(setup_times),
        "ingest_points_per_s": n / _median(ingest),
        "coreset_s": _median(ingest),
        "solve_s": _median([t for p in passes for t in p["solve_times"]]),
        "coreset_size": float(first["coreset_size"]),
        "radius": float(first["radius"]),
        "success_frac": 1.0,
        # one ingest request per pass: the whole input, acknowledged when
        # its coreset is in hand
        "extend_p50_ms": 1e3 * _median(ingest),
    }
    return {
        "e2e": e2e,
        "calibrations": [c for p in passes for c in p["calibrations"]],
        "pass_ingest_s": ingest,
        "pass_ingest_measured_s": [p["ingest_measured_s"] for p in passes],
        "pass_solve_s": [_median(p["solve_times"]) for p in passes],
        "pass_solve_measured_s": [_median(p["solve_measured_s"])
                                  for p in passes],
        "outputs": {"radius": first["radius"],
                    "coreset_size": first["coreset_size"]},
        "pass_walls": [p["wall_s"] for p in passes],
        "passes": len(passes),
        # extend, coreset, then the pass's solves
        "attempted": sum(2 + len(p["solve_times"]) for p in passes),
        "failed": 0,
        "checks": checks,
        "extras": extras or {},
    }


#: a pass solves again while its solves took under SOLVE_MIN_S in total
#: (at most SOLVE_MAX_REPS times), so solve_s has enough samples; the
#: solves run in segments of about SOLVE_SEGMENT_S, each followed by a
#: calibration that scales it
SOLVE_MIN_S, SOLVE_MAX_REPS, SOLVE_SEGMENT_S = 1.0, 1000, 0.2


def _session_pass(sess, feed, n, solve_min_s=SOLVE_MIN_S) -> dict:
    """One library pass: ingest, take the coreset, solve.  Times are in
    reference seconds, each scaled by the calibrations next to it."""
    t_pass = clock()
    before = calibrate()
    t0 = clock()
    sess.extend(feed)
    cs = sess.coreset()
    ingest_s = clock() - t0
    calibrations = [before, calibrate()]
    ingest_ref = to_ref(ingest_s, *calibrations)
    solves, measured = [], []
    while not solves or (sum(measured) < solve_min_s
                         and len(solves) < SOLVE_MAX_REPS):
        segment = []
        while not segment or sum(segment) < SOLVE_SEGMENT_S:
            t2 = clock()
            sol = sess.solve()
            segment.append(clock() - t2)
        calibrations.append(calibrate())
        solves += [to_ref(s, *calibrations[-2:]) for s in segment]
        measured += segment
    return {"ingest_s": ingest_ref, "ingest_measured_s": ingest_s,
            "solve_times": solves, "solve_measured_s": measured,
            "calibrations": calibrations,
            "wall_s": ingest_s + sum(measured), "elapsed_s": clock() - t_pass,
            "coreset_size": len(cs), "weight": int(cs.weights.sum()),
            "radius": float(sol.radius), "n": n}


# ---------------------------------------------------------------------------
# stream-ingest: insertion-only extend of an on-disk PointStore
# ---------------------------------------------------------------------------

STREAM_N, STREAM_CHUNK = 1 << 17, 1 << 16
STREAM_K, STREAM_Z = 8, 64
#: the library workloads' problem seed; the run seed picks the mirror image
SPEC_SEED = 0


def mirror(points: np.ndarray, seed: int) -> np.ndarray:
    """The seed's mirror image of a fixed point set: x negated for odd
    seeds, y negated when bit 1 of the seed is set.

    Negation is exact in floating point, so every distance, and with it
    every decision, the work and every output, is the same for all seeds.
    Seeded point sets or orders moved the work of the library workloads
    by 10-25% and their coreset sizes by up to 15% from seed to seed
    (Algorithm 3's radius estimate starts from its first k+z+1 points and
    only doubles; Algorithm 1 absorbs in arbitrary order), which no
    change to the code could have caused."""
    signs = np.array([-1.0 if seed & 1 else 1.0, -1.0 if seed & 2 else 1.0])
    return points * signs


def _write_stream_store(path: str, seed: int):
    """Clustered stream with far-shell outliers, written chunk by chunk:
    the ``ooc-clustered`` construction with the 8 cluster centres fixed on
    a ring, at a fixed seed, mirrored by ``seed``."""
    from repro.store import PointStore

    angles = 2 * np.pi * np.arange(STREAM_K) / STREAM_K
    centers = 30.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    out_at = np.linspace(0, STREAM_N - 1, num=STREAM_Z, dtype=np.int64)
    store = PointStore.create(path, chunk_rows=STREAM_CHUNK, overwrite=True)
    for ci, lo in enumerate(range(0, STREAM_N, STREAM_CHUNK)):
        b = min(STREAM_CHUNK, STREAM_N - lo)
        r = np.random.default_rng([0, ci])
        pts = centers[r.integers(0, STREAM_K, size=b)] + r.normal(0, 0.8, (b, 2))
        local = out_at[(out_at >= lo) & (out_at < lo + b)] - lo
        if len(local):
            dirs = r.normal(size=(len(local), 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts[local] = dirs * r.uniform(400.0, 800.0, size=(len(local), 1))
        store.append(mirror(pts, seed))
    return store.finalize()


def stream_ingest(seed: int, seconds: float, tmp: str) -> dict:
    from repro.api import KCenterSession, ProblemSpec

    spec = ProblemSpec(k=STREAM_K, z=STREAM_Z, eps=0.5, dim=2, seed=SPEC_SEED)

    def setup(i):
        path = os.path.join(tmp, f"store-{i}")
        _start_interpreter()
        source = _write_stream_store(path, seed)
        KCenterSession(spec, backend="insertion-only")
        return source, lambda: shutil.rmtree(path)

    setup_times, source = _repeat_setup(setup)

    passes = _timed_passes(seconds, lambda: _session_pass(
        KCenterSession(spec, backend="insertion-only"), source, STREAM_N))
    return _library_result(setup_times, passes, STREAM_N)


# ---------------------------------------------------------------------------
# offline-search: Algorithm 1 (grid-pruned radius search + absorb)
# ---------------------------------------------------------------------------

OFFLINE_N, OFFLINE_K, OFFLINE_Z = 20_000, 64, 200


def _stratified_square(n_side: "tuple[int, int]", seed: int) -> np.ndarray:
    """Uniform points in [0, 100]^2, one per cell of an ``a x b`` grid, in
    random order: uniform like an i.i.d. sample, with the same density
    everywhere."""
    a, b = n_side
    rng = np.random.default_rng(seed)
    ix, iy = np.meshgrid(np.arange(a), np.arange(b), indexing="ij")
    cells = np.stack([ix.ravel() / a, iy.ravel() / b], axis=1)
    pts = 100.0 * (cells + rng.random(cells.shape) / np.array([a, b]))
    return pts[rng.permutation(len(pts))]


def offline_search(seed: int, seconds: float, tmp: str) -> dict:
    from repro.api import KCenterSession, ProblemSpec

    spec = ProblemSpec(k=OFFLINE_K, z=OFFLINE_Z, eps=0.5, dim=2,
                       seed=SPEC_SEED)

    def setup(i):
        _start_interpreter()
        points = mirror(_stratified_square((160, 125), 0), seed)
        KCenterSession(spec, backend="offline")
        return points, None

    setup_times, points = _repeat_setup(setup)
    passes = _timed_passes(seconds, lambda: _session_pass(
        KCenterSession(spec, backend="offline"), points, OFFLINE_N))
    return _library_result(setup_times, passes, OFFLINE_N)


# ---------------------------------------------------------------------------
# mpc-two-round: Algorithm 2 over a process pool
# ---------------------------------------------------------------------------

#: 2,100 points per machine: above the 2,048-point exact-candidate limit,
#: so every local search is grid-pruned.  Two machines, z=16 (6 local
#: searches each) and a pool of one worker per core, all on one core (see
#: :func:`pin_to_one_core`): with four machines of 2,500 and z=64 a pass
#: took 7-9 s and a 20 s run held only two
MPC_N, MPC_MACHINES, MPC_K, MPC_Z = 4_200, 2, 8, 16
MPC_GRID = (70, 60)
#: the MPC solve (a coreset of a few hundred points, ~5 ms) needs less
#: time for as many samples as the other workloads' solves
MPC_SOLVE_MIN_S = 0.25


def _machine_blocks(points: np.ndarray) -> np.ndarray:
    """Reorder so that each of the 2 contiguous blocks the contiguous
    partition hands a machine is one colour of a checkerboard over the
    stratified cells: every machine holds a uniform sample of the whole
    square, as in the issue's uniform input."""
    cells = np.floor(points * np.array(MPC_GRID) / 100.0).astype(np.int64)
    machine = (cells[:, 0] + cells[:, 1]) % MPC_MACHINES
    return np.concatenate([points[machine == j] for j in range(MPC_MACHINES)])


def mpc_two_round(seed: int, seconds: float, tmp: str) -> dict:
    from repro.api import KCenterSession, ProblemSpec
    from repro.engine import ProcessExecutor

    spec = ProblemSpec(k=MPC_K, z=MPC_Z, eps=0.5, dim=2, seed=SPEC_SEED)
    jobs = os.cpu_count() or 1

    def setup(i):
        _start_interpreter()
        points = mirror(_machine_blocks(_stratified_square(MPC_GRID, 0)),
                        seed)
        executor = ProcessExecutor(jobs=jobs)
        executor.map(abs, range(jobs))  # start the workers
        KCenterSession(spec, backend="mpc-two-round",
                       num_machines=MPC_MACHINES, executor=executor)
        return (points, executor), executor.close

    setup_times, (points, executor) = _repeat_setup(setup)
    stats = {}

    def one_pass():
        sess = KCenterSession(spec, backend="mpc-two-round",
                              num_machines=MPC_MACHINES, executor=executor)
        out = _session_pass(sess, points, MPC_N, MPC_SOLVE_MIN_S)
        stats.update(sess.stats())
        return out

    with executor:
        passes = _timed_passes(seconds, one_pass)
    extras = {"mpc.worker_peak": stats["worker_peak"],
              "mpc.coordinator_peak": stats["coordinator_peak"],
              "engine.jobs": jobs}
    return _library_result(setup_times, passes, MPC_N, extras)


# ---------------------------------------------------------------------------
# serve-mixed: open-loop multi-tenant traffic against python -m repro.serve
# ---------------------------------------------------------------------------

#: offered request rate (requests/s): about half of the ~160/s at which
#: the 2-core reference box starts to build a backlog
SERVE_RATE = 80.0
#: keep-alive connections, one per simulated client, sharing one request
#: queue (round robin).  A connection reused within ~0.2 s pays ~40 ms of
#: TCP stall per response (the server writes header and body in two
#: sends; Nagle meets delayed ACK), so two connections would cap the
#: server near 50 requests/s.  With 32, each idles ~0.4 s between requests
#: and latency reflects the server's work rather than that timer
SERVE_CONNECTIONS = 32
SERVE_MAX_RESIDENT = 15
SERVE_EPS = 1.0
SOLVE_EVERY = 16          # about 1 request in 16 is a solve
DELETE_SHARE = 0.25       # share of a dynamic tenant's requests that delete
#: deletes name batches sent at least this long before, and a tenant is
#: solved only once its first batch is that old, so each depends on
#: requests applied long ago (a solve on an empty sliding-window session
#: fails: ``no guess can serve the window``)
SETTLE_S = 1.0
BATCH = {"insertion-only": 32, "sliding-window": 32, "dynamic": 2}
#: per-tenant memory bound of the insertion-only tenants (their solves
#: stay in the tens of milliseconds)
SIZE_CAP = 256
ZIPF_S = 1.1

#: popularity ranks (most popular first): mostly insertion-only tenants
#: on clustered scenarios, two sliding-window tenants and two dynamic
#: ones.  The sliding-window and dynamic tenants are popular enough never
#: to be the least recently used (their snapshots take 60-90 ms each way,
#: and how often one was evicted would swing a run's latencies); the
#: insertion-only tail cycles through eviction and restore
TENANTS = (
    [("io-0", "insertion-only", "clustered-baseline"),
     ("dyn-0", "dynamic", "integer-grid"),
     ("sw-0", "sliding-window", "sliding-churn"),
     ("io-1", "insertion-only", "drifting-clusters"),
     ("dyn-1", "dynamic", "integer-grid"),
     ("sw-1", "sliding-window", "sliding-churn"),
     ("io-2", "insertion-only", "clustered-baseline"),
     ("io-3", "insertion-only", "drifting-clusters")]
    + [(f"io-{i}", "insertion-only",
        "clustered-baseline" if i % 2 == 0 else "drifting-clusters")
       for i in range(4, 12)]
)
#: tenants whose served result is replayed through the library
CHECKED = ("io-4", "dyn-1")


class _Tenant:
    def __init__(self, rank, name, backend, scenario):
        from repro.api import ProblemSpec
        from repro.api.registry import get_backend
        from repro.scenarios import get_scenario

        # the tenant's data is its scenario instance at a fixed seed; the
        # run seed moves only the arrival times (see _schedule).
        # Every insertion-only tenant's final coreset depends on the radius
        # estimate its first points set, so seeded data would move the
        # reported coreset size and radius by up to 2x between seeds
        inst = get_scenario(scenario).make(quick=False, seed=rank)
        self.name, self.backend = name, backend
        self.spec = ProblemSpec(**{**inst.spec.as_dict(), "eps": SERVE_EPS})
        self.options = inst.session_options(get_backend(backend))
        if backend == "insertion-only":
            self.options["size_cap"] = SIZE_CAP
        elif backend == "dynamic":
            # grid selection by decoding alone (the library's cheaper,
            # same-distribution mode): an F0-backed tenant's snapshot takes
            # about a second to restore
            self.options["use_f0"] = False
        self.points = np.ascontiguousarray(inst.points, dtype=float)
        self.cursor = 0
        self.first_t = float("inf")   # schedule time of the first batch
        self.live: "collections.deque[tuple[float, np.ndarray]]" = \
            collections.deque()

    def next_batch(self) -> np.ndarray:
        b = BATCH[self.backend]
        idx = (self.cursor + np.arange(b)) % len(self.points)
        self.cursor += b
        return self.points[idx]

    def create_doc(self) -> bytes:
        return json.dumps({"spec": self.spec.as_dict(), "backend": self.backend,
                           "options": self.options}).encode()


def _schedule(tenants, seed: int, seconds: float) -> list:
    """Seeded open-loop schedule at :data:`SERVE_RATE`.

    Request ``i`` is due at a seeded random point of the ``i``-th slot of
    width ``1/SERVE_RATE``; its tenant is drawn by Zipf popularity rank
    through a golden-ratio (low-discrepancy) sequence; every tenant's
    :data:`SOLVE_EVERY`-th request is a solve and, for the dynamic
    tenants, a :data:`DELETE_SHARE` of the rest delete.  Only the arrival
    times are seeded: the sequence of requests is the same for every seed,
    because seeded interleavings and phases moved the server's peak RSS
    by 10% and the checked tenant's coreset from seed to seed.  Each entry
    is ``(due_s, tenant, op, points)``; deletes and solves wait for
    :data:`SETTLE_S` (counted in slots, so the sequence stays fixed)."""
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng([0, 1])
    cdf = np.cumsum(1.0 / np.arange(1, len(tenants) + 1) ** ZIPF_S)
    cdf /= cdf[-1]
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    start = fixed.random()
    phase = {ten.name: int(fixed.integers(SOLVE_EVERY)) for ten in tenants}
    seen = collections.Counter()
    out = []
    for i in range(int(seconds * SERVE_RATE)):
        slot_t = i / SERVE_RATE
        t = slot_t + rng.random() / SERVE_RATE
        ten = tenants[int(np.searchsorted(cdf, (start + i * golden) % 1.0))]
        nth = seen[ten.name] = seen[ten.name] + 1
        slot = (nth + phase[ten.name]) % SOLVE_EVERY
        if slot == 0 and ten.first_t <= slot_t - SETTLE_S:
            out.append((t, ten, "solve", None))
        elif ten.backend == "dynamic" and slot % round(1 / DELETE_SHARE) == 1 \
                and ten.live and ten.live[0][0] <= slot_t - SETTLE_S:
            out.append((t, ten, "delete", ten.live.popleft()[1]))
        else:
            batch = ten.next_batch()
            ten.first_t = min(ten.first_t, slot_t)
            if ten.backend == "dynamic":
                ten.live.append((slot_t, batch))
            out.append((t, ten, "extend", batch))
    return out


class _Conn:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int):
        self.port = port
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body=None, headers=None):
        """``(status, body bytes)``; a broken connection is re-opened and
        reported as status 0."""
        try:
            self.http.request(method, path, body=body, headers=headers or {})
            resp = self.http.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.http.close()
            self.http = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=60)
            return 0, b""

    def points(self, op: str, name: str, pts: np.ndarray):
        body = np.ascontiguousarray(pts, dtype="<f8").tobytes()
        return self.call("POST", f"/sessions/{name}/{op}", body, {
            "Content-Type": "application/octet-stream",
            "X-Repro-Shape": f"{pts.shape[0]},{pts.shape[1]}"})


class _Server:
    """A ``python -m repro.serve`` subprocess (traced: the same server
    started through ``serve_host.py`` with the layer tracer installed)."""

    def __init__(self, tmp: str, tag: str, traced: bool):
        self.spool = os.path.join(tmp, f"spool-{tag}")
        self.ready = os.path.join(tmp, f"ready-{tag}.json")
        self.trace_out = os.path.join(tmp, f"server-trace-{tag}.json")
        args = ["--port", "0", "--spool-dir", self.spool,
                "--max-resident", str(SERVE_MAX_RESIDENT),
                "--ready-file", self.ready]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "serve_host.py"),
                   self.trace_out] + args
        else:
            cmd = [sys.executable, "-m", "repro.serve"] + args
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.log = os.path.join(tmp, f"server-{tag}.log")
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(cmd, env=env, stdout=log,
                                         stderr=subprocess.STDOUT)
        deadline = clock() + 60.0
        while not os.path.exists(self.ready):
            if self.proc.poll() is not None or clock() > deadline:
                self.stop()
                with open(self.log) as fh:
                    raise RuntimeError("server did not start: "
                                       + fh.read()[-2000:])
            time.sleep(0.005)
        with open(self.ready) as fh:
            self.port = int(json.load(fh)["port"])

    def cpu_s(self) -> float:
        """User + system CPU seconds the server process has used."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Graceful stop (SIGTERM checkpoints every session), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


_SAMPLE = re.compile(r'^(\w+)(?:\{(.*)\})?\s+(\S+)$')


def _scrape(text: str) -> "list[tuple[str, dict, float]]":
    """Prometheus text exposition → ``(name, labels, value)`` samples."""
    out = []
    for line in text.splitlines():
        m = _SAMPLE.match(line)
        if m and not line.startswith("#"):
            labels = dict(re.findall(r'(\w+)="([^"]*)"', m.group(2) or ""))
            out.append((m.group(1), labels, float(m.group(3))))
    return out


def _replay(ten: _Tenant, ops: list) -> dict:
    """The tenant's applied requests replayed through the library, in the
    server's order (each response carries the tenant's update count)."""
    from repro.api import KCenterSession

    sess = KCenterSession(ten.spec, backend=ten.backend, **ten.options)
    inserted = deleted = 0
    for _, op, pts in sorted(ops, key=lambda o: o[0]):
        if op == "extend":
            sess.extend(pts)
            inserted += len(pts)
        elif op == "delete":
            sess.delete_many(pts)
            deleted += len(pts)
    cs = sess.coreset()
    sol = sess.solve()
    return {"radius": float(sol.radius), "centers": sol.centers.tolist(),
            "coreset_size": len(cs), "weight": int(cs.weights.sum()),
            "expected_weight": inserted - deleted}


def serve_mixed(seed: int, seconds: float, tmp: str) -> dict:
    traced = _tracer() is not None

    def setup(i):
        tenants = [_Tenant(rank, *t) for rank, t in enumerate(TENANTS)]
        server = _Server(tmp, str(i), traced)
        try:
            conn = _Conn(server.port)
            for ten in tenants:
                status, body = conn.call("PUT", f"/sessions/{ten.name}",
                                         ten.create_doc(),
                                         {"Content-Type": "application/json"})
                if status != 201:
                    raise RuntimeError(f"create {ten.name}: {status} {body!r}")
            conn.http.close()
        except BaseException:
            server.stop()
            raise
        return (tenants, server), server.stop

    setup_times, (tenants, server) = _repeat_setup(setup)
    try:
        return _serve_traffic(seed, seconds, tenants, server, setup_times)
    finally:
        server.stop()


#: closed-loop probe after the traffic: PROBE_SEGMENTS segments of
#: PROBE_REQUESTS requests, with a calibration before and after each; every
#: PROBE_SOLVE_EVERY-th request is a solve (every 16th left each tenant
#: with 4-5 solves, whose medians spread 0.11 between runs)
PROBE_SEGMENTS, PROBE_REQUESTS, PROBE_SOLVE_EVERY = 64, 16, 4
#: share of ``--seconds`` the open-loop traffic runs: the end-to-end
#: latencies come from the probe after it, and a probe of 512 requests
#: (~4 s) spread 0.2 between runs when the host's load changed
SERVE_TRAFFIC_SHARE = 0.5


def _probe(server: "_Server", tenants) -> dict:
    """Service cost of an otherwise idle server, in reference units.

    One request at a time, each on a fresh connection, cycling over the
    tenants that are never evicted and not checked, every 4th a solve.
    Under the open-loop traffic the same latencies, and the server's CPU
    time, swung 2-3x between runs with the host's scheduling of 60-odd
    threads on two cores and with its speed, which calibrations taken
    seconds apart do not track; calibrations around each short segment,
    on the one core the client and the server then share, do.  Returns
    the scaled extend and solve latencies per tenant, the server's scaled
    CPU seconds, and the request count and failures."""
    pin_to_one_core()
    pin_to_one_core(server.proc.pid)
    hot = [t for t in tenants[:8] if t.name not in CHECKED]
    extend = collections.defaultdict(list)
    solve = collections.defaultdict(list)
    cpu, failed, i = 0.0, 0, 0
    before = calibrate("serve")
    calibrations, measured = [before], []
    for _ in range(PROBE_SEGMENTS):
        cpu0 = server.cpu_s()
        segment = []
        for _ in range(PROBE_REQUESTS):
            ten = hot[i % len(hot)]
            conn = _Conn(server.port)
            t0 = clock()
            if i % PROBE_SOLVE_EVERY == PROBE_SOLVE_EVERY - 1:
                status, _ = conn.call("GET", f"/sessions/{ten.name}/solve")
                segment.append((solve[ten.name], clock() - t0))
            else:
                status, _ = conn.points("extend", ten.name, ten.next_batch())
                segment.append((extend[ten.name], clock() - t0))
            conn.http.close()
            failed += not 200 <= status < 300
            i += 1
        cpu_s = server.cpu_s() - cpu0
        after = calibrate("serve")
        for samples, seconds in segment:
            samples.append(to_ref(seconds, before, after))
        cpu += to_ref(cpu_s, before, after)
        before = after
        calibrations.append(after)
        measured.append({"cpu_s": cpu_s, "latency_s": [x for _, x in segment]})
    return {"extend": dict(extend), "solve": dict(solve), "cpu_s": cpu,
            "requests": i, "failed": failed, "calibrations": calibrations,
            "measured": measured}


def _geomean_of_medians(per_tenant: dict) -> float:
    """Geometric mean over tenants of each tenant's median latency: the
    tenants' costs differ by up to 10x, so a median over all of them would
    jump between tenants as their sample counts change."""
    return float(np.exp(np.mean([np.log(_median(v))
                                 for v in per_tenant.values()])))


def _serve_traffic(seed, seconds, tenants, server, setup_times) -> dict:
    by_name = {t.name: t for t in tenants}
    schedule = _schedule(tenants, seed, seconds * SERVE_TRAFFIC_SHARE)
    requests = queue.Queue()
    records = []   # (op, backend, due, enq, send, done, ok, npts)
    applied = collections.defaultdict(list)   # tenant -> [(updates, op, pts)]
    served_solve = {}
    failures = []
    lock = threading.Lock()

    def worker() -> None:
        conn = _Conn(server.port)
        try:
            while True:
                item = requests.get()
                if item is None:
                    return
                due, enq, ten, op, pts = item
                send = clock()
                if op == "solve":
                    status, body = conn.call("GET", f"/sessions/{ten.name}/solve")
                else:
                    status, body = conn.points(op, ten.name, pts)
                done = clock()
                ok = 200 <= status < 300
                with lock:
                    if not ok:
                        failures.append(f"{op} {ten.name}: {status} "
                                        f"{body[:200]!r}")
                    records.append((op, ten.backend, due, enq, send, done, ok,
                                    0 if pts is None else len(pts)))
                    if ok and op != "solve":
                        applied[ten.name].append(
                            (json.loads(body)["updates"], op, pts))
        finally:
            conn.http.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(SERVE_CONNECTIONS)]
    for th in threads:
        th.start()
    cpu0 = server.cpu_s()
    start = clock()
    for due, ten, op, pts in schedule:
        wait = start + due - clock()
        if wait > 0:
            time.sleep(wait)
        requests.put((start + due, clock(), ten, op, pts))
    for _ in threads:
        requests.put(None)
    for th in threads:
        th.join(timeout=120)
        if th.is_alive():
            raise RuntimeError("a client connection did not drain")
    traffic_s = max(r[5] for r in records) - start
    server_cpu_s = server.cpu_s() - cpu0

    conn = _Conn(server.port)
    finals_ok = 0
    for name in CHECKED:
        status, body = conn.call("GET", f"/sessions/{name}/solve")
        if status == 200:
            served_solve[name] = json.loads(body)
            finals_ok += 1
    status, body = conn.call("GET", "/metrics")
    conn.http.close()
    samples = _scrape(body.decode()) if status == 200 else []
    probe = _probe(server, tenants)
    peak_rss = server.vm_hwm_mb()
    server.stop()

    # -- end-to-end figures (latency from due time; failures never meet a
    # limit, so they count as infinitely late)
    def lat(op):
        return [(r[5] - r[2]) if r[6] else float("inf")
                for r in records if r[0] == op]

    ext, sol, dele = lat("extend"), lat("solve"), lat("delete")
    ok_n = sum(1 for r in records if r[6])
    attempted = len(records) + len(CHECKED) + probe["requests"]
    failed = attempted - ok_n - finals_ok - probe["requests"] + probe["failed"]
    points_acked = sum(r[7] for r in records if r[6] and r[0] == "extend")
    op_sum = collections.Counter()
    op_count = collections.Counter()
    metric = collections.Counter()
    for name, labels, value in samples:
        if name == "repro_serve_request_seconds_sum":
            op_sum[(labels["op"], labels["backend"])] += value
        elif name == "repro_serve_request_seconds_count":
            op_count[(labels["op"], labels["backend"])] += value
        elif name == "repro_serve_http_requests_total":
            if not labels.get("code", "").startswith("2"):
                metric["non2xx"] += value
        elif name in ("repro_serve_checkpoints_total",
                      "repro_serve_evictions_total",
                      "repro_serve_restores_total"):
            metric[name] += value
    checked = served_solve.get(CHECKED[0], {})
    # times are the probe's, in reference seconds segment by segment; the
    # ingest rate is what the open loop delivered at its fixed offered rate
    e2e = {
        "setup_s": _median(setup_times),
        "ingest_points_per_s": points_acked / traffic_s,
        "coreset_s": probe["cpu_s"],
        "solve_s": _geomean_of_medians(probe["solve"]),
        "extend_p50_ms": 1e3 * _geomean_of_medians(probe["extend"]),
        "coreset_size": float(checked.get("coreset_size", 0)),
        "radius": float(checked.get("radius", 0.0)),
        "success_frac": (attempted - failed) / attempted,
    }
    session_ops = sum(op_count.values())
    service = [r[5] - r[4] for r in records]
    extras = {
        "serve.queue_wait_ms": 1e3 * float(np.mean([r[4] - r[2] for r in records])),
        "serve.service_ms": 1e3 * float(np.mean(service)),
        "serve.wire_ms": 1e3 * (float(np.mean(service))
                                - sum(op_sum.values()) / max(session_ops, 1)),
        "serve.gen_lateness_p99_ms": 1e3 * _percentile(
            [r[3] - r[2] for r in records], 99),
        "serve.extend_p50_ms": 1e3 * _median(ext),
        "serve.extend_p99_ms": 1e3 * _percentile(ext, 99),
        "serve.solve_p50_ms": 1e3 * _median(sol),
        "serve.delete_p50_ms": 1e3 * _median(dele) if dele else 0.0,
        "serve.cpu_s": server_cpu_s,
        "serve.requests_non2xx": metric["non2xx"],
        "persist.checkpoints": metric["repro_serve_checkpoints_total"],
        "persist.evictions": metric["repro_serve_evictions_total"],
        "persist.restores": metric["repro_serve_restores_total"],
    }
    for (op, backend), total in op_sum.items():
        extras[f"serve.op_s.{op}.{backend}"] = total / max(op_count[(op, backend)], 1)

    # -- checks: served results equal a library replay of the same requests
    checks = [["every request succeeded", not failures and not probe["failed"],
               "; ".join(failures[:3]) or "none failed"]]
    for name in CHECKED:
        ten = by_name[name]
        rep = _replay(ten, applied[name])
        got = served_solve.get(name)
        checks.append([f"{name}: replayed coreset weight == inserted - deleted",
                       rep["weight"] == rep["expected_weight"],
                       f"{rep['weight']} vs {rep['expected_weight']}"])
        same = got is not None and got["radius"] == rep["radius"] \
            and got["centers"] == rep["centers"] \
            and got["coreset_size"] == rep["coreset_size"]
        checks.append([f"{name}: served solve bit-identical to library replay",
                       same, f"served {got and got['radius']!r} vs replay "
                             f"{rep['radius']!r}"])
    return {
        "e2e": e2e,
        "outputs": {"radius": e2e["radius"], "coreset_size": e2e["coreset_size"]},
        "pass_walls": [traffic_s],
        "passes": 1,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "extras": extras,
        "peak_rss_mb": peak_rss,
        "probe": {k: probe[k] for k in ("calibrations", "measured")},
        "server_trace": server.trace_out,
    }


WORKLOADS = {
    "stream-ingest": stream_ingest,
    "offline-search": offline_search,
    "mpc-two-round": mpc_two_round,
    "serve-mixed": serve_mixed,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    if args.traced:
        import tracer

        tracer.install()
    import scipy

    if args.workload != "serve-mixed":  # the server has cores of its own
        pin_to_one_core()
    result = WORKLOADS[args.workload](args.seed, args.seconds, args.tmp)
    result.setdefault("peak_rss_mb", _own_peak_rss_mb())
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": np.__version__, "scipy": scipy.__version__}
    tr = _tracer()
    if tr is not None:
        trace_file = result.pop("server_trace", None)
        if trace_file is not None:
            with open(trace_file) as fh:
                result["tree"] = json.load(fh)
        else:
            result["tree"] = tr.TRACER.tree().to_dict()
    result.pop("server_trace", None)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
