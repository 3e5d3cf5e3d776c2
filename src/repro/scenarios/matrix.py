"""The cross-backend evaluation matrix.

Runs any set of registered backends over any set of registered scenarios
through the one :class:`~repro.api.KCenterSession` facade and records a
quality/runtime cell per ``(scenario, backend)`` pair:

* **radius ratio** — the backend's greedy-solved radius over the
  scenario's reference radius (same solver on the full stream), so the
  ratio isolates what the *coreset* lost;
* **peak storage** — the largest storage figure the backend reported at
  any batch checkpoint (``stored`` / ``storage_cells`` / ``buffered``);
* **wall time** — seconds spent inside backend calls (ingest + solve).

Cells are independent, so the harness shards them across a
:class:`repro.engine` executor (``--jobs``) and caches each cell in a
:class:`~repro.engine.ResultsCache` keyed by the *fully resolved* cell
identity — scenario, backend, quick, seed, the complete spec dict and
the derived session options — so a knob change can never serve a stale
cell.  With ``--checkpoint-dir`` each in-flight cell additionally saves
a durable session snapshot (:mod:`repro.persist`) after every batch: a
killed sweep resumes *mid-stream* from the checkpoint (bit-identical to
the uninterrupted run) instead of replaying the cell from scratch.

With ``--replicates N`` every ``(scenario, backend)`` pair runs ``N``
times, each replicate on its own stream seed derived through the
engine's ``SeedSequence.spawn`` discipline
(:func:`repro.engine.derive_seeds`), each replicate a separate
cached/checkpointed cell.  The emitters then report mean, bootstrap CI
and quantiles per pair (:mod:`repro.verify`) plus a Holm-corrected
pairwise backend significance matrix instead of single-seed point
estimates.

The result renders as JSON (machine-readable, schema documented in
``docs/benchmarks.md``) and as a markdown table (human-readable, quoted
by the docs scenario catalogue)::

    python -m repro.experiments matrix --quick
    python -m repro.experiments matrix --scenarios drift,adversarial \\
        --backends insertion-only,mpc-two-round --jobs 4
    python -m repro.experiments matrix --quick --replicates 5
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass, fields

from ..api.registry import UnknownBackendError, available_backends, get_backend
from ..api.session import KCenterSession
from ..engine import ResultsCache, default_results_dir, derive_seeds, get_executor
from ..persist import read_snapshot
from .datasets import DatasetUnavailableError
from .registry import UnknownScenarioError, available_scenarios, get_scenario

__all__ = [
    "DEFAULT_BACKENDS",
    "CellResult",
    "MatrixResult",
    "cell_cache_params",
    "replicate_seeds",
    "run_cell",
    "run_matrix",
    "default_scenario_names",
    "resolve_scenario_names",
    "matrix_main",
]

#: backends the matrix sweeps when none are named: one per computational
#: model that can ingest arbitrary real-valued streams, plus the
#: fully-dynamic sketch (exercised by the integer scenarios, skipped
#: elsewhere).
DEFAULT_BACKENDS = (
    "offline",
    "insertion-only",
    "sliding-window",
    "mpc-two-round",
    "dynamic",
)

#: scenario tags excluded from the default sweep (opt in by name/tag):
#: "real" needs user-dropped datasets, "scale" streams n>=10^6 points
#: from an on-disk store — both far too heavy for a default/CI sweep
DEFAULT_EXCLUDED_TAGS = ("real", "scale")


@dataclass(frozen=True)
class CellResult:
    """One ``(scenario, backend)`` cell of the evaluation matrix.

    Attributes
    ----------
    scenario, backend:
        Registry names of the pair.
    status:
        ``"ok"``, ``"skipped"`` (structurally incompatible),
        ``"unavailable"`` (real dataset not obtainable) or ``"error"``.
    radius:
        Greedy radius solved on the backend's coreset (``ok`` only).
    reference_radius:
        The scenario's reference radius (same greedy solver, full
        stream).
    radius_ratio:
        ``radius / reference_radius`` — the quality figure.
    coreset_size:
        Points in the backend's final coreset.
    peak_storage:
        Largest storage figure reported at any batch checkpoint.
    updates:
        Stream points ingested.
    wall_time:
        Seconds inside backend calls (ingest + coreset + solve).
    note:
        Error text / skip reason / scenario provenance.
    seed:
        The stream seed this cell materialized with (the root seed for
        single runs, a :func:`replicate_seeds`-derived child otherwise).
    replicate:
        Replicate index within the sweep (``0`` for single runs).
    """

    scenario: str
    backend: str
    status: str
    radius: "float | None" = None
    reference_radius: "float | None" = None
    radius_ratio: "float | None" = None
    coreset_size: "int | None" = None
    peak_storage: "int | None" = None
    updates: "int | None" = None
    wall_time: "float | None" = None
    note: str = ""
    seed: "int | None" = None
    replicate: "int | None" = None


def replicate_seeds(seed: int, replicates: int) -> "list[int]":
    """Per-replicate stream seeds via the engine's spawn discipline.

    A single replicate keeps the root seed itself, so ``--replicates 1``
    is byte-identical to a plain sweep (and reuses its cached cells).
    With ``N > 1`` replicates each seed is the first word of child ``i``
    of ``SeedSequence(seed).spawn(N)`` (:func:`repro.engine.derive_seeds`),
    so replicate ``i``'s stream depends only on ``(seed, i)`` — never on
    sweep order, job count, or which process materializes it.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if replicates == 1:
        return [int(seed)]
    return [int(ss.generate_state(1)[0])
            for ss in derive_seeds(int(seed), replicates)]


#: stats keys probed (in order) for a backend's current storage figure
_STORAGE_KEYS = ("stored", "storage_cells", "buffered")

#: env hook for the CI kill-and-resume smoke: after this many checkpoint
#: writes (process-wide) the sweep dies with SystemExit, simulating a
#: mid-stream crash at a deterministic point
_KILL_ENV = "REPRO_MATRIX_KILL_AFTER"

#: process-wide checkpoint-write counter backing the kill hook
_ckpt_writes = 0


def _storage_probe(stats: dict) -> "int | None":
    """Extract the backend's storage figure from a ``stats()`` dict."""
    for key in _STORAGE_KEYS:
        v = stats.get(key)
        if v is not None:
            return int(v)
    return None


def cell_cache_params(scenario: str, backend: str, quick: bool, seed: int,
                      spec, options: dict) -> dict:
    """The fully resolved cache identity of one matrix cell.

    Includes the complete spec dict and the derived backend session
    options, so changing any of them misses the cache instead of serving
    a stale cell computed under different parameters.
    """
    return {
        "scenario": scenario,
        "backend": backend,
        "quick": bool(quick),
        "seed": int(seed),
        "spec": spec.as_dict(),
        "options": dict(options),
    }


def _checkpoint_path(checkpoint_dir: str, params: dict) -> str:
    """Per-cell checkpoint file, keyed by the full cell identity."""
    return os.path.join(
        checkpoint_dir, ResultsCache.key("matrix-ckpt", params) + ".ckpt"
    )


def _load_checkpoint(path: str, scenario: str, backend: str):
    """Resume state from a cell checkpoint: ``(session, next_batch, peak)``.

    Any unreadable/mismatched checkpoint degrades to a fresh start —
    resuming is an optimization, never a correctness requirement.
    """
    try:
        manifest, state = read_snapshot(path)
        extra = manifest.get("extra", {})
        if extra.get("scenario") != scenario or extra.get("backend") != backend:
            return None, 0, None
        sess = KCenterSession.from_snapshot(manifest, state, backend=backend)
        peak = extra.get("peak")
        return sess, int(extra.get("batch", 0)), (
            int(peak) if peak is not None else None
        )
    except Exception:
        return None, 0, None


def _maybe_simulated_kill() -> None:
    """Die (SystemExit) once the env-configured checkpoint budget is hit."""
    global _ckpt_writes
    _ckpt_writes += 1
    limit = os.environ.get(_KILL_ENV)
    if limit and _ckpt_writes >= int(limit):
        raise SystemExit(
            f"simulated kill after {_ckpt_writes} checkpoint writes "
            f"({_KILL_ENV}={limit})"
        )


def run_cell(
    scenario_name: str,
    backend_name: str,
    quick: bool = False,
    seed: int = 0,
    reference: "float | None" = None,
    checkpoint_dir: "str | None" = None,
    instance=None,
    replicate: int = 0,
) -> CellResult:
    """Evaluate one backend on one scenario (one matrix cell).

    Materializes the scenario, drives the backend through a
    :class:`~repro.api.KCenterSession` batch by batch (probing storage
    at every checkpoint), solves the final coreset with the greedy
    3-approximation, and normalizes against the scenario's reference
    radius.  Structural incompatibility and unavailable datasets come
    back as non-``ok`` statuses instead of raising.

    Parameters
    ----------
    scenario_name, backend_name:
        Registry names of the pair.
    quick, seed:
        Materialization parameters for the scenario.
    reference:
        Precomputed reference radius for this ``(scenario, quick,
        seed)`` triple, so sweeps solve the full-stream reference once
        per scenario instead of once per cell; ``None`` computes it
        here.
    checkpoint_dir:
        When set, the in-flight session is snapshotted here after every
        batch (streaming-model backends) or on a power-of-two batch
        cadence (buffered offline/MPC backends, whose snapshots rewrite
        the whole input prefix), and an existing matching checkpoint
        resumes the stream mid-cell — bit-identical to the
        uninterrupted run (the completed cell removes its checkpoint).
    instance:
        Pre-materialized :class:`~repro.scenarios.ScenarioInstance`
        (sweep optimization); ``None`` materializes here.
    replicate:
        Replicate index recorded in the cell (provenance only — the
        replicate's stream identity is fully carried by ``seed``).
    """
    scenario = get_scenario(scenario_name)
    info = get_backend(backend_name)
    ids = {"seed": int(seed), "replicate": int(replicate)}
    if instance is None:
        try:
            instance = scenario.make(quick=quick, seed=seed)
        except DatasetUnavailableError as exc:
            return CellResult(scenario_name, backend_name, "unavailable",
                              note=str(exc), **ids)
    inst = instance
    if reference is not None:
        inst.prime_reference(reference)
    if not inst.compatible(info):
        return CellResult(
            scenario_name, backend_name, "skipped",
            note=f"{info.model} backend incompatible with this stream",
            **ids,
        )
    try:
        spec = inst.spec
        options = inst.session_options(info)
        ckpt = None
        if checkpoint_dir:
            params = cell_cache_params(
                scenario_name, backend_name, quick, seed, spec, options
            )
            ckpt = _checkpoint_path(checkpoint_dir, params)
        sess, start, peak = None, 0, None
        if ckpt is not None and os.path.exists(ckpt):
            sess, start, peak = _load_checkpoint(ckpt, scenario_name,
                                                 backend_name)
        if sess is None:
            sess = KCenterSession.from_spec(
                spec, backend=backend_name, **options
            )
            start, peak = 0, None
        # buffered backends (offline, MPC) snapshot their whole input
        # prefix, so a per-batch cadence would write 1+2+...+B batches —
        # quadratic I/O for backends whose ingest is a cheap append.  A
        # power-of-two cadence keeps their total checkpoint I/O linear
        # while streaming-model backends (small state, real per-batch
        # work) still checkpoint every batch.
        buffered = info.model in ("offline", "mpc")
        # inst.chunks(start) seeks past already-ingested batches without
        # reading them (source-backed streams memory-map one chunk at a
        # time), so a resumed out-of-core cell re-reads nothing.  The
        # checkpoint cursor is (chunk index, row offset): "batch" is the
        # next chunk to ingest, "row" the rows consumed — for
        # fixed-chunk sources the two are redundant by construction
        # (row = batch * chunk_rows until the last chunk), and the row
        # field lets a resume validate the stream identity cheaply.
        rows = sess.updates_seen
        for i, batch in enumerate(inst.chunks(start), start=start):
            sess.extend(batch)
            rows += len(batch)
            probe = _storage_probe(sess.backend.stats())
            if probe is not None:
                peak = probe if peak is None else max(peak, probe)
            if ckpt is not None and (not buffered or (i + 1) & i == 0):
                sess.save(ckpt, extra={
                    "scenario": scenario_name, "backend": backend_name,
                    "batch": i + 1, "row": rows, "peak": peak,
                })
                _maybe_simulated_kill()
        sol = sess.solve(method="greedy3")
        ref = inst.reference()
        ratio = float(sol.radius) / ref if ref > 0 else float("inf")
        if peak is not None:
            peak = max(peak, sol.coreset_size)
        if ckpt is not None and os.path.exists(ckpt):
            os.remove(ckpt)  # the finished cell no longer needs it
        return CellResult(
            scenario=scenario_name,
            backend=backend_name,
            status="ok",
            radius=float(sol.radius),
            reference_radius=float(ref),
            radius_ratio=float(ratio),
            coreset_size=int(sol.coreset_size),
            peak_storage=peak,
            updates=int(sol.updates),
            wall_time=float(sol.wall_time),
            note=inst.notes,
            **ids,
        )
    except Exception as exc:  # one bad cell must not kill the sweep
        return CellResult(scenario_name, backend_name, "error",
                          note=f"{type(exc).__name__}: {exc}", **ids)


#: per-process memo of reference radii, keyed ``(scenario, quick, seed)``
_REFERENCES: "dict[tuple, float]" = {}

#: per-process memo of the most recent materialized instance (the
#: resolved cache identity needs the instance, and a sweep visits each
#: scenario once per backend, scenario-major).  Bounded to ONE entry so
#: peak memory stays at ~one stream, not every swept stream at once.
_INSTANCES: "dict[tuple, object]" = {}


def _scenario_instance(scenario: str, quick: bool, seed: int):
    """Materialize (or reuse) the scenario instance for one sweep cell.

    Raises whatever the factory raises (``DatasetUnavailableError`` for
    missing real datasets); failures are never memoized.
    """
    key = (scenario, bool(quick), int(seed))
    inst = _INSTANCES.get(key)
    if inst is None:
        inst = get_scenario(scenario).make(quick=quick, seed=seed)
        _INSTANCES.clear()  # single-entry memo: evict the previous scenario
        _INSTANCES[key] = inst
    return inst


def _scenario_reference(scenario: str, quick: bool, seed: int,
                        cache: "ResultsCache | None",
                        force: bool) -> "float | None":
    """Resolve the scenario's reference radius once per ``(scenario,
    quick, seed)`` — memoized per process and, when a cache is given,
    shared across processes and runs.  Returns ``None`` when the
    scenario cannot be materialized (real dataset unavailable); the
    cell run then reports the failure itself."""
    key = (scenario, bool(quick), int(seed))
    params = {"scenario": scenario, "quick": bool(quick), "seed": int(seed)}
    # the memo is honored even under force: run_matrix clears it at the
    # start of a forced run, so hits here are this run's own recomputes
    if key in _REFERENCES:
        ref = _REFERENCES[key]
        if cache is not None and ("matrix-ref", params) not in cache:
            cache.put("matrix-ref", params, ref)  # backfill a fresh cache dir
        return ref
    if cache is not None and not force:
        hit = cache.get("matrix-ref", params)
        if isinstance(hit, float):
            _REFERENCES[key] = hit
            return hit
    try:
        ref = _scenario_instance(scenario, quick, seed).reference()
    except Exception:
        return None
    _REFERENCES[key] = ref
    if cache is not None:
        cache.put("matrix-ref", params, ref)
    return ref


def _cell_task(task: tuple) -> dict:
    """One unit of matrix fan-out (module-level so process pools pickle
    it); opens its own cache handle and returns the cell as a dict."""
    (scenario, backend, quick, seed, replicate, cache_root, force,
     checkpoint_dir) = task
    cache = ResultsCache(cache_root) if cache_root else None
    cell_fields = {f.name for f in fields(CellResult)}
    info = get_backend(backend)

    def _valid(hit):
        # schema-validate: a stale entry from another version is a miss
        return isinstance(hit, dict) and hit.get("status") == "ok" \
            and set(hit) == cell_fields

    # the full resolved cache key below needs the materialized instance;
    # dataset-backed cells therefore also keep a cheap alias entry so an
    # unavailable dataset can still serve its last-known-good cell
    alias_params = {"scenario": scenario, "backend": backend,
                    "quick": bool(quick), "seed": int(seed),
                    "replicate": int(replicate)}
    sc = get_scenario(scenario)
    try:
        # memoized per process: the resolved spec/options the instance
        # yields are what make the cache key immune to knob and
        # derivation changes, and the sweep visits each scenario once
        # per backend
        inst = _scenario_instance(scenario, quick, seed)
    except DatasetUnavailableError as exc:
        if cache is not None and not force:
            hit = cache.get("matrix-cell-alias", alias_params)
            if _valid(hit):
                return hit
        return asdict(CellResult(scenario, backend, "unavailable",
                                 note=str(exc), seed=int(seed),
                                 replicate=int(replicate)))
    params = cell_cache_params(
        scenario, backend, quick, seed, inst.spec, inst.session_options(info)
    )
    if cache is not None and not force:
        hit = cache.get("matrix-cell", params)
        if _valid(hit):
            return hit
    ref = _scenario_reference(scenario, quick, seed, cache, force)
    cell = asdict(run_cell(scenario, backend, quick=quick, seed=seed,
                           reference=ref,
                           checkpoint_dir=checkpoint_dir, instance=inst,
                           replicate=replicate))
    # only settled results are cached: transient failures ("unavailable",
    # "error") must retry on the next run, and "skipped" is free anyway
    if cache is not None and cell["status"] == "ok":
        cache.put("matrix-cell", params, cell)
        if "real" in sc.tags:
            # factories are deterministic in (quick, seed), so the alias
            # is as precise as the full key while the dataset on disk is
            # unchanged — exactly the last-known-good case it serves
            cache.put("matrix-cell-alias", alias_params, cell)
    return cell


@dataclass
class MatrixResult:
    """A completed sweep: the cell list plus run provenance.

    Attributes
    ----------
    scenarios, backends:
        The swept registry names, in sweep order.
    quick, seed:
        The materialization parameters every cell shared (``seed`` is
        the *root* seed; replicated cells carry their own derived seed).
    cells:
        One :class:`CellResult` per ``(scenario, replicate, backend)``
        triple, in sweep order.
    replicates:
        Replicates per ``(scenario, backend)`` pair (``1`` = the
        classic single-seed sweep).
    alpha:
        Family-wise significance level the emitted verdicts use.
    """

    scenarios: "list[str]"
    backends: "list[str]"
    quick: bool
    seed: int
    cells: "list[CellResult]"
    replicates: int = 1
    alpha: float = 0.05

    def cell(self, scenario: str, backend: str) -> "CellResult | None":
        """The first cell for a pair, or ``None`` when it was not swept."""
        for c in self.cells:
            if c.scenario == scenario and c.backend == backend:
                return c
        return None

    def replicate_cells(self, scenario: str, backend: str) -> "list[CellResult]":
        """Every replicate cell of one pair, in replicate order."""
        return sorted(
            (c for c in self.cells
             if c.scenario == scenario and c.backend == backend),
            key=lambda c: (c.replicate or 0),
        )

    # -- statistical verification ------------------------------------------

    def summary(self) -> "list[dict]":
        """Mean/CI/quantile aggregates per ``(scenario, backend, metric)``.

        Seeded with the sweep's root seed plus a stable digest of each
        group key (:mod:`repro.verify`), so the aggregate — like the
        cells — is byte-identical across ``--jobs`` values.
        """
        from ..verify import summarize_cells

        return summarize_cells(self.cells, seed=self.seed)

    def significance(self) -> dict:
        """Pairwise Holm-corrected backend comparisons per metric.

        Backends are paired on shared ``(scenario, seed)`` streams —
        see :func:`repro.verify.significance_matrix`.
        """
        from ..verify import significance_matrix

        return significance_matrix(self.cells, list(self.backends),
                                   alpha=self.alpha, seed=self.seed)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """The machine-readable document (schema: ``docs/benchmarks.md``).

        Replicated sweeps (``replicates > 1``) additionally carry a
        ``summary`` list (mean/CI/quantiles per pair and metric) and a
        ``significance`` object (the pairwise backend matrix).
        """
        import repro

        doc = {
            "suite": "scenario-matrix",
            "version": repro.__version__,
            "quick": bool(self.quick),
            "seed": int(self.seed),
            "replicates": int(self.replicates),
            "scenarios": list(self.scenarios),
            "backends": list(self.backends),
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "cells": [asdict(c) for c in self.cells],
        }
        if self.replicates > 1:
            doc["summary"] = self.summary()
            doc["significance"] = self.significance()
        return doc

    def write_json(self, path: str) -> None:
        """Write :meth:`to_json_dict` to ``path`` (pretty-printed)."""
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    def _pivot_entry(self, scenario: str, backend: str) -> str:
        """One radius-ratio pivot cell: a point estimate for single
        sweeps, ``mean [ci_lo, ci_hi]`` over the replicates otherwise."""
        reps = self.replicate_cells(scenario, backend)
        if not reps:
            return ""
        ok = [c for c in reps if c.status == "ok"]
        if not ok:
            return reps[0].status
        if self.replicates <= 1 or len(ok) == 1:
            return f"{ok[0].radius_ratio:.3f}"
        from ..verify import summarize

        s = summarize([c.radius_ratio for c in ok], seed=self.seed,
                      key=(scenario, backend, "radius_ratio"))
        return f"{s.mean:.3f} [{s.ci_lo:.3f}, {s.ci_hi:.3f}]"

    def to_markdown(self) -> str:
        """Render the sweep as markdown.

        A radius-ratio pivot (scenario rows x backend columns; mean and
        bootstrap CI when replicated) followed by the full per-cell
        table; replicated sweeps append the statistical summary and the
        pairwise significance matrix (:mod:`repro.verify`).
        """
        title = "### Radius ratio vs reference (lower is better)"
        if self.replicates > 1:
            title += (f" — mean [95% CI] over {self.replicates} replicates")
        lines = [title, ""]
        header = ["scenario"] + list(self.backends)
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for s in self.scenarios:
            row = [s] + [self._pivot_entry(s, b) for b in self.backends]
            lines.append("| " + " | ".join(row) + " |")
        if self.replicates > 1:
            lines += ["", "### Statistical summary (per metric, "
                          f"over {self.replicates} replicates)", ""]
            cols = ["scenario", "backend", "metric", "n", "mean",
                    "95% CI", "median", "min", "max"]
            lines.append("| " + " | ".join(cols) + " |")
            lines.append("|" + "---|" * len(cols))
            for row in self.summary():
                q = row["quantiles"]
                lines.append(
                    "| " + " | ".join([
                        row["scenario"], row["backend"], row["metric"],
                        str(row["n"]), _fmt(row["mean"]),
                        f"[{_fmt(row['ci_lo'])}, {_fmt(row['ci_hi'])}]",
                        _fmt(q["median"]), _fmt(q["min"]), _fmt(q["max"]),
                    ]) + " |"
                )
            from ..verify import significance_markdown

            lines += ["", significance_markdown(self.significance()).rstrip()]
        lines += ["", "### Full matrix", ""]
        cols = ["scenario", "backend", "rep", "seed", "status", "radius",
                "ratio", "coreset", "peak storage", "updates", "wall s"]
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "---|" * len(cols))
        for c in self.cells:
            lines.append(
                "| " + " | ".join([
                    c.scenario, c.backend, _fmt(c.replicate), _fmt(c.seed),
                    c.status, _fmt(c.radius), _fmt(c.radius_ratio),
                    _fmt(c.coreset_size), _fmt(c.peak_storage),
                    _fmt(c.updates), _fmt(c.wall_time),
                ]) + " |"
            )
        return "\n".join(lines) + "\n"

    def write_markdown(self, path: str) -> None:
        """Write :meth:`to_markdown` to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_markdown())


def _fmt(v) -> str:
    """Compact cell formatting for the markdown table."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.3g}" if (v != 0 and abs(v) < 0.01) or abs(v) >= 1000 \
            else f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def default_scenario_names() -> "list[str]":
    """The default sweep: every registered scenario not carrying an
    excluded tag (real datasets are opt-in by name or tag)."""
    from . import builtin  # noqa: F401 - importing registers the builtins

    out = []
    for name in available_scenarios():
        sc = get_scenario(name)
        if not any(t in sc.tags for t in DEFAULT_EXCLUDED_TAGS):
            out.append(name)
    return out


def resolve_scenario_names(tokens: "list[str]") -> "list[str]":
    """Expand a CLI scenario selection into registry names.

    Each token may be a scenario name, a tag (expanded to every scenario
    carrying it) or ``"all"``.  Order is preserved, duplicates dropped.

    Raises
    ------
    UnknownScenarioError
        For a token that is neither a name, a tag, nor ``"all"``.
    """
    from . import builtin  # noqa: F401 - importing registers the builtins

    out: "list[str]" = []

    def _add(name):
        if name not in out:
            out.append(name)

    all_names = available_scenarios()
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok == "all":
            for n in all_names:
                _add(n)
        elif tok in all_names:
            _add(tok)
        else:
            by_tag = available_scenarios(tag=tok)
            if not by_tag:
                tags = sorted({t for n in all_names
                               for t in get_scenario(n).tags})
                raise UnknownScenarioError(
                    f"unknown scenario or tag {tok!r}; scenarios: "
                    f"{all_names}; tags: {tags}"
                )
            for n in by_tag:
                _add(n)
    return out


def run_matrix(
    scenarios: "list[str] | None" = None,
    backends: "list[str] | None" = None,
    *,
    quick: bool = False,
    seed: int = 0,
    replicates: int = 1,
    alpha: float = 0.05,
    executor: "str | None" = None,
    jobs: "int | None" = None,
    cache_root: "str | None" = None,
    force: bool = False,
    checkpoint_dir: "str | None" = None,
) -> MatrixResult:
    """Sweep ``backends`` x ``scenarios`` and collect the matrix.

    Parameters
    ----------
    scenarios:
        Scenario registry names; ``None`` sweeps
        :func:`default_scenario_names`.
    backends:
        Backend registry names; ``None`` sweeps :data:`DEFAULT_BACKENDS`.
    quick:
        Reduced stream sizes (CI smoke).
    seed:
        Root seed handed to every scenario factory and spec (and, for
        replicated sweeps, to :func:`replicate_seeds`).
    replicates:
        Runs per ``(scenario, backend)`` pair, each on its own derived
        stream seed and each a separately cached/checkpointed cell;
        ``1`` keeps the classic single-seed sweep byte-identical
        (including its cache keys).
    alpha:
        Family-wise significance level for the emitted verdicts
        (replicated sweeps only).
    executor, jobs:
        Cell fan-out (see :func:`repro.engine.get_executor`); ``jobs``
        alone implies a process pool, neither means serial.
    cache_root:
        Cell cache directory; ``None`` disables caching.
    force:
        Recompute cells even when cached.
    checkpoint_dir:
        Per-cell mid-stream checkpoint directory (see :func:`run_cell`);
        a killed sweep rerun with the same directory resumes in-flight
        cells from their last completed batch.

    Returns
    -------
    MatrixResult
        Cells in ``(scenario, backend)`` sweep order.
    """
    from . import builtin  # noqa: F401 - importing registers the builtins

    scenario_names = (
        list(scenarios) if scenarios is not None else default_scenario_names()
    )
    backend_names = (
        list(backends) if backends is not None else list(DEFAULT_BACKENDS)
    )
    for name in scenario_names:
        get_scenario(name)  # raise early on typos, before any work
    for name in backend_names:
        get_backend(name)
    seeds = replicate_seeds(seed, replicates)
    # scenario-major, then replicate, then backend: consecutive tasks
    # share a (scenario, seed) materialization, so the single-entry
    # per-process instance memo keeps paying under replication
    tasks = [
        (s, b, quick, rep_seed, rep, cache_root, force, checkpoint_dir)
        for s in scenario_names
        for rep, rep_seed in enumerate(seeds)
        for b in backend_names
    ]
    if executor is None and jobs is not None and jobs > 1:
        executor = "process"
    if force:
        _REFERENCES.clear()  # a forced run recomputes each reference once
    exe = get_executor(executor, jobs)
    try:
        cells = [CellResult(**d) for d in exe.map(_cell_task, tasks)]
    finally:
        close = getattr(exe, "close", None)
        if close is not None:
            close()
    return MatrixResult(
        scenarios=scenario_names,
        backends=backend_names,
        quick=quick,
        seed=seed,
        cells=cells,
        replicates=int(replicates),
        alpha=float(alpha),
    )


# ---------------------------------------------------------------------------
# CLI (dispatched from `python -m repro.experiments matrix ...`)
# ---------------------------------------------------------------------------


def build_matrix_parser() -> argparse.ArgumentParser:
    """The ``matrix`` subcommand's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments matrix",
        description="Run registered backends over registered scenarios and "
                    "emit a quality/runtime matrix (JSON + markdown).",
    )
    parser.add_argument("--scenarios", default=None, metavar="NAMES",
                        help="comma-separated scenario names and/or tags "
                             "(e.g. 'drift,adversarial'), or 'all' "
                             "(default: every non-real scenario)")
    parser.add_argument("--backends", default=None, metavar="NAMES",
                        help="comma-separated backend names, or 'all' "
                             f"(default: {','.join(DEFAULT_BACKENDS)})")
    parser.add_argument("--quick", action="store_true",
                        help="reduced stream sizes (seconds instead of minutes)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for scenario streams and specs")
    parser.add_argument("--replicates", type=int, default=1, metavar="N",
                        help="runs per (scenario, backend) pair, each on its "
                             "own SeedSequence-derived stream seed; N > 1 "
                             "emits mean/CI/quantile aggregates and a "
                             "pairwise significance matrix")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="family-wise significance level for the "
                             "replicated significance matrix (default 0.05)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="shard cells over N processes")
    parser.add_argument("--results-dir", default=None, metavar="DIR",
                        help="cell cache + default output location (default: "
                             "$REPRO_RESULTS_DIR or ./.repro-results)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run without reading or writing cached cells")
    parser.add_argument("--force", action="store_true",
                        help="recompute even when cached cells exist")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="save a durable session snapshot per cell after "
                             "every batch; a killed sweep rerun with the same "
                             "directory resumes mid-stream (bit-identical to "
                             "an uninterrupted run)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="JSON output path (default: "
                             "<results-dir>/matrix.json)")
    parser.add_argument("--markdown", default=None, metavar="PATH",
                        help="markdown output path (default: "
                             "<results-dir>/matrix.md)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list registered scenarios and tags, then exit")
    return parser


def matrix_main(argv: "list[str]") -> int:
    """Entry point for ``python -m repro.experiments matrix ...``."""
    from . import builtin  # noqa: F401 - importing registers the builtins
    from .registry import scenario_table

    args = build_matrix_parser().parse_args(argv)
    if args.list_scenarios:
        for sc in scenario_table():
            tags = ",".join(sc.tags)
            print(f"{sc.name:<24} [{tags}] {sc.description}")
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1")
        return 2
    if args.replicates < 1:
        print("--replicates must be >= 1")
        return 2
    if not 0.0 < args.alpha < 1.0:
        print("--alpha must be in (0, 1)")
        return 2

    try:
        scenarios = (
            resolve_scenario_names(args.scenarios.split(","))
            if args.scenarios else None
        )
        backends = None
        if args.backends:
            backends = (
                available_backends() if args.backends.strip() == "all"
                else [b.strip() for b in args.backends.split(",") if b.strip()]
            )
            for b in backends:
                get_backend(b)
    except (UnknownScenarioError, UnknownBackendError) as exc:
        print(exc)
        return 2
    if scenarios is not None and not scenarios:
        print("--scenarios selected nothing; see --list for names and tags")
        return 2
    if backends is not None and not backends:
        print(f"--backends selected nothing; available: {available_backends()}")
        return 2

    results_dir = args.results_dir or default_results_dir()
    cache_root = None if args.no_cache else results_dir
    result = run_matrix(
        scenarios, backends,
        quick=args.quick, seed=args.seed,
        replicates=args.replicates, alpha=args.alpha,
        jobs=args.jobs if args.jobs > 1 else None,
        cache_root=cache_root, force=args.force,
        checkpoint_dir=args.checkpoint_dir,
    )

    os.makedirs(results_dir, exist_ok=True)
    json_path = args.json or os.path.join(results_dir, "matrix.json")
    md_path = args.markdown or os.path.join(results_dir, "matrix.md")
    for path in (json_path, md_path):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    result.write_json(json_path)
    result.write_markdown(md_path)
    print(result.to_markdown())
    print(f"wrote {json_path} and {md_path}")
    return 0
