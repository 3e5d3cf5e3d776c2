"""Sharded experiment runner: run Table-1 drivers, in parallel, cached.

The ~12 experiment drivers are mutually independent, so the runner
shards them across a :class:`~repro.engine.ProcessExecutor` (``--jobs``)
and caches every driver's ``Row`` list in a results directory keyed by
experiment id + driver parameters — a re-run after a crash or a ^C only
pays for the experiments that never finished.

Usage::

    python -m repro.experiments                    # all experiments (minutes)
    python -m repro.experiments E2 E14             # a subset by id
    python -m repro.experiments --quick --jobs 4   # reduced params, 4 shards
    python -m repro.experiments --list             # ids and titles
    python -m repro.experiments --force E2         # ignore cached rows
    python -m repro.experiments --no-cache E2      # don't read or write cache

The ``matrix`` subcommand runs the cross-backend scenario evaluation
matrix (:mod:`repro.scenarios.matrix`) through the same caching and
``--quick`` machinery::

    python -m repro.experiments matrix --quick
    python -m repro.experiments matrix --scenarios drift,adversarial \\
        --backends insertion-only,mpc-two-round --jobs 4
    python -m repro.experiments matrix --quick --replicates 5
    python -m repro.experiments matrix --list

``matrix --replicates N`` runs every cell ``N`` times on
``SeedSequence.spawn``-derived stream seeds and reports mean/CI/quantile
aggregates plus a Holm-corrected pairwise backend significance matrix
(:mod:`repro.verify`) instead of single-seed point estimates.

With ``matrix --checkpoint-dir DIR`` every in-flight cell also saves a
durable session snapshot (:mod:`repro.persist`) after each stream batch,
so a killed sweep rerun with the same directory resumes *mid-stream* —
bit-identical to an uninterrupted run — instead of replaying whole cells.

The cache lives in ``--results-dir`` (default: ``$REPRO_RESULTS_DIR`` or
``./.repro-results``); each entry is a pickle of the rows plus a JSON
sidecar with the key and parameters.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from ..engine import ResultsCache, default_results_dir, get_executor
from . import table1
from .report import Row, format_table


@dataclass(frozen=True)
class Experiment:
    """One runnable experiment: a driver in :mod:`repro.experiments.table1`
    plus its full-run and quick-run keyword arguments."""

    eid: str
    title: str
    driver: str  # function name in table1 (kept as a name so shards pickle)
    full: dict = field(default_factory=dict)
    quick: dict = field(default_factory=dict)

    def kwargs(self, quick: bool) -> dict:
        return dict(self.quick if quick else self.full)

    def run(self, quick: bool = False) -> "list[Row]":
        """Invoke the driver with the experiment's own kwargs."""
        return getattr(table1, self.driver)(**self.kwargs(quick))


#: experiment id -> definition (insertion order is the display order)
EXPERIMENTS: "dict[str, Experiment]" = {
    e.eid: e
    for e in [
        Experiment("E1", "randomized 1-round MPC (Table 1 rows 1-2)",
                   "mpc_one_round_rows",
                   quick={"n": 1200, "z_values": (8, 32, 128)}),
        Experiment("E2", "deterministic MPC, adversarial outliers (rows 3-4)",
                   "mpc_two_round_rows",
                   quick={"n": 1200, "z_values": (8, 32, 128)}),
        Experiment("E3", "R-round trade-off (row 5)",
                   "mpc_multi_round_rows",
                   quick={"n": 800, "m": 8, "rounds_values": (1, 2, 3)}),
        Experiment("E4", "insertion-only streaming (rows 6-8)",
                   "streaming_insertion_rows",
                   quick={"n": 1000, "eps_values": (1.0, 0.5), "z_values": (8, 64)}),
        Experiment("E5", "insertion-only lower bound (Figures 2-3)",
                   "insertion_lb_rows"),
        Experiment("E6", "fully dynamic streaming (row 12)",
                   "dynamic_rows",
                   quick={"delta_values": (64, 256, 1024), "n": 120, "deletions": 60}),
        Experiment("E7", "dynamic lower bound (Figure 5)",
                   "dynamic_lb_rows"),
        Experiment("E8", "sliding window (rows 9-11)",
                   "sliding_window_rows",
                   quick={"n": 800, "window": 200}),
        Experiment("E9", "coreset quality, all algorithms",
                   "coreset_quality_rows",
                   quick={"n": 500}),
        Experiment("E12", "Omega(z) lower bound (Figure 4)",
                   "omega_z_lb_rows"),
        Experiment("E14", "sliding-window lower bound (Figures 6-7)",
                   "sliding_lb_rows"),
        Experiment("E15", "appendix geometry (Figure 8)",
                   "geometry_rows"),
    ]
}


def run_experiment(
    eid: str,
    quick: bool = False,
    cache: "ResultsCache | None" = None,
    force: bool = False,
) -> "list[Row]":
    """Run one experiment (through the cache when one is given)."""
    exp = EXPERIMENTS[eid]
    params = {
        "driver": exp.driver,
        "kwargs": exp.kwargs(quick),
        "quick": bool(quick),
    }
    if cache is not None and not force:
        rows = cache.get(eid, params)
        if rows is not None:
            return rows
    rows = exp.run(quick)
    if cache is not None:
        cache.put(eid, params, rows)
    return rows


def _shard(task: tuple) -> "tuple[str, list[Row]]":
    """One unit of `--jobs` fan-out (module-level so process pools can
    pickle it); returns ``(eid, rows)``."""
    eid, quick, cache_root, force = task
    cache = ResultsCache(cache_root) if cache_root else None
    return eid, run_experiment(eid, quick=quick, cache=cache, force=force)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the Table-1 experiment drivers and print the tables.",
    )
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced parameters (seconds instead of minutes)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="shard independent experiments over N processes")
    parser.add_argument("--list", action="store_true", dest="list_ids",
                        help="list experiment ids and titles, then exit")
    parser.add_argument("--results-dir", default=None, metavar="DIR",
                        help="row cache location (default: $REPRO_RESULTS_DIR "
                             "or ./.repro-results)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run without reading or writing cached rows")
    parser.add_argument("--force", action="store_true",
                        help="recompute even when cached rows exist")
    return parser


def main(argv: "list[str]") -> int:
    if argv and argv[0] == "matrix":
        from ..scenarios.matrix import matrix_main

        return matrix_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list_ids:
        for exp in EXPERIMENTS.values():
            print(f"{exp.eid:<4} {exp.title}")
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1")
        return 2
    targets = args.ids or list(EXPERIMENTS)
    unknown = [eid for eid in targets if eid not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {', '.join(unknown)}; "
              f"known: {', '.join(EXPERIMENTS)}")
        return 2

    cache_root = None if args.no_cache else (args.results_dir or default_results_dir())
    tasks = [(eid, args.quick, cache_root, args.force) for eid in targets]
    executor = get_executor("process" if args.jobs > 1 else None, jobs=args.jobs)
    for eid, rows in executor.map(_shard, tasks):
        print(format_table(rows, f"{eid}: {EXPERIMENTS[eid].title}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
