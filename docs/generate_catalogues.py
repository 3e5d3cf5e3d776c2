"""Generate the docs pages that mirror live registries.

Writes three files under ``docs/`` (never edit them by hand):

* ``backends.md``   — from :func:`repro.api.backend_table`;
* ``scenarios.md``  — from :func:`repro.scenarios.scenario_table`,
  with quick-instance sizes materialized for the non-real scenarios;
* ``contributing.md`` — a copy of the repository-root ``CONTRIBUTING.md``
  (mkdocs cannot reference files outside its docs dir).

CI runs this before ``mkdocs build --strict``; run it locally and commit
the output whenever a registration changes::

    PYTHONPATH=src python docs/generate_catalogues.py
"""

from __future__ import annotations

import os
import sys

DOCS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(DOCS_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

HEADER = "<!-- generated by docs/generate_catalogues.py — do not edit -->\n\n"


def generate_backends() -> str:
    from repro.api import backend_table
    from repro.persist import supports_snapshot

    lines = [
        HEADER.rstrip("\n"),
        "",
        "# Backend catalogue",
        "",
        "Every algorithm in the library self-registers in the backend",
        "registry (`repro.api`) under a stable name; this page is generated",
        "from `backend_table()`, so it is always in sync with",
        "`available_backends()`.",
        "",
        "Select a backend by name on a `KCenterSession`:",
        "",
        "```python",
        "from repro.api import ProblemSpec, KCenterSession",
        "",
        "spec = ProblemSpec(k=3, z=10, eps=0.5, dim=2, seed=0)",
        'sess = KCenterSession.from_spec(spec, backend="insertion-only")',
        "```",
        "",
        "| name | paper algorithm | model | guarantee / space | deletes | deterministic | snapshot |",
        "|---|---|---|---|---|---|---|",
    ]
    for info in backend_table():
        lines.append(
            f"| `{info.name}` | {info.algorithm} | {info.model} "
            f"| {info.guarantee} "
            f"| {'yes' if info.supports_delete else 'no'} "
            f"| {'yes' if info.deterministic else 'no'} "
            f"| {'yes' if supports_snapshot(info.factory) else 'no'} |"
        )
    lines += [
        "",
        "The *snapshot* column marks backends implementing the durable",
        "checkpoint protocol (`KCenterSession.save`/`load`; see",
        "[Persistence](persistence.md)).",
        "",
        "Backends with required options (passed as session keywords):",
        "",
        "- `dynamic`, `dynamic-deterministic` — `delta_universe` (integer",
        "  universe size; coordinates must lie in `1..Delta`).",
        "- `sliding-window` — `window`, `r_min`, `r_max` (window length and",
        "  the radius-ladder bounds).",
        "- MPC backends — optional `num_machines` (an integer `>= 1`),",
        "  `partition` (`\"contiguous\"`, `\"random\"` or a callable), `executor`,",
        "  `jobs` (`jobs` alone means a thread pool, neither means serial), and",
        "  for `mpc-multi-round` `rounds` (an integer `>= 1`). A bad value fails",
        "  when the session is built (HTTP 400 `bad-session`), not at the first",
        "  query.",
        "",
        "Custom algorithms plug in via `repro.api.register_backend`; see",
        "`examples/composable_pipeline.py`.",
    ]
    return "\n".join(lines) + "\n"


def generate_scenarios() -> str:
    from repro.scenarios import get_scenario, scenario_table

    lines = [
        HEADER.rstrip("\n"),
        "",
        "# Scenario catalogue",
        "",
        "Every workload self-registers in the scenario registry",
        "(`repro.scenarios`) with tags and a description; this page is",
        "generated from `scenario_table()`.  Materialize one directly, or",
        "sweep backends over scenarios with the evaluation matrix:",
        "",
        "```python",
        "from repro.scenarios import get_scenario, run_matrix",
        "",
        'inst = get_scenario("outlier-burst").make(quick=True, seed=0)',
        'result = run_matrix(["outlier-burst"], ["offline", "insertion-only"],',
        "                    quick=True)",
        "print(result.to_markdown())",
        "```",
        "",
        "```bash",
        "python -m repro.experiments matrix --quick",
        "python -m repro.experiments matrix --scenarios drift,adversarial \\",
        "    --backends insertion-only,mpc-two-round --jobs 4",
        "```",
        "",
        "| name | tags | quick size | description |",
        "|---|---|---|---|",
    ]
    for sc in scenario_table():
        size = ""
        if "real" not in sc.tags:
            inst = sc.make(quick=True, seed=0)
            size = f"n={inst.n}, d={inst.dim}"
        else:
            size = "(user-dropped, on disk)"
        tags = ", ".join(sc.tags)
        lines.append(f"| `{sc.name}` | {tags} | {size} | {sc.description} |")
    lines += [
        "",
        "## Reading the matrix",
        "",
        "- **radius ratio** — the backend's greedy-solved radius over the",
        "  scenario reference (same solver on the full stream); ~1.0 means",
        "  the coreset lost nothing, values below 1.0 happen when the",
        "  coreset's merged weights let the greedy solver make better picks,",
        "  or when a windowed backend legitimately covers only the final",
        "  window (e.g. `sliding-window` on `sliding-churn`).",
        "- **peak storage** — the largest `stored`/`storage_cells`/`buffered`",
        "  figure the backend reported at any batch checkpoint.",
        "- **skipped** — structurally incompatible pair (the fully-dynamic",
        "  sketches only ingest integer streams, so they run on",
        "  `integer-grid` and are skipped elsewhere).",
        "- **unavailable** — a real dataset that is neither cached nor",
        "  dropped as a csv into `$REPRO_DATA_DIR`.",
        "",
        "New scenarios self-register via `repro.scenarios.register_scenario`;",
        "factories must be deterministic in `(quick, seed)`.",
    ]
    return "\n".join(lines) + "\n"


def generate_contributing() -> str:
    with open(os.path.join(ROOT, "CONTRIBUTING.md"), "r") as f:
        body = f.read()
    return HEADER + body


def main() -> int:
    targets = {
        "backends.md": generate_backends(),
        "scenarios.md": generate_scenarios(),
        "contributing.md": generate_contributing(),
    }
    for name, content in targets.items():
        path = os.path.join(DOCS_DIR, name)
        with open(path, "w") as f:
            f.write(content)
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
