"""On-disk real-dataset loader with a cache.

Follows the :class:`repro.engine.ResultsCache` pattern: a cache directory
(``$REPRO_DATA_DIR`` or ``./.repro-data``) holds one ``<name>.npy`` per
dataset plus a JSON sidecar recording provenance (the file it was parsed
from, the source URL, shape, write time), and writes are atomic (temp
file + rename).

Resolution order for :func:`load_dataset`:

1. the cached ``<name>.npy`` in the data directory;
2. a user-dropped ``<name>.csv`` / ``<name>.txt`` / ``<name>.data`` in
   the data directory (whitespace- or comma-separated numeric rows, as
   downloaded from the registered source URL).

Nothing is fetched over the network.  When neither file exists the
loader raises :class:`DatasetUnavailableError` naming the file to drop;
the evaluation matrix records such cells as ``"unavailable"`` instead of
failing the run, so real-data scenarios degrade gracefully on machines
without the files.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from ..store import MemmapSource, write_points_npy

__all__ = [
    "DatasetSource",
    "DatasetUnavailableError",
    "DATASETS",
    "default_data_dir",
    "load_dataset",
    "load_dataset_source",
]

#: environment override for the dataset cache location
DATA_DIR_ENV = "REPRO_DATA_DIR"


class DatasetUnavailableError(RuntimeError):
    """A real dataset is neither cached nor dropped into the data
    directory."""


@dataclass(frozen=True)
class DatasetSource:
    """A registered real dataset: where it lives and how to parse it.

    Attributes
    ----------
    name:
        Cache key (``<name>.npy`` on disk).
    url:
        Source URL of the raw file.
    columns:
        Column indices forming the point coordinates (the remaining
        columns — labels, ids — are dropped).
    delimiter:
        Field delimiter of the raw file (``None`` = any whitespace).
    description:
        One-line provenance for catalogues and sidecars.
    """

    name: str
    url: str
    columns: "tuple[int, ...]"
    delimiter: "str | None" = ","
    description: str = ""


#: real point clouds the `real-*` scenarios draw from
DATASETS: "dict[str, DatasetSource]" = {
    "iris": DatasetSource(
        name="iris",
        url="https://archive.ics.uci.edu/ml/machine-learning-databases/iris/iris.data",
        columns=(0, 1, 2, 3),
        delimiter=",",
        description="UCI Iris: 150 flower measurements in 4 dimensions",
    ),
    "wine": DatasetSource(
        name="wine",
        url="https://archive.ics.uci.edu/ml/machine-learning-databases/wine/wine.data",
        columns=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
        delimiter=",",
        description="UCI Wine: 178 chemical analyses in 13 dimensions",
    ),
}


def default_data_dir() -> str:
    """``$REPRO_DATA_DIR`` when set, else ``.repro-data`` in cwd."""
    return os.environ.get(DATA_DIR_ENV) or os.path.join(os.curdir, ".repro-data")


def _parse_rows(text: str, source: DatasetSource) -> np.ndarray:
    """Parse delimiter-separated numeric rows into the source's columns."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(source.delimiter) if source.delimiter else line.split()
        try:
            rows.append([float(fields[c]) for c in source.columns])
        except (ValueError, IndexError):
            continue  # header / trailing junk lines
    if not rows:
        raise DatasetUnavailableError(
            f"dataset {source.name!r}: no parseable numeric rows"
        )
    return np.asarray(rows, dtype=float)


def _write_cached(root: str, source: DatasetSource, pts: np.ndarray,
                  origin: str) -> None:
    """Atomically store ``pts`` plus a JSON provenance sidecar.

    The array goes through the :func:`repro.store.write_points_npy`
    spool (temp file, header finalized on close, rename into place), so
    a killed or failed write can never publish a torn ``.npy`` — the
    cache either holds the complete array or nothing.
    """
    os.makedirs(root, exist_ok=True)
    npy = os.path.join(root, f"{source.name}.npy")
    write_points_npy(npy, (np.atleast_2d(np.asarray(pts, dtype=float)),))
    meta = os.path.join(root, f"{source.name}.json")
    meta_tmp = meta + f".tmp.{os.getpid()}"
    with open(meta_tmp, "w") as f:
        json.dump(
            {
                "dataset": source.name,
                "origin": origin,
                "url": source.url,
                "shape": list(pts.shape),
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            f,
            indent=2,
        )
    os.replace(meta_tmp, meta)


def load_dataset(
    name: str,
    data_dir: "str | None" = None,
) -> np.ndarray:
    """Load a registered real dataset as an ``(n, d)`` float array.

    Parameters
    ----------
    name:
        Key in :data:`DATASETS`.
    data_dir:
        Cache directory; ``None`` resolves via :func:`default_data_dir`.

    Returns
    -------
    numpy.ndarray
        The point cloud, cached as ``<name>.npy`` for subsequent calls.

    Raises
    ------
    DatasetUnavailableError
        When the dataset is neither cached nor dropped as a raw file.
    """
    try:
        source = DATASETS[name]
    except KeyError:
        raise DatasetUnavailableError(
            f"unknown dataset {name!r}; registered: {sorted(DATASETS)}"
        ) from None
    root = data_dir if data_dir is not None else default_data_dir()

    npy = os.path.join(root, f"{source.name}.npy")
    if os.path.exists(npy):
        try:
            return np.asarray(np.load(npy), dtype=float)
        except Exception:
            pass  # corrupted cache entry: fall through and rebuild

    for ext in (".csv", ".txt", ".data"):
        raw = os.path.join(root, source.name + ext)
        if os.path.exists(raw):
            with open(raw, "r", encoding="utf-8", errors="replace") as f:
                pts = _parse_rows(f.read(), source)
            _write_cached(root, source, pts, origin=raw)
            return pts

    raise DatasetUnavailableError(
        f"dataset {source.name!r} is not cached; download {source.url} "
        f"and drop it as {source.name}.csv into {root!r}"
    )


def load_dataset_source(
    name: str,
    data_dir: "str | None" = None,
) -> MemmapSource:
    """Load a registered real dataset as a memory-mapped
    :class:`~repro.store.PointSource`.

    Same resolution order (and cache population) as
    :func:`load_dataset`, but the cached ``<name>.npy`` is served with
    ``mmap_mode="r"`` instead of being read into RAM — the out-of-core
    form real-data scenarios and sweeps consume.
    """
    try:
        source = DATASETS[name]
    except KeyError:
        raise DatasetUnavailableError(
            f"unknown dataset {name!r}; registered: {sorted(DATASETS)}"
        ) from None
    root = data_dir if data_dir is not None else default_data_dir()
    npy = os.path.join(root, f"{source.name}.npy")
    if not os.path.exists(npy):
        # populates the atomic .npy cache (or raises DatasetUnavailableError)
        load_dataset(name, data_dir=data_dir)
    try:
        return MemmapSource(npy)
    except Exception as exc:
        raise DatasetUnavailableError(
            f"dataset {name!r}: cached {npy!r} is unreadable ({exc}); "
            "delete it to force a rebuild"
        ) from None
