"""The on-disk snapshot container: one zip with a JSON manifest and an npz payload.

A snapshot file is a plain zip archive holding exactly two members:

``manifest.json``
    Human-readable provenance — format version, library version, backend
    name, the full :meth:`~repro.api.ProblemSpec.as_dict` of the spec,
    session options, update/wall-time accounting, and the JSON-typed part
    of the backend state (``state`` subtree).  Auditable with nothing but
    ``unzip -p snapshot manifest.json``.
``payload.npz``
    Every array-typed leaf of the backend state, stored under its
    ``/``-joined path in the state tree (standard ``np.savez`` container;
    loaded with ``allow_pickle=False``, so a snapshot can never execute
    code on load).

Backend ``snapshot()`` methods return one nested dict of string keys whose
leaves are either JSON-serializable scalars/lists or ``np.ndarray``s;
:func:`write_snapshot` splits that tree across the two members and
:func:`read_snapshot` reassembles it bit for bit.  Writes are atomic
(temp file + rename), so a crash mid-checkpoint never leaves a truncated
snapshot behind.

Versioning policy: ``format`` is bumped whenever the container layout or
any backend's state tree changes incompatibly; readers reject snapshots
whose version they do not know with a :class:`SnapshotError` instead of
guessing (see ``docs/persistence.md``).

Reading is hardened for network exposure (the ``repro.serve`` session
server restores snapshots it did not write): member names carrying path
separators or ``..`` components are rejected before anything is
extracted (zip-slip), and the total decompressed payload is capped —
``max_bytes`` argument, ``REPRO_SNAPSHOT_MAX_BYTES`` environment
override, 1 GiB default — with the cap enforced on the *actual* bytes
streamed out, not the (forgeable) size fields in the zip directory.
"""

from __future__ import annotations

import io
import json
import os
import zipfile

import numpy as np

from .errors import SnapshotError

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "DEFAULT_MAX_DECOMPRESSED_BYTES",
    "DEFAULT_MMAP_THRESHOLD",
    "MANIFEST_MEMBER",
    "PAYLOAD_MEMBER",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "read_manifest",
]

#: Current container/state format version (see module docstring).
SNAPSHOT_FORMAT_VERSION = 1

#: Zip member holding the JSON manifest.
MANIFEST_MEMBER = "manifest.json"

#: Zip member holding the npz array payload.
PAYLOAD_MEMBER = "payload.npz"

#: Default cap on the total decompressed size of a snapshot's members.
#: Override per call (``max_bytes``) or process-wide with the
#: ``REPRO_SNAPSHOT_MAX_BYTES`` environment variable.
DEFAULT_MAX_DECOMPRESSED_BYTES = 1 << 30

#: Arrays at or above this many bytes are memory-mapped instead of read
#: into RAM when :func:`read_snapshot` is given an ``mmap_dir``.
DEFAULT_MMAP_THRESHOLD = 1 << 20

_MAX_BYTES_ENV = "REPRO_SNAPSHOT_MAX_BYTES"

_SEP = "/"


def _split_state(state: dict, prefix: str, json_tree: dict, arrays: dict) -> None:
    """Recursively split ``state`` into JSON leaves and npz arrays."""
    for key, value in state.items():
        if not isinstance(key, str) or not key:
            raise SnapshotError(
                f"state keys must be non-empty strings, got {key!r}"
            )
        if _SEP in key:
            raise SnapshotError(f"state key {key!r} must not contain {_SEP!r}")
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            sub: dict = {}
            json_tree[key] = sub
            _split_state(value, path + _SEP, sub, arrays)
        elif isinstance(value, np.ndarray):
            if value.dtype.hasobject:
                # np.savez would pickle it and allow_pickle=False on read
                # would then reject the file forever — fail at write time
                raise SnapshotError(
                    f"state leaf {path!r} is an object-dtype array; only "
                    "plain numeric/bool/bytes dtypes are portable"
                )
            arrays[path] = value
        elif isinstance(value, np.generic):
            json_tree[key] = value.item()
        elif isinstance(value, (bool, int, float, str)) or value is None:
            json_tree[key] = value
        elif isinstance(value, (list, tuple)):
            json_tree[key] = list(value)
        else:
            raise SnapshotError(
                f"state leaf {path!r} has unsupported type "
                f"{type(value).__name__}; use arrays, scalars, strings, "
                "lists or nested dicts"
            )


def _merge_state(json_tree: dict, arrays: "dict[str, np.ndarray]") -> dict:
    """Reassemble the state tree from its JSON part and the npz arrays."""
    state = json.loads(json.dumps(json_tree))  # deep copy, JSON types only
    for path, arr in arrays.items():
        parts = path.split(_SEP)
        node = state
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise SnapshotError(
                    f"array path {path!r} collides with a JSON leaf"
                )
        node[parts[-1]] = arr
    return state


def write_snapshot(path: str, manifest: dict, state: dict) -> str:
    """Write a snapshot file atomically.

    Parameters
    ----------
    path:
        Destination file (parent directories are created).
    manifest:
        JSON-serializable provenance record; ``format`` and the split
        ``state``/``arrays`` fields are filled in here.
    state:
        The backend state tree (nested dicts of arrays / JSON leaves).

    Returns
    -------
    str
        ``path``, for chaining.
    """
    json_tree: dict = {}
    arrays: "dict[str, np.ndarray]" = {}
    _split_state(state, "", json_tree, arrays)
    doc = dict(manifest)
    doc.setdefault("format", SNAPSHOT_FORMAT_VERSION)
    doc["state"] = json_tree
    doc["arrays"] = sorted(arrays)
    try:
        manifest_bytes = json.dumps(doc, indent=2, sort_keys=True).encode()
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"manifest is not JSON-serializable: {exc}") from exc
    payload = io.BytesIO()
    np.savez(payload, **arrays)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr(MANIFEST_MEMBER, manifest_bytes)
            zf.writestr(PAYLOAD_MEMBER, payload.getvalue())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash-path cleanup
            os.remove(tmp)
    return path


def _resolve_max_bytes(max_bytes: "int | None") -> int:
    """The effective decompressed-size budget for one snapshot read."""
    if max_bytes is None:
        env = os.environ.get(_MAX_BYTES_ENV)
        max_bytes = int(env) if env else DEFAULT_MAX_DECOMPRESSED_BYTES
    if int(max_bytes) < 1:
        raise SnapshotError(f"max_bytes must be >= 1, got {max_bytes!r}")
    return int(max_bytes)


def _check_member_names(path: str, zf: zipfile.ZipFile) -> None:
    """Reject zip-slip member names before anything is extracted.

    A snapshot only ever holds top-level members, so any name carrying a
    path separator (``/`` or ``\\``), a ``..`` component, or an absolute
    prefix is hostile, not merely malformed.
    """
    for name in zf.namelist():
        if ("/" in name or "\\" in name or ".." in name
                or name.startswith(("/", "~")) or ":" in name):
            raise SnapshotError(
                f"snapshot {path!r} member name {name!r} contains a path "
                "separator or traversal component; refusing to read it"
            )


def _read_member(path: str, zf: zipfile.ZipFile, member: str,
                 budget: int) -> bytes:
    """Read one member, enforcing ``budget`` on the streamed-out bytes.

    The zip directory's ``file_size`` field is attacker-controlled, so
    the cap is applied to what decompression actually produces (one
    chunk of slack past the budget, then fail).
    """
    chunks, remaining = [], budget
    try:
        with zf.open(member) as fh:
            while True:
                chunk = fh.read(min(1 << 20, remaining + 1))
                if not chunk:
                    break
                remaining -= len(chunk)
                if remaining < 0:
                    raise SnapshotError(
                        f"snapshot {path!r} member {member!r} decompresses "
                        f"past the {budget}-byte budget; pass a larger "
                        f"max_bytes (or set ${_MAX_BYTES_ENV}) if this "
                        "snapshot is trusted"
                    )
                chunks.append(chunk)
    except (OSError, zipfile.BadZipFile) as exc:  # truncated/corrupt member
        raise SnapshotError(
            f"cannot read snapshot {path!r} member {member!r}: {exc}"
        ) from exc
    return b"".join(chunks)


def _open_validated(path: str, max_bytes: "int | None"):
    """Open ``path`` as a zip, run the name checks, resolve the budget."""
    budget = _resolve_max_bytes(max_bytes)
    try:
        zf = zipfile.ZipFile(path, "r")
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    try:
        _check_member_names(path, zf)
    except SnapshotError:
        zf.close()
        raise
    return zf, budget


def _parse_manifest(path: str, raw: bytes) -> dict:
    """Decode and version-check a manifest member."""
    try:
        manifest = json.loads(raw.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(f"snapshot {path!r} manifest is not a JSON object")
    fmt = manifest.get("format")
    if fmt != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has format version {fmt!r}; this library "
            f"reads version {SNAPSHOT_FORMAT_VERSION}"
        )
    return manifest


def read_manifest(path: str, max_bytes: "int | None" = None) -> dict:
    """Read only the JSON manifest of a snapshot file.

    The cheap half of :func:`read_snapshot` — the array payload is never
    decompressed — used by spool scans (``repro.serve``) that need each
    snapshot's provenance (kind, backend, spec, update count) without
    paying for its state.  Same validation and hardening as
    :func:`read_snapshot`.

    Parameters
    ----------
    path:
        Snapshot file written by :func:`write_snapshot`.
    max_bytes:
        Decompressed-size budget for the manifest member (defaults to
        ``REPRO_SNAPSHOT_MAX_BYTES`` or 1 GiB).

    Raises
    ------
    SnapshotError
        Missing/corrupted file, hostile member names, over-budget
        manifest, or unknown ``format`` version.
    """
    zf, budget = _open_validated(path, max_bytes)
    with zf:
        try:
            raw = _read_member(path, zf, MANIFEST_MEMBER, budget)
        except KeyError as exc:
            raise SnapshotError(
                f"cannot read snapshot {path!r}: {exc}"
            ) from exc
    return _parse_manifest(path, raw)


def _extract_member(path: str, zf: zipfile.ZipFile, member: str,
                    budget: int, dest: str) -> None:
    """Stream one member to ``dest`` atomically, enforcing ``budget`` on
    the decompressed bytes (the file-backed sibling of
    :func:`_read_member` — holds one 1 MiB chunk in RAM, not the whole
    payload)."""
    tmp = f"{dest}.tmp.{os.getpid()}"
    remaining = budget
    try:
        with zf.open(member) as src, open(tmp, "wb") as out:
            while True:
                chunk = src.read(min(1 << 20, remaining + 1))
                if not chunk:
                    break
                remaining -= len(chunk)
                if remaining < 0:
                    raise SnapshotError(
                        f"snapshot {path!r} member {member!r} decompresses "
                        f"past the {budget}-byte budget; pass a larger "
                        f"max_bytes (or set ${_MAX_BYTES_ENV}) if this "
                        "snapshot is trusted"
                    )
                out.write(chunk)
        os.replace(tmp, dest)
    except (OSError, zipfile.BadZipFile) as exc:
        raise SnapshotError(
            f"cannot read snapshot {path!r} member {member!r}: {exc}"
        ) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _memmap_npz_member(payload_path: str, zi: "zipfile.ZipInfo",
                       mode: str) -> "np.ndarray | None":
    """Memory-map one STORED ``.npy`` member in place inside an npz file.

    ``np.savez`` stores members uncompressed, so the member's bytes *are*
    a complete ``.npy`` file at a computable offset: local zip header
    (whose filename/extra lengths may differ from the central directory's
    — it must be re-read, not inferred) followed by the npy header,
    followed by raw array data this maps directly.  Returns ``None``
    when the member cannot be mapped (unexpected layout, exotic npy
    version) — the caller then falls back to an in-RAM read.
    """
    try:
        with open(payload_path, "rb") as fh:
            fh.seek(zi.header_offset)
            local = fh.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                return None
            fn_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            fh.seek(zi.header_offset + 30 + fn_len + extra_len)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                return None
            if dtype.hasobject:
                return None
            offset = fh.tell()
        return np.memmap(payload_path, dtype=dtype, mode=mode,
                         offset=offset, shape=shape,
                         order="F" if fortran else "C")
    except (OSError, ValueError):
        return None


def _load_payload_mapped(path: str, payload_path: str, threshold: int,
                         mode: str) -> "dict[str, np.ndarray]":
    """Load an extracted ``payload.npz``, memory-mapping large members.

    STORED members of at least ``threshold`` bytes are mapped in place;
    everything else (small arrays, deflated members, unmappable layouts)
    is read into RAM through the normal validated ``np.load`` path.
    """
    arrays: "dict[str, np.ndarray]" = {}
    try:
        with zipfile.ZipFile(payload_path) as zf:
            infos = zf.infolist()
        with np.load(payload_path, allow_pickle=False) as npz:
            for zi in infos:
                name = zi.filename
                key = name[:-4] if name.endswith(".npy") else name
                arr = None
                if (zi.compress_type == zipfile.ZIP_STORED
                        and zi.file_size >= threshold):
                    arr = _memmap_npz_member(payload_path, zi, mode)
                arrays[key] = arr if arr is not None else npz[key]
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(
            f"cannot read snapshot payload of {path!r}: {exc}"
        ) from exc
    return arrays


def read_snapshot(path: str,
                  max_bytes: "int | None" = None,
                  mmap_dir: "str | None" = None,
                  mmap_threshold: int = DEFAULT_MMAP_THRESHOLD,
                  mmap_mode: str = "r") -> "tuple[dict, dict]":
    """Read a snapshot file back into ``(manifest, state)``.

    Parameters
    ----------
    path:
        Snapshot file written by :func:`write_snapshot`.
    max_bytes:
        Cap on the *total* decompressed size of the snapshot's members,
        enforced on the bytes actually streamed out (a zip bomb fails
        here, not in the allocator).  ``None`` resolves the
        ``REPRO_SNAPSHOT_MAX_BYTES`` environment variable, defaulting to
        1 GiB.
    mmap_dir:
        Out-of-core restore: when set, the array payload is streamed to
        ``<mmap_dir>/<basename>.payload.npz`` (same budget enforcement,
        one 1 MiB chunk in RAM at a time) and large uncompressed arrays
        are **memory-mapped** from that file instead of loaded — restore
        RAM stays O(small arrays) no matter how big the state is.  The
        extracted file must outlive the returned arrays; the caller owns
        its cleanup.  ``None`` (the default) is the classic fully
        in-RAM read.
    mmap_threshold:
        Minimum member size in bytes to map rather than load (default
        1 MiB); smaller/deflated/unmappable members are read into RAM.
    mmap_mode:
        ``numpy.memmap`` mode for mapped arrays: ``"r"`` (read-only
        pages, the default) or ``"c"`` (copy-on-write — for state a
        backend mutates in place; written pages are copied lazily, the
        file is never modified).

    Raises
    ------
    SnapshotError
        When the file is missing/corrupted, carries an unknown
        ``format`` version, holds member names with path separators or
        ``..`` components (zip-slip), or decompresses past the budget.
    """
    if mmap_mode not in ("r", "c"):
        raise SnapshotError(
            f"mmap_mode must be 'r' or 'c', got {mmap_mode!r}"
        )
    zf, budget = _open_validated(path, max_bytes)
    payload_path = None
    with zf:
        try:
            raw_manifest = _read_member(path, zf, MANIFEST_MEMBER, budget)
            if mmap_dir is None:
                payload = _read_member(
                    path, zf, PAYLOAD_MEMBER, budget - len(raw_manifest)
                )
            else:
                os.makedirs(mmap_dir, exist_ok=True)
                payload_path = os.path.join(
                    mmap_dir, f"{os.path.basename(path)}.payload.npz"
                )
                _extract_member(
                    path, zf, PAYLOAD_MEMBER, budget - len(raw_manifest),
                    payload_path,
                )
        except KeyError as exc:
            raise SnapshotError(
                f"cannot read snapshot {path!r}: {exc}"
            ) from exc
    manifest = _parse_manifest(path, raw_manifest)
    if payload_path is not None:
        arrays = _load_payload_mapped(
            path, payload_path, int(mmap_threshold), mmap_mode
        )
    else:
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except Exception as exc:
            raise SnapshotError(
                f"cannot read snapshot payload of {path!r}: {exc}"
            ) from exc
    state = _merge_state(manifest.get("state", {}), arrays)
    return manifest, state
