"""Wire schemas and validation for the session server.

Everything that crosses the HTTP boundary is defined here, so the
handler (:mod:`repro.serve.server`), the replay client
(:mod:`repro.serve.replay`) and the tests share one vocabulary:

* :class:`WireError` — the error taxonomy; every validation failure maps
  to an HTTP status plus a machine-readable ``code``, rendered as
  ``{"error": {"code", "message"}}``;
* **session names** — path components matched against a conservative
  ``[A-Za-z0-9][A-Za-z0-9._-]*`` charset (also what makes a name safe to
  use as a spool filename);
* **point payloads** — either JSON ``{"points": [[...], ...]}`` or the
  binary fast path (``Content-Type: application/octet-stream``, raw
  C-order float64 with an ``X-Repro-Shape: n,d`` header) the replay
  driver uses to push >50k updates/s through a text protocol;
* **create payloads** — ``{"spec": {...}, "backend": name,
  "options": {...}}`` validated into a :class:`~repro.api.ProblemSpec`;
* **solution rendering** — :func:`solution_to_wire`.
"""

from __future__ import annotations

import json
import re

import numpy as np

from ..api import ProblemSpec
from ..api.registry import UnknownBackendError, get_backend
from ..store import PointStore

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_BATCH_POINTS",
    "SPOOL_BODY_BYTES",
    "SESSION_NAME_RE",
    "WireError",
    "validate_session_name",
    "parse_json_body",
    "decode_points",
    "parse_binary_shape",
    "spool_binary_points",
    "parse_create_payload",
    "solution_to_wire",
    "error_body",
]

#: Hard cap on a request body (64 MiB — a 4M-point float64 2-d batch).
MAX_BODY_BYTES = 64 << 20

#: Hard cap on points per batched extend/delete request.
MAX_BATCH_POINTS = 1 << 20

#: Binary extend bodies at or above this size are spooled to disk
#: (:func:`spool_binary_points`) instead of buffered on the heap.
SPOOL_BODY_BYTES = 8 << 20

#: Accepted session names — also guarantees a safe spool filename.
SESSION_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


class WireError(Exception):
    """A request that cannot be served, with its HTTP mapping.

    Parameters
    ----------
    status:
        HTTP status code for the response.
    code:
        Stable machine-readable error identifier
        (``"bad-json"``, ``"unknown-session"``, ...).
    message:
        Human-readable detail, returned in the JSON error body.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)


def error_body(code: str, message: str) -> bytes:
    """The canonical JSON error body."""
    return json.dumps({"error": {"code": code, "message": message}}).encode()


def validate_session_name(name: str) -> str:
    """Validate a session name from a request path.

    The charset is what makes ``<spool>/<name>.snap`` safe: no path
    separators, no leading dot, bounded length.
    """
    if not SESSION_NAME_RE.match(name or ""):
        raise WireError(
            400, "bad-session-name",
            f"session name {name!r} must match {SESSION_NAME_RE.pattern}",
        )
    return name


def parse_json_body(body: bytes) -> dict:
    """Decode a request body as one JSON object."""
    if len(body) > MAX_BODY_BYTES:
        raise WireError(413, "body-too-large",
                        f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        doc = json.loads(body.decode() or "{}")
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(400, "bad-json", f"body is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise WireError(400, "bad-json", "body must be a JSON object")
    return doc


def parse_binary_shape(shape_header: "str | None") -> "tuple[int, int]":
    """Validate an ``X-Repro-Shape: n,d`` header into ``(n, d)``."""
    if not shape_header:
        raise WireError(400, "bad-shape",
                        "binary point payloads need an X-Repro-Shape header "
                        "of the form 'n,d'")
    try:
        n, d = (int(x) for x in shape_header.split(","))
    except ValueError as exc:
        raise WireError(400, "bad-shape",
                        f"malformed X-Repro-Shape {shape_header!r}") from exc
    if n < 0 or d < 1:
        raise WireError(400, "bad-shape",
                        f"invalid X-Repro-Shape {shape_header!r}")
    return n, d


def _decode_binary_points(body: bytes, shape_header: "str | None") -> np.ndarray:
    """The binary ingest fast path: raw C-order float64 + shape header."""
    n, d = parse_binary_shape(shape_header)
    expected = n * d * 8
    if len(body) != expected:
        raise WireError(
            400, "bad-shape",
            f"binary payload is {len(body)} bytes, shape ({n},{d}) "
            f"needs {expected}",
        )
    return np.frombuffer(body, dtype="<f8").reshape(n, d).copy()


def _drain_exact(rfile, remaining: int) -> None:
    """Consume ``remaining`` body bytes (best effort) to keep the
    connection's request framing intact after a validation failure."""
    while remaining > 0:
        skip = rfile.read(min(1 << 20, remaining))
        if not skip:
            return
        remaining -= len(skip)


def _read_exact(rfile, want: int) -> bytes:
    """Read exactly ``want`` bytes, looping over short reads."""
    parts, got = [], 0
    while got < want:
        data = rfile.read(want - got)
        if not data:
            raise WireError(400, "bad-points",
                            f"connection closed mid-body ({got}/{want} "
                            "bytes of this slice)")
        parts.append(data)
        got += len(data)
    return parts[0] if len(parts) == 1 else b"".join(parts)


def spool_binary_points(rfile, length: int, shape_header: "str | None",
                        store_path: str):
    """Stream an oversized binary extend body to disk, never the heap.

    Reads exactly ``length`` bytes of raw C-order little-endian float64
    from ``rfile`` in row-aligned ~4 MiB slices, validates each slice
    (finiteness — the same check :func:`decode_points` applies), and
    appends it to an atomic :class:`~repro.store.PointStore` at
    ``store_path``.  Returns the published
    :class:`~repro.store.StoreSource`, whose ``len()`` is the row count
    — a drop-in carrier for the manager's ``extend``.  The caller owns
    deleting the store directory after the extend is applied.

    Error contract: whenever this raises :class:`WireError`, the body
    has been fully consumed (drained) so HTTP keep-alive framing stays
    intact — unless the connection itself died mid-body, in which case
    there is no framing left to protect.  On any failure the staged
    store is discarded (a killed request never leaves a store that
    opens).
    """
    try:
        n, d = parse_binary_shape(shape_header)
        expected = n * d * 8
        if length != expected:
            raise WireError(
                400, "bad-shape",
                f"binary payload is {length} bytes, shape ({n},{d}) "
                f"needs {expected}",
            )
        if n > MAX_BATCH_POINTS:
            raise WireError(413, "batch-too-large",
                            f"batch of {n} exceeds {MAX_BATCH_POINTS} "
                            "points; split the extend")
    except WireError:
        _drain_exact(rfile, length)
        raise
    row = d * 8
    chunk_rows = max(1, (4 << 20) // row)
    store = PointStore.create(store_path, chunk_rows=chunk_rows,
                              overwrite=True)
    remaining = expected
    try:
        while remaining:
            want = min(chunk_rows * row, remaining)
            buf = _read_exact(rfile, want)
            remaining -= want
            pts = np.frombuffer(buf, dtype="<f8").reshape(-1, d)
            if not np.isfinite(pts).all():
                _drain_exact(rfile, remaining)
                raise WireError(400, "bad-points",
                                "points must be finite (no NaN/Inf)")
            store.append(pts)
        return store.finalize()
    except BaseException:
        store.abort()
        raise


def decode_points(body: bytes, content_type: str,
                  shape_header: "str | None" = None) -> np.ndarray:
    """Decode an extend/delete payload into an ``(n, d)`` float array.

    Parameters
    ----------
    body:
        Raw request body.
    content_type:
        The request's ``Content-Type``; ``application/octet-stream``
        selects the binary fast path, everything else is parsed as the
        JSON ``{"points": [[...], ...]}`` schema.
    shape_header:
        The ``X-Repro-Shape`` header value (binary path only).
    """
    if len(body) > MAX_BODY_BYTES:
        raise WireError(413, "body-too-large",
                        f"request body exceeds {MAX_BODY_BYTES} bytes")
    if (content_type or "").split(";")[0].strip() == "application/octet-stream":
        pts = _decode_binary_points(body, shape_header)
    else:
        doc = parse_json_body(body)
        raw = doc.get("points")
        if raw is None:
            raise WireError(400, "missing-points",
                            'body must carry a "points" array')
        try:
            pts = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise WireError(400, "bad-points",
                            f"points are not numeric: {exc}") from exc
        if pts.ndim == 1 and pts.size:
            pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise WireError(400, "bad-points",
                        f"points must be a 2-d array, got shape {pts.shape}")
    if len(pts) > MAX_BATCH_POINTS:
        raise WireError(413, "batch-too-large",
                        f"batch of {len(pts)} exceeds {MAX_BATCH_POINTS} "
                        "points; split the extend")
    if not np.isfinite(pts).all():
        raise WireError(400, "bad-points",
                        "points must be finite (no NaN/Inf)")
    return pts


def parse_create_payload(doc: dict) -> "tuple[ProblemSpec, str, dict, dict]":
    """Validate a ``PUT /sessions/{name}`` body.

    Returns
    -------
    tuple
        ``(spec, backend_name, options, serve_options)`` where
        ``serve_options`` carries the service-level knobs
        (``checkpoint_every``, ``reference_radius``) that are not
        forwarded to the backend factory.
    """
    spec_doc = doc.get("spec")
    if not isinstance(spec_doc, dict):
        raise WireError(400, "missing-spec",
                        'body must carry a "spec" object (k, z, eps, ...)')
    try:
        spec = ProblemSpec(**spec_doc)
    except (TypeError, ValueError) as exc:
        raise WireError(400, "bad-spec",
                        f"spec does not validate: {exc}") from exc
    backend = doc.get("backend", "insertion-only")
    if not isinstance(backend, str):
        raise WireError(400, "bad-backend",
                        f"backend must be a registry name, got {backend!r}")
    try:
        get_backend(backend)
    except UnknownBackendError as exc:
        raise WireError(400, "unknown-backend", str(exc)) from exc
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise WireError(400, "bad-options", "options must be an object")
    serve_options = {}
    if "checkpoint_every" in doc:
        ce = doc["checkpoint_every"]
        if not isinstance(ce, int) or isinstance(ce, bool) or ce < 1:
            raise WireError(400, "bad-checkpoint-every",
                            f"checkpoint_every must be a positive integer, "
                            f"got {ce!r}")
        serve_options["checkpoint_every"] = ce
    if "reference_radius" in doc:
        rr = doc["reference_radius"]
        if not isinstance(rr, (int, float)) or isinstance(rr, bool) or rr <= 0:
            raise WireError(400, "bad-reference-radius",
                            f"reference_radius must be a positive number, "
                            f"got {rr!r}")
        serve_options["reference_radius"] = float(rr)
    return spec, backend, options, serve_options


def solution_to_wire(sol) -> dict:
    """Render a :class:`~repro.api.Solution` as a JSON-safe dict."""
    out = {
        "radius": float(sol.radius),
        "centers": np.asarray(sol.centers, dtype=float).tolist(),
        "method": sol.method,
        "backend": sol.backend,
        "eps_guarantee": float(sol.eps_guarantee),
        "coreset_size": int(sol.coreset_size),
        "updates": int(sol.updates),
        "wall_time": float(sol.wall_time),
    }
    # the greedy decision path taken, when the session recorded it
    if "greedy_path" in sol.stats:
        out["greedy_path"] = sol.stats["greedy_path"]
    if "greedy_stats" in sol.stats:
        # the radius search's decision counts and grid builds (already
        # JSON-safe ints)
        out["greedy_stats"] = dict(sol.stats["greedy_stats"])
    return out
