"""The wire protocol: line-delimited JSON over a local socket.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
Requests are JSON objects with an ``op`` field::

    {"op": "check_module", "id": 1, "files": ["a.c", "b.c"]}
    {"op": "check_diff", "id": 2, "overlay": {"a.c": "int f() {...}"}}
    {"op": "status", "id": 3}
    {"op": "shutdown", "id": 4}

``check_module`` with no ``files`` analyzes the daemon's root file set;
with ``files`` it analyzes exactly those paths (read server-side at
request-processing time), matching a one-shot ``repro-pata check`` on
the same list.  ``check_diff`` analyzes the root set with the overlay's
in-memory sources replacing (or adding to) the on-disk ones.

Responses echo ``id`` and carry ``ok``; check responses add ``output``
(byte-identical to the one-shot CLI's plain stdout), structured
``bugs``/``reports``, ``exit_code``, the analysis ``stats`` scalars,
and a ``serve`` block (queue wait, analysis wall clock, coalescing).
Responses to pipelined requests may arrive out of submission order when
the scheduler coalesces a later request into an earlier identical job —
match on ``id``.

Requests are capped at :data:`MAX_LINE_BYTES` to bound the memory a
misbehaving client can pin; oversized, non-JSON or too deeply nested
lines get an error response (and, for unframeable garbage, a closed
connection).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence

#: request ops the daemon accepts
OPS = ("check_module", "check_diff", "status", "shutdown")

#: hard cap on one request/response line
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """A request line the server cannot parse or accept."""


def encode(obj: dict) -> bytes:
    """One wire line for ``obj`` (compact separators, sorted keys —
    deterministic bytes for identical payloads)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def decode(line: bytes) -> dict:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request exceeds {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON request: {exc}")
    except RecursionError:
        # Nesting deeper than the interpreter stack, far below the line cap.
        raise ProtocolError("invalid JSON request: nested too deeply")
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def validate_request(obj: dict) -> str:
    """The request's op, or raise :class:`ProtocolError`."""
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    files = obj.get("files")
    if files is not None and (
        not isinstance(files, list) or not all(isinstance(f, str) for f in files)
    ):
        raise ProtocolError("'files' must be a list of path strings")
    overlay = obj.get("overlay")
    if overlay is not None and (
        not isinstance(overlay, dict)
        or not all(isinstance(k, str) and isinstance(v, str)
                   for k, v in overlay.items())
    ):
        raise ProtocolError("'overlay' must map filenames to source text")
    if op == "check_diff" and not overlay:
        raise ProtocolError("check_diff requires a non-empty 'overlay'")
    return op


def job_key(op: str, paths: Sequence[str],
            overlay: Optional[Dict[str, str]]) -> str:
    """Content hash identifying one unit of analysis work.  Two queued
    requests with equal job keys would read identical inputs and run the
    identical analysis, so the scheduler coalesces them into one run and
    fans the response out."""
    h = hashlib.sha256()
    h.update(op.encode())
    for path in paths:
        h.update(b"\x00p")
        h.update(path.encode("utf-8", "surrogatepass"))
    for name in sorted(overlay or {}):
        h.update(b"\x00o")
        h.update(name.encode("utf-8", "surrogatepass"))
        h.update(b"\x00=")
        h.update(overlay[name].encode("utf-8", "surrogatepass"))
    return h.hexdigest()
