"""The daemon's wire format: JSON lines over a Unix domain socket.

Every message — request or response — is one JSON object on one
``\\n``-terminated line.  Requests carry an ``op`` and op-specific
fields; responses carry ``ok`` plus either payload fields or an
``error`` string.  The format is deliberately boring: any language (or
``socat``) can drive the daemon.

Two payload types need encoding beyond JSON:

* a :class:`~repro.exec.envelope.CellSpec` travels as a plain dict of
  its fields with ``stdin`` base64-encoded (``stdin_b64``) — specs are
  *constructed*, never trusted blindly: unknown fields and wrong types
  are a :class:`ProtocolError`;
* a :class:`~repro.exec.envelope.CellResult` travels pickled and
  base64-encoded.  The envelope holds rich objects (measurements,
  compressed traces, span trees) whose JSON projection would lose the
  byte-identical guarantee the differential gates rely on.  Pickle over
  a trust boundary would be unacceptable; a Unix socket created mode
  ``0o600`` in the user's own directory is the same trust domain as the
  pickled on-disk result cache the client already reads.

Ops: ``ping``, ``submit``, ``submit_matrix``, ``status``, ``result``,
``cancel``, ``stats``, ``shutdown`` — see :mod:`repro.serve.server`.
"""

from __future__ import annotations

import base64
import json
import pickle
from dataclasses import fields
from typing import Any, Dict, List, Optional

from ..exec.envelope import CellResult, CellSpec

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "encode_message",
    "decode_line",
    "spec_to_wire",
    "spec_from_wire",
    "result_to_wire",
    "result_from_wire",
]

PROTOCOL_VERSION = 1

#: Upper bound on one protocol line (a matrix submit with inline mini-C
#: sources and stdin payloads can be large; traces never cross as JSON).
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed request or response line."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as a compact JSON line (UTF-8, newline-terminated)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` on anything that is not a JSON object
    — the daemon answers those with an error response instead of dying,
    and the connection stays usable.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


# --- CellSpec ------------------------------------------------------------------

_SPEC_FIELDS = {f.name for f in fields(CellSpec)}
_SPEC_BOOLS = {"trace", "optimize", "validate_cfg", "observe"}
_SPEC_STRINGS = {"program", "target", "replication", "policy"}
_SPEC_OPT_STRINGS = {"verify"}


def _is_int_or_null(value: Any) -> bool:
    """JSON ``true``/``false`` decode to Python ints; refuse them here, or
    ``max_rtls=true`` would act as 1 yet key differently in the cache."""
    return value is None or (isinstance(value, int) and not isinstance(value, bool))


def spec_to_wire(spec: CellSpec) -> Dict[str, Any]:
    """A JSON-safe rendering of one cell spec."""
    wire: Dict[str, Any] = {}
    for f in fields(CellSpec):
        value = getattr(spec, f.name)
        if f.name == "stdin":
            if value is not None:
                wire["stdin_b64"] = base64.b64encode(value).decode("ascii")
        else:
            wire[f.name] = value
    return wire


def _tuned_from_wire(value: Any):
    """Validate ``tuned`` and rebuild its tuple form.

    JSON has no tuples, so the per-function override rows arrive as
    arrays of ``[function, policy, max_rtls, order]``; the spec needs
    the hashable tuple-of-tuples form (it is frozen and used as a cache
    key component).  ``null`` means untuned; an empty array is rejected
    rather than silently normalized — the client is expected to send
    ``null`` for "no overrides".
    """
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value:
        raise ProtocolError("spec field 'tuned' must be null or a non-empty array")
    rows = []
    for row in value:
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ProtocolError(
                "each 'tuned' row must be [function, policy, max_rtls, order]"
            )
        function, policy, max_rtls, order = row
        if not isinstance(function, str) or not isinstance(policy, str):
            raise ProtocolError("'tuned' function and policy must be strings")
        if not _is_int_or_null(max_rtls):
            raise ProtocolError("'tuned' max_rtls must be an int or null")
        if not isinstance(order, str):
            raise ProtocolError("'tuned' order must be a string")
        rows.append((function, policy, max_rtls, order))
    return tuple(rows)


def spec_from_wire(data: Any) -> CellSpec:
    """Validate and rebuild a :class:`CellSpec` from its wire form."""
    if not isinstance(data, dict):
        raise ProtocolError(f"spec must be an object, got {type(data).__name__}")
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key == "stdin_b64":
            if value is None:
                continue
            if not isinstance(value, str):
                raise ProtocolError("stdin_b64 must be a base64 string")
            try:
                kwargs["stdin"] = base64.b64decode(value, validate=True)
            except Exception as exc:
                raise ProtocolError(f"bad stdin_b64: {exc}") from None
            continue
        if key not in _SPEC_FIELDS or key == "stdin":
            raise ProtocolError(f"unknown spec field {key!r}")
        if key in _SPEC_BOOLS and not isinstance(value, bool):
            raise ProtocolError(f"spec field {key!r} must be a boolean")
        if key in _SPEC_STRINGS and not isinstance(value, str):
            raise ProtocolError(f"spec field {key!r} must be a string")
        if key in _SPEC_OPT_STRINGS and not (
            value is None or isinstance(value, str)
        ):
            raise ProtocolError(f"spec field {key!r} must be a string or null")
        if key == "max_rtls" and not _is_int_or_null(value):
            raise ProtocolError("spec field 'max_rtls' must be an int or null")
        if key == "tuned":
            value = _tuned_from_wire(value)
        kwargs[key] = value
    if "program" not in kwargs:
        raise ProtocolError("spec is missing 'program'")
    return CellSpec(**kwargs)


def specs_from_wire(items: Any) -> List[CellSpec]:
    """A list of wire specs (``submit_matrix``) to envelope specs."""
    if not isinstance(items, list) or not items:
        raise ProtocolError("'specs' must be a non-empty array")
    return [spec_from_wire(item) for item in items]


# --- CellResult ----------------------------------------------------------------


def result_to_wire(result: CellResult) -> str:
    """The full envelope, pickled and base64-armored for a JSON field."""
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def result_from_wire(blob: Optional[str]) -> Optional[CellResult]:
    """Rebuild an envelope shipped by :func:`result_to_wire`."""
    if blob is None:
        return None
    try:
        result = pickle.loads(base64.b64decode(blob))
    except Exception as exc:
        raise ProtocolError(f"undecodable result payload: {exc}") from None
    if not isinstance(result, CellResult):
        raise ProtocolError(
            f"result payload is {type(result).__name__}, expected CellResult"
        )
    return result
