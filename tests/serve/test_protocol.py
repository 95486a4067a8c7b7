"""Unit tests for the JSON-line wire format."""

import base64
import json

import pytest

from repro.exec import CellResult, CellSpec
from repro.serve import (
    ProtocolError,
    decode_line,
    encode_message,
    result_from_wire,
    result_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.serve.protocol import specs_from_wire


def test_message_round_trip():
    message = {"op": "ping", "id": 7, "nested": {"a": [1, 2]}}
    assert decode_line(encode_message(message)) == message


def test_encode_is_one_line():
    line = encode_message({"op": "x", "text": "with\nnewline"})
    assert line.endswith(b"\n")
    assert line.count(b"\n") == 1


@pytest.mark.parametrize(
    "line",
    [b"not json\n", b"[1,2,3]\n", b'"string"\n', b"\xff\xfe\n", b"42\n"],
)
def test_decode_rejects_non_objects(line):
    with pytest.raises(ProtocolError):
        decode_line(line)


# --- CellSpec ------------------------------------------------------------------


def test_spec_round_trip_defaults():
    spec = CellSpec(program="wc")
    assert spec_from_wire(spec_to_wire(spec)) == spec


def test_spec_round_trip_full():
    spec = CellSpec(
        program="int main() { return 1; }",
        target="m68020",
        replication="jumps",
        policy="loops",
        max_rtls=32,
        trace=True,
        stdin=b"\x00\x01binary\xff",
        verify="off",
        tuned=(("helper", "returns", 8, "late"), ("main", "loops", None, "nofinal")),
    )
    wire = spec_to_wire(spec)
    json.dumps(wire)  # JSON-safe by construction
    assert spec_from_wire(wire) == spec


def test_spec_tuned_survives_json_serialization():
    """JSON turns the tuned tuples into arrays; decoding must restore
    the hashable tuple-of-tuples form the cache key relies on."""
    spec = CellSpec(program="wc", tuned=(("main", "returns", None, "standard"),))
    rebuilt = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
    assert rebuilt == spec
    assert isinstance(rebuilt.tuned, tuple)
    assert isinstance(rebuilt.tuned[0], tuple)


def test_spec_wire_encodes_stdin_as_base64():
    wire = spec_to_wire(CellSpec(program="wc", stdin=b"abc"))
    assert "stdin" not in wire
    assert base64.b64decode(wire["stdin_b64"]) == b"abc"


@pytest.mark.parametrize(
    "wire",
    [
        "not a dict",
        {},  # missing program
        {"program": 42},
        {"program": "wc", "bogus_field": 1},
        {"program": "wc", "stdin": "smuggled"},
        {"program": "wc", "trace": "yes"},
        {"program": "wc", "max_rtls": "12"},
        {"program": "wc", "verify": 1},
        {"program": "wc", "stdin_b64": "!!!not base64!!!"},
        {"program": "wc", "stdin_b64": 99},
        {"program": "wc", "tuned": "main"},
        {"program": "wc", "tuned": []},
        {"program": "wc", "tuned": [["main", "returns", None]]},
        {"program": "wc", "tuned": [["main", "returns", None, "standard", 1]]},
        {"program": "wc", "tuned": [[1, "returns", None, "standard"]]},
        {"program": "wc", "tuned": [["main", 2, None, "standard"]]},
        {"program": "wc", "tuned": [["main", "returns", "8", "standard"]]},
        {"program": "wc", "tuned": [["main", "returns", None, 3]]},
        # JSON booleans decode to Python ints; accepted, ``true`` would act
        # as 1 yet key differently from 1, defeating dedup and coalescing.
        {"program": "wc", "max_rtls": True},
        {"program": "wc", "max_rtls": False},
        {"program": "wc", "tuned": [["main", "returns", True, "standard"]]},
        {"program": "wc", "tuned": [["main", "returns", False, "standard"]]},
    ],
)
def test_spec_from_wire_rejects_malformed(wire):
    with pytest.raises(ProtocolError):
        spec_from_wire(wire)


@pytest.mark.parametrize("layer", ["spm", "ease"])
def test_spec_from_wire_rejects_retired_engine_fields(layer):
    # The step-1 and measurement engine selectors are gone from CellSpec.
    with pytest.raises(ProtocolError, match="unknown spec field"):
        spec_from_wire({"program": "wc", f"{layer}_engine": "dense"})


@pytest.mark.parametrize("items", [None, "x", [], [{"program": "wc"}, "junk"]])
def test_specs_from_wire_rejects_malformed(items):
    with pytest.raises(ProtocolError):
        specs_from_wire(items)


def test_specs_from_wire_accepts_list():
    specs = specs_from_wire([{"program": "wc"}, {"program": "sieve"}])
    assert [s.program for s in specs] == ["wc", "sieve"]


# --- CellResult ----------------------------------------------------------------


def test_result_round_trip():
    from repro.ease.measure import Measurement

    measurement = Measurement()
    measurement.exit_code = 41
    measurement.dynamic_insns = 123
    original = CellResult(spec=CellSpec(program="wc"), measurement=measurement)
    blob = result_to_wire(original)
    json.dumps({"result": blob})  # a plain JSON string field
    restored = result_from_wire(blob)
    assert restored.spec == original.spec
    assert restored.measurement.exit_code == 41
    assert restored.measurement.dynamic_insns == 123


def test_result_from_wire_none_passthrough():
    assert result_from_wire(None) is None


@pytest.mark.parametrize(
    "blob",
    [
        "@@not-base64@@",
        base64.b64encode(b"not a pickle").decode(),
        base64.b64encode(__import__("pickle").dumps({"a": 1})).decode(),
    ],
)
def test_result_from_wire_rejects_garbage(blob):
    with pytest.raises(ProtocolError):
        result_from_wire(blob)
