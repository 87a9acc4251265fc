"""Wire-format round trips: values, rows, results, errors, framing."""

import datetime
import json
import math

import pytest

from repro.engine.database import QueryResult, StatementResult
from repro.errors import (
    PlanningError,
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import wire


class TestValues:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 42, -7, "text", "ünïcode", 1.5, -0.25,
        datetime.date(2009, 3, 29), [1, 2.5, None], ["a", ["b", "c"]],
    ])
    def test_round_trip_identity(self, value):
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_nan_round_trips(self):
        out = wire.decode_value(wire.encode_value(math.nan))
        assert isinstance(out, float) and math.isnan(out)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_inf_round_trips(self, value):
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_special_floats_are_json_safe(self):
        # The whole point of the tagging: allow_nan=False must accept it.
        encoded = wire.encode_value([math.nan, math.inf, -math.inf])
        json.dumps(encoded, allow_nan=False)

    def test_date_encoding_is_tagged(self):
        assert wire.encode_value(datetime.date(2026, 8, 7)) == {
            "$d": "2026-08-07"
        }

    def test_bool_not_mistaken_for_int(self):
        assert wire.encode_value(True) is True
        assert wire.decode_value(False) is False

    def test_numpy_scalars_encode_as_builtins(self):
        # A vectorized kernel hands back np.int64 counts and labels; the
        # wire must not turn a correct answer into a failed request.
        np = pytest.importorskip("numpy")
        for value, expected in [
            (np.int64(3), 3), (np.int32(-7), -7), (np.float64(1.5), 1.5),
            (np.float32(0.25), 0.25), (np.bool_(True), True),
            (np.bool_(False), False),
        ]:
            out = wire.encode_value(value)
            assert out == expected and type(out) is type(expected), value
        assert wire.encode_value(np.float64("nan")) == {"$f": "nan"}
        assert wire.encode_value(np.float32("-inf")) == {"$f": "-inf"}
        row = wire.encode_rows([(np.int64(2), np.float64("inf"))])
        assert wire.loads(wire.dumps({"rows": row}))["rows"] == [
            [2, {"$f": "inf"}]
        ]

    def test_unserializable_type_raises(self):
        with pytest.raises(ServiceError, match="not wire-serializable"):
            wire.encode_value(object())

    def test_unknown_float_tag_raises(self):
        with pytest.raises(ServiceError, match="unknown float tag"):
            wire.decode_value({"$f": "seven"})

    def test_unknown_tag_raises(self):
        with pytest.raises(ServiceError, match="unknown tagged value"):
            wire.decode_value({"$x": 1})

    def test_rows_come_back_as_tuples(self):
        rows = [(1, "a"), (2, None)]
        decoded = wire.decode_rows(wire.encode_rows(rows))
        assert decoded == rows
        assert all(isinstance(r, tuple) for r in decoded)


class TestResults:
    def test_query_result_round_trip(self):
        result = QueryResult(
            ["x", "grp"],
            [(1.5, 0), (math.nan, 1), (None, 2)],
        )
        back = wire.decode_result(wire.encode_result(result))
        assert isinstance(back, QueryResult)
        assert back.columns == result.columns
        assert back.rows[0] == (1.5, 0)
        assert math.isnan(back.rows[1][0])
        assert back.rows[2] == (None, 2)

    def test_statement_result_round_trip(self):
        back = wire.decode_result(
            wire.encode_result(StatementResult("INSERT 3"))
        )
        assert isinstance(back, StatementResult)
        assert back.status == "INSERT 3"

    def test_none_result_becomes_ok_status(self):
        assert wire.encode_result(None) == {"kind": "status", "status": "OK"}

    def test_unknown_kind_raises(self):
        with pytest.raises(ServiceError, match="unknown result kind"):
            wire.decode_result({"kind": "blob"})


class TestErrors:
    @pytest.mark.parametrize("exc_type", [
        QueryTimeoutError, ServiceOverloadedError, PlanningError,
    ])
    def test_typed_error_round_trip(self, exc_type):
        payload = wire.error_payload(exc_type("boom"))
        with pytest.raises(exc_type, match="boom"):
            wire.raise_error(payload)

    def test_unknown_type_degrades_to_service_error(self):
        with pytest.raises(ServiceError, match="NoSuchError: nope"):
            wire.raise_error({"type": "NoSuchError", "message": "nope"})

    def test_non_repro_type_name_not_resolved(self):
        # Only ReproError subclasses may be instantiated from the wire —
        # the type name is untrusted input.
        with pytest.raises(ServiceError, match="KeyboardInterrupt"):
            wire.raise_error({"type": "KeyboardInterrupt", "message": ""})


class TestFraming:
    def test_dumps_is_deterministic(self):
        a = wire.dumps({"b": 1, "a": [2, 3], "id": "r1"})
        b = wire.dumps({"id": "r1", "a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_loads_round_trip(self):
        msg = {"id": "r1", "op": "query", "sql": "SELECT 1"}
        assert wire.loads(wire.dumps(msg)) == msg

    def test_loads_rejects_garbage(self):
        with pytest.raises(ServiceError, match="malformed"):
            wire.loads(b"{nope")

    def test_loads_rejects_non_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            wire.loads(b"[1, 2]")


class TestRenderValue:
    @pytest.mark.parametrize("value,expected", [
        (None, "NULL"),
        (1.5, "1.5"),
        (2.0, "2"),
        (math.nan, "NaN"),
        (math.inf, "Infinity"),
        (-math.inf, "-Infinity"),
        ([1, None, "x"], "{1,NULL,x}"),
        ("plain", "plain"),
        (7, "7"),
    ])
    def test_display_forms(self, value, expected):
        assert wire.render_value(value) == expected

    def test_shell_uses_the_shared_renderer(self):
        # The shell's table formatter and the wire renderer must not
        # drift: local and remote results display identically.
        from repro.engine import shell as shell_mod

        assert shell_mod._render is wire.render_value
