"""Wire-protocol units: framing, validation, deterministic rows."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.service.protocol import (
    WireRows,
    answer_rows,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    query_evaluate,
    require_field,
    rows_to_wire,
    validate_request,
    validate_update_ops,
)


class TestFraming:
    def test_round_trip(self):
        message = {"op": "ping", "id": 7, "note": "héllo"}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert decode_message(line) == message
        assert decode_message(line.decode("utf-8")) == message

    def test_invalid_json_is_bad_request(self):
        with pytest.raises(ServiceError) as info:
            decode_message(b"{not json\n")
        assert info.value.code == "bad_request"

    def test_non_object_payload_is_bad_request(self):
        with pytest.raises(ServiceError) as info:
            decode_message(b"[1,2]\n")
        assert info.value.code == "bad_request"

    @pytest.mark.parametrize("fields", [
        {}, {"id": 3}, {"id": None, "ok": True, "note": "é", "batches": 2}])
    def test_spliced_rows_round_trip(self, fields):
        relation = Relation("Q", Schema(("a", "b")),
                            [(2, "ü"), (1, None), (1, 1.5)])
        rows = answer_rows(relation)
        assert isinstance(rows, WireRows)
        assert rows == rows_to_wire(relation.rows)
        message = {**fields, "rows": rows}
        line = encode_message(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_message(line) == message
        # The same body as plain lists encodes to an equal message.
        assert decode_message(encode_message(
            {**fields, "rows": list(rows)})) == message

    def test_answer_rows_are_made_once_per_relation(self):
        relation = Relation("Q", Schema(("a",)), [(1,), (2,)])
        assert answer_rows(relation) is answer_rows(relation)
        assert relation.artefacts["wire"] is answer_rows(relation)


class TestValidation:
    def test_known_op_passes(self):
        assert validate_request({"op": "pin"}) == "pin"

    @pytest.mark.parametrize("message", [{}, {"op": 3}, {"op": "evict"}])
    def test_bad_op_is_bad_request(self, message):
        with pytest.raises(ServiceError) as info:
            validate_request(message)
        assert info.value.code == "bad_request"

    def test_require_field_type_checks(self):
        assert require_field({"tenant": "t"}, "tenant") == "t"
        with pytest.raises(ServiceError):
            require_field({}, "tenant")
        with pytest.raises(ServiceError):
            require_field({"tenant": 5}, "tenant")

    def test_require_field_rejects_bool_as_int(self):
        assert require_field({"start": 3}, "start", int) == 3
        with pytest.raises(ServiceError):
            require_field({"start": True}, "start", int)


class TestEnvelopes:
    def test_ok_echoes_the_id(self):
        assert ok_response(9, rows=[]) == {"id": 9, "ok": True, "rows": []}

    def test_service_error_keeps_its_code(self):
        response = error_response(4, ServiceError("quota", "full"))
        assert response == {"id": 4, "ok": False,
                            "error": "quota", "message": "full"}

    def test_other_exceptions_map_to_internal(self):
        response = error_response(None, RuntimeError("boom"))
        assert response["error"] == "internal"
        assert response["message"] == "boom"


class TestRows:
    def test_rows_are_sorted_lists(self):
        rows = {(2, "b"), (1, "a"), (1, "Z")}
        assert rows_to_wire(rows) == [[1, "Z"], [1, "a"], [2, "b"]]

    def test_a_mixed_type_column_sorts_numbers_first(self):
        rows = {(1, "u1"), (2, 7), (3, "u0")}
        assert rows_to_wire(rows) == [[1, "u1"], [2, 7], [3, "u0"]]
        assert rows_to_wire({("u1", 1), (7, 2), (1.5, 3)}) \
            == [[1.5, 3], [7, 2], ["u1", 1]]


class TestUpdateOps:
    def test_every_kind_validates(self):
        ops = [
            {"kind": "insert", "relation": "R", "row": [1, 2]},
            {"kind": "delete", "relation": "R",
             "row": ["a", 1.5, True, None]},
            {"kind": "insert_subtree", "input": "T", "parent_start": 0,
             "xml": "<e/>"},
            {"kind": "insert_subtree", "input": "T", "parent_start": 0,
             "xml": "<e/>", "index": 0},
            {"kind": "delete_subtree", "input": "T", "start": 3},
            {"kind": "change_value", "input": "T", "start": 3, "text": "x"},
        ]
        assert validate_update_ops(ops) is ops

    @pytest.mark.parametrize("ops", [
        None, [], "ops", [3],
        [{"kind": "compact"}],
        [{"kind": "insert", "relation": "R"}],            # no row
        [{"kind": "insert", "relation": "R", "row": 5}],  # row not a list
        [{"kind": "change_value", "input": "T", "start": "3", "text": "x"}],
        [{"kind": "delete_subtree", "input": "T", "start": True}],
        # Row values are JSON scalars; an index is an int, not a bool.
        [{"kind": "insert", "relation": "R", "row": [1, [2]]}],
        [{"kind": "delete", "relation": "R", "row": [{"a": 1}, 2]}],
        [{"kind": "insert_subtree", "input": "T", "parent_start": 0,
          "xml": "<e/>", "index": True}],
        [{"kind": "insert_subtree", "input": "T", "parent_start": 0,
          "xml": "<e/>", "index": "1"}],
    ])
    def test_bad_shapes_are_bad_request(self, ops):
        with pytest.raises(ServiceError) as info:
            validate_update_ops(ops)
        assert info.value.code == "bad_request"


class TestQueryOptions:
    def test_the_evaluate_flag_passes(self):
        assert query_evaluate({}) is False
        assert query_evaluate({"evaluate": True}) is True
        assert query_evaluate({"evaluate": False}) is False

    @pytest.mark.parametrize("fields", [
        {"order": [["a"]]}, {"order": {"a": 1}}, {"order": 5},
        {"order": ["a", 1]}, {"algorithm": ["x"]}, {"algorithm": 3},
        {"evaluate": "yes"}, {"evaluate": 1},
        # A well-formed override is refused too: one plan serves.
        {"algorithm": "xjoin"}, {"order": "domain"},
        {"order": ["b", "a"], "evaluate": True}, {"algorithm": None}])
    def test_bad_shapes_are_bad_request(self, fields):
        with pytest.raises(ServiceError) as info:
            query_evaluate(fields)
        assert info.value.code == "bad_request"
