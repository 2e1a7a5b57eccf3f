"""The service's wire protocol: one JSON object per line.

Requests and responses are UTF-8 JSON objects terminated by ``\\n`` —
trivially speakable from any language, ``nc``, or a shell loop. A
request carries an ``op`` (see :data:`OPERATIONS`) and an optional
``id`` the response echoes back, so clients may pipeline. A response is
either ``{"id": ..., "ok": true, ...fields}`` or
``{"id": ..., "ok": false, "error": code, "message": text}`` with
*code* from :class:`~repro.errors.ServiceError` (``bad_request``,
``quota``, ``unknown_session``, ``unknown_snapshot``, ``update``,
``internal``). An ``update`` is applied inside its own request: its
response reports the batch already applied.

Update batches are lists of operation objects:

* ``{"kind": "insert"|"delete", "relation": R, "row": [...]}``
* ``{"kind": "insert_subtree", "input": T, "parent_start": S,
  "xml": "<e>...</e>", "index": I?}``
* ``{"kind": "delete_subtree", "input": T, "start": S}``
* ``{"kind": "change_value", "input": T, "start": S, "text": "..."}``

Document nodes are addressed by their region ``start`` label at the
corpus's current version: the delta layer keeps region labelings
canonical (contiguous pre-order), so a label is the node's pre-order
rank whatever edits came before.
"""

from __future__ import annotations

import json
from typing import Any

from repro.engine.encoded import relation_artefacts
from repro.errors import ServiceError
from repro.relational.relation import Relation
from repro.relational.schema import sort_key

#: Every operation the service understands.
OPERATIONS = frozenset({
    "ping", "corpus", "open", "close", "pin", "release",
    "query", "update", "stats", "shutdown",
})

#: Update-operation kinds within an ``update`` batch.
UPDATE_KINDS = frozenset({
    "insert", "delete", "insert_subtree", "delete_subtree", "change_value",
})


def _dumps(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


class WireRows(list):
    """Rows in wire order with their JSON bytes (:func:`answer_rows`),
    shared by every response at their version: read-only."""

    __slots__ = ("encoded",)


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to a ``\\n``-terminated line,
    splicing :class:`WireRows` in as encoded."""
    rows = message.get("rows")
    if not isinstance(rows, WireRows):
        return _dumps(message) + b"\n"
    rest = _dumps({key: value for key, value in message.items()
                   if key != "rows"})
    return b"".join((rest[:-1], b"," if len(rest) > 2 else b"",
                     b'"rows":', rows.encoded, b"}\n"))


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one line into a message dict (ServiceError ``bad_request``
    on invalid JSON or a non-object payload)."""
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ServiceError("bad_request",
                           f"invalid JSON line: {error}") from None
    if not isinstance(message, dict):
        raise ServiceError(
            "bad_request",
            f"a request must be a JSON object, got {type(message).__name__}")
    return message


def validate_request(message: dict[str, Any]) -> str:
    """Check the ``op`` field; returns it (ServiceError otherwise)."""
    op = message.get("op")
    if not isinstance(op, str):
        raise ServiceError("bad_request", "request is missing a string 'op'")
    if op not in OPERATIONS:
        raise ServiceError(
            "bad_request",
            f"unknown op {op!r}; choose from {sorted(OPERATIONS)!r}")
    return op


def require_field(message: dict[str, Any], field: str,
                  kind: type = str) -> Any:
    """One mandatory, type-checked request field."""
    value = message.get(field)
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ServiceError(
            "bad_request",
            f"request field {field!r} must be a {kind.__name__}, "
            f"got {value!r}")
    return value


def ok_response(request_id: Any, **fields: Any) -> dict[str, Any]:
    """A success envelope echoing the request ``id``."""
    return {"id": request_id, "ok": True, **fields}


def error_response(request_id: Any, error: Exception) -> dict[str, Any]:
    """A failure envelope; non-:class:`ServiceError`\\ s map to
    ``internal`` (the message is preserved, the traceback is not)."""
    if isinstance(error, ServiceError):
        code = error.code
    else:
        code = "internal"
    return {"id": request_id, "ok": False, "error": code,
            "message": str(error)}


def rows_to_wire(rows: Any) -> list[list[Any]]:
    """A relation's row set as sorted JSON-ready lists (deterministic
    order, so byte-comparing two answers is meaningful). A column that
    mixes types (a number inserted beside strings) sorts by
    :func:`~repro.relational.schema.sort_key`, as the engine does."""
    try:
        ordered = sorted(rows)
    except TypeError:
        ordered = sorted(rows, key=lambda row: tuple(map(sort_key, row)))
    return [list(row) for row in ordered]


def answer_rows(relation: Relation) -> WireRows:
    """:func:`rows_to_wire` of a maintained answer, with its encoding:
    made once per answer version and kept in the relation's artefacts,
    so every tenant at the version shares them and they die with it."""
    artefacts = relation_artefacts(relation)
    rows = artefacts.get("wire")
    if rows is None:
        rows = artefacts["wire"] = WireRows(rows_to_wire(relation.rows))
        rows.encoded = _dumps(rows)
    return rows


def query_evaluate(message: dict[str, Any]) -> bool:
    """A ``query``'s ``evaluate`` flag, checked: ServiceError
    ``bad_request`` unless it is a bool, or if the request names
    ``algorithm`` or ``order`` (the service runs its one plan)."""
    named = [field for field in ("algorithm", "order") if field in message]
    if named:
        raise ServiceError(
            "bad_request", f"query field {named[0]!r} is not accepted: "
            "every evaluate runs the service's adaptive plan")
    evaluate = message.get("evaluate")
    if evaluate is not None and not isinstance(evaluate, bool):
        raise ServiceError(
            "bad_request",
            f"query field 'evaluate' must be a bool, got {evaluate!r}")
    return bool(evaluate)


def validate_update_ops(ops: Any) -> list[dict[str, Any]]:
    """Check an ``update`` request's batch shape: field types, and row
    values that are JSON scalars (not its semantics — unknown
    relations/nodes surface as ``update`` errors before the batch is
    applied)."""
    if not isinstance(ops, list) or not ops:
        raise ServiceError("bad_request",
                           "'ops' must be a non-empty list of operations")
    for op in ops:
        if not isinstance(op, dict):
            raise ServiceError("bad_request",
                               f"update operation must be an object, "
                               f"got {op!r}")
        kind = op.get("kind")
        if kind not in UPDATE_KINDS:
            raise ServiceError(
                "bad_request",
                f"unknown update kind {kind!r}; "
                f"choose from {sorted(UPDATE_KINDS)!r}")
        if kind in ("insert", "delete"):
            require_field(op, "relation", str)
            for value in require_field(op, "row", list):
                if not isinstance(value, (str, int, float, bool,
                                          type(None))):
                    raise ServiceError(
                        "bad_request",
                        f"row values must be JSON scalars, got {value!r}")
        elif kind == "insert_subtree":
            require_field(op, "input", str)
            require_field(op, "parent_start", int)
            require_field(op, "xml", str)
            if op.get("index") is not None:
                require_field(op, "index", int)
        elif kind == "delete_subtree":
            require_field(op, "input", str)
            require_field(op, "start", int)
        else:  # change_value
            require_field(op, "input", str)
            require_field(op, "start", int)
            require_field(op, "text", str)
    return ops
