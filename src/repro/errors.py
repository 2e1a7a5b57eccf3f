"""Exception hierarchy for the repro library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema is malformed or two schemas are incompatible."""


class RelationError(ReproError):
    """A relation is malformed (arity mismatch, unknown attribute, ...)."""


class QueryError(ReproError):
    """A query is malformed (unknown relation, unbound attribute, ...)."""


class XMLParseError(ReproError):
    """The XML parser rejected its input."""

    def __init__(self, message: str, position: int | None = None,
                 line: int | None = None, column: int | None = None):
        detail = message
        if line is not None and column is not None:
            detail = f"{message} (line {line}, column {column})"
        elif position is not None:
            detail = f"{message} (offset {position})"
        super().__init__(detail)
        self.position = position
        self.line = line
        self.column = column


class TwigError(ReproError):
    """A twig pattern is malformed or cannot be parsed."""


class LPError(ReproError):
    """The linear-program solver failed (infeasible, unbounded, ...)."""


class PlanError(ReproError):
    """A join plan or attribute order is invalid for the given query."""


class EngineError(ReproError):
    """The encoded execution engine was misused (unknown algorithm,
    value outside an encoded domain, instance/algorithm mismatch, ...)."""


class TransportError(EngineError):
    """No parallel transport can carry this job on this platform
    (e.g. a twig-bearing join without ``fork``: validators pin live
    documents, which are never serialized). Subclasses
    :class:`EngineError` so transport-agnostic callers keep working."""


class UpdateError(ReproError):
    """An update is invalid (unknown input, foreign node, deleting the
    document root, row/arity mismatch, ...)."""


class SnapshotError(ReproError):
    """A snapshot is misused (read after release, double release, a
    pinned version whose artifact was never preserved, ...)."""


class ServiceError(ReproError):
    """A service request is invalid or cannot be admitted.

    ``code`` is the wire-level error code (``bad_request``, ``quota``,
    ``update``, ``unknown_session``, ...) echoed to clients by the
    line-JSON protocol (:mod:`repro.service.protocol`).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
