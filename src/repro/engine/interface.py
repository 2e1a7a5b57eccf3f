"""The unified physical-operator interface: the engine's third layer.

A :class:`JoinAlgorithm` consumes an
:class:`~repro.engine.encoded.EncodedInstance` and produces a decoded
:class:`~repro.relational.relation.Relation`. The library's three
operators — generic join, leapfrog triejoin and XJoin — register here
under stable names, so planners and benchmarks can pick an algorithm by
name and race implementations over the *same* encoded instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import EngineError
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from repro.engine.encoded import EncodedInstance


@runtime_checkable
class JoinAlgorithm(Protocol):
    """One physical join operator over an encoded instance."""

    #: Stable registry name (e.g. ``"generic_join"``).
    name: str

    def run(self, instance: "EncodedInstance", *,
            stats: JoinStats | None = None) -> Relation:
        """Evaluate the instance, returning the decoded result over the
        instance's global attribute order."""
        ...


_REGISTRY: dict[str, JoinAlgorithm] = {}


def register(algorithm: JoinAlgorithm) -> JoinAlgorithm:
    """Register *algorithm* under its ``name`` (last registration wins)."""
    _REGISTRY[algorithm.name] = algorithm
    return algorithm


def get_algorithm(name: str) -> JoinAlgorithm:
    """Look up a registered algorithm by name."""
    # Importing the implementations lazily avoids an import cycle while
    # still guaranteeing the built-ins are registered on first use.
    from repro.engine import algorithms  # noqa: F401
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown join algorithm {name!r}; "
            f"choose from {available_algorithms()!r}") from None


def available_algorithms() -> list[str]:
    """Names of all registered algorithms, sorted."""
    from repro.engine import algorithms  # noqa: F401
    return sorted(_REGISTRY)
