"""Partition-parallel execution: morsel-driven workers over slices.

The parallel subsystem runs every registered
:class:`~repro.engine.interface.JoinAlgorithm` and
:class:`~repro.xml.interface.TwigAlgorithm` across worker processes by
splitting the work into independent **partitions**:

* relational (and multi-model) joins are sliced on the top-level
  attribute's code range in each input's
  :class:`~repro.engine.encoded.EncodedTrie` — every slice is a complete
  sub-join over a disjoint code interval, so the results concatenate
  (order-preserved by ascending slice index) into exactly the serial
  answer;
* twig matching is sliced by document and by the root query node's
  posting ranges in the :class:`~repro.xml.columnar.ColumnarDocument` —
  every slice owns the embeddings rooted at its posting interval.

The traditional ``baseline`` foil, which evaluates unencoded source
inputs, is never split: it runs serially under any worker count.

Slices travel to a ``multiprocessing`` pool as morsels on a shared
work-stealing queue (:mod:`repro.parallel.morsels`): idle workers pull
the next morsel the moment they finish one, so a skewed partition delays
only the worker holding it. Under the default ``fork`` transport the
encoded artifacts are shared copy-on-write; the portable ``shm`` and
``mmap`` transports spawn fresh workers that attach one published arena
(a shared-memory segment or a file) zero-copy, and ``serial`` runs the
morsels in-process.

See ``docs/parallelism.md`` for the partitioning model, the correctness
argument and tuning guidance.
"""

from typing import Any

#: Public name -> defining submodule. Resolution is lazy (PEP 562):
#: importing ``repro.parallel.partition`` (as the serial planner does
#: for ``choose_morsel_count``) must not drag the executor and its
#: multiprocessing machinery into the process — the parallel layer
#: sits on top of the stack, never underneath a serial import.
_EXPORTS = {
    "ParallelExecutor": "executor",
    "available_transports": "executor",
    "default_transport": "executor",
    "CodeSlice": "partition",
    "PostingSlice": "partition",
    "choose_morsel_count": "partition",
    "code_slices": "partition",
    "posting_slices": "partition",
    "top_level_weights": "partition",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Resolve a public name from its submodule on first access."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value
