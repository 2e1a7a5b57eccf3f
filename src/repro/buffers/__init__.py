"""Bytes-native buffer layout: typed code buffers and batch kernels.

The engine's hot structures — :class:`~repro.engine.encoded.EncodedTrie`
key lists, the parallel columns and per-tag postings of
:class:`~repro.xml.columnar.ColumnarDocument` — store sorted dense int
codes. This package repacks them as contiguous typed buffers
(``array.array`` with width-adaptive typecodes, ``memoryview`` for
zero-copy slices) and provides the kernels every consumer shares:

* :mod:`repro.buffers.layout` — typecode selection and widening, splice
  and shift helpers with amortized growth (the update layer's delta
  splices run on these), and the ``list_backend`` switch the parity
  suite uses to build genuinely list-backed twins through the same
  code paths;
* :mod:`repro.buffers.kernels` — galloping (exponential-probe + bisect)
  ``seek`` and the k-way batch intersection that replaces per-element
  leapfrog advancement at the innermost join level;
* :mod:`repro.buffers.frozen` — a CSR (keys + child-offset) trie layout
  whose node adapters satisfy the ``EncodedTrieNode`` surface, built for
  publication into shared memory;
* :mod:`repro.buffers.shm` — the arena layout, written and read once
  (a pickled meta blob plus aligned typed buffers, attached zero-copy),
  and its :class:`SharedArena` backing: one
  ``multiprocessing.shared_memory`` segment;
* :mod:`repro.buffers.mmapfile` — the same arena in a file mapped
  read-only (``FileArena``), and the streaming ``ArenaWriter`` that
  builds one without holding its columns in memory.

See ``docs/buffers.md`` for the layout and lifecycle story.
"""

from repro.buffers.kernels import gallop, intersect_many
from repro.buffers.layout import (
    as_list,
    is_buffer,
    list_backend,
    make,
    pack,
    typecode_for,
)
from repro.buffers.shm import SharedArena

__all__ = [
    "SharedArena",
    "as_list",
    "gallop",
    "intersect_many",
    "is_buffer",
    "list_backend",
    "make",
    "pack",
    "typecode_for",
]
