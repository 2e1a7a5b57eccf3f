#!/usr/bin/env python
"""CI smoke for the larger-than-RAM streaming build path.

Three checks, in order:

1. **Parity** — an XMark factor-4 corpus streamed through
   :func:`repro.xml.streaming.stream_document` (never materializing
   the node tree) must answer a branching twig with exactly the same
   rows as the in-memory parse-and-columnarize build of the same text.
   Both inputs open with a real-DBLP-shaped header (XML declaration +
   a DOCTYPE whose internal subset declares entities), so every build
   here, the heap-capped one included, goes through the DOCTYPE path.

2. **Bounded memory** — a DBLP-style corpus builds in a fresh
   subprocess whose ``RLIMIT_DATA`` is capped at 1.5x the arena's
   on-disk size (below the 2x the acceptance criterion allows). The
   cap binds the heap but not the file-backed read-only ``mmap``, so
   the streamed build fits and the in-memory build of the identical
   text — run under the same cap as a negative control — dies with
   ``MemoryError``. That asymmetry is the whole point of the
   subsystem: corpora bounded by disk, not by RAM.

3. **No leaks** — no file matching the ``repro-arena-`` temp-file
   convention that the run created survives it (files already there
   when it started, an earlier killed run's, are not its leaks).

Run from the repo root: ``PYTHONPATH=src python tools/streaming_smoke.py``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "src"))

#: What a real DBLP export opens with (SNIPPETS.md, snippet 1).
HEADER = """\
<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE dblp [
  <!ENTITY uuml "\u00fc">
  <!ENTITY auml "\u00e4">
  <!ENTITY ouml "\u00f6">
  <!ENTITY szlig "\u00df">
  <!ENTITY Uuml "\u00dc">
  <!ENTITY Auml "\u00c4">
  <!ENTITY Ouml "\u00d6">
]>
"""

# Runs in a fresh interpreter: cap RLIMIT_DATA, then build one path.
# argv: <cap-bytes> <records> streamed|inmemory <header>
_CAPPED_BUILD = """\
import itertools, resource, sys
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
from repro.data.dblp import dblp_chunks
chunks = itertools.chain([sys.argv[4]], dblp_chunks(int(sys.argv[2]), seed=0))
if sys.argv[3] == "streamed":
    from repro.xml.streaming import stream_document
    arena = stream_document(chunks)
    print("built", arena.meta["size"], "nodes under the cap")
    arena.close(); arena.unlink()
else:
    from repro.xml.columnar import columnar
    from repro.xml.parser import parse_document
    document = parse_document("".join(chunks))
    print("built", columnar(document).size, "nodes under the cap")
"""


def assert_no_new_arena_files(before: set[str]) -> None:
    """Fail on ``repro-arena-`` temp files that are not in *before*."""
    from repro.buffers.mmapfile import leaked_arena_files

    leaked = [path for path in leaked_arena_files() if path not in before]
    assert not leaked, leaked


def check_parity(before: set[str]) -> None:
    """XMark factor 4, streamed vs in-memory: identical twig rows."""
    from repro.xml.arenaview import attach_arena_document
    from repro.xml.interface import get_twig_algorithm
    from repro.xml.parser import parse_document
    from repro.xml.streaming import stream_document
    from repro.xml.twig_parser import parse_twig
    from repro.xml.xmark import xmark_stream_chunks

    text = HEADER + "".join(xmark_stream_chunks(4, seed=0))
    twig = parse_twig("i=item(/n=name, //c=incategory)")
    matcher = get_twig_algorithm("twigstack")
    serial = matcher.run(parse_document(text), twig)

    arena = stream_document(
        itertools.chain([HEADER], xmark_stream_chunks(4, seed=0)))
    try:
        handle, view = attach_arena_document(arena)
        streamed = matcher.run(handle, twig)
        assert sorted(streamed.rows) == sorted(serial.rows), \
            "streamed arena rows diverged from the in-memory build"
        print(f"parity ok: XMark factor 4, {view.size} nodes, "
              f"{len(streamed.rows)} twig rows identical")
    finally:
        arena.close()
        arena.unlink()
    assert_no_new_arena_files(before)


def check_bounded_memory(records: int, before: set[str]) -> None:
    """Streamed build fits under a heap cap the in-memory build cannot."""
    from repro.data.dblp import dblp_chunks
    from repro.xml.streaming import stream_document

    arena = stream_document(
        itertools.chain([HEADER], dblp_chunks(records, seed=0)))
    arena_bytes = os.path.getsize(arena.path)
    nodes = arena.meta["size"]
    arena.close()
    arena.unlink()
    cap = int(1.5 * arena_bytes)  # below the 2x-arena-size criterion

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")

    def capped(mode: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", _CAPPED_BUILD,
             str(cap), str(records), mode, HEADER],
            env=env, capture_output=True, text=True)

    streamed = capped("streamed")
    assert streamed.returncode == 0, (
        f"streamed build of {records} records ({nodes} nodes) broke the "
        f"{cap / 1e6:.1f}MB RLIMIT_DATA cap:\n{streamed.stderr}")
    print(f"bounded-memory ok: {nodes} nodes streamed into a "
          f"{arena_bytes / 1e6:.1f}MB arena under a "
          f"{cap / 1e6:.1f}MB heap cap")

    control = capped("inmemory")
    assert control.returncode != 0 and "MemoryError" in control.stderr, (
        "negative control: the in-memory build survived the same cap, "
        "so the cap proves nothing — raise --records")
    print("negative control ok: in-memory build of the same corpus "
          "dies with MemoryError under that cap")
    assert_no_new_arena_files(before)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=30000,
                        help="DBLP records for the capped build "
                             "(default: 30000)")
    arguments = parser.parse_args()
    from repro.buffers.mmapfile import leaked_arena_files

    before = set(leaked_arena_files())
    check_parity(before)
    check_bounded_memory(arguments.records, before)
    print("streaming smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
