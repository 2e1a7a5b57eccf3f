#!/usr/bin/env python
"""The matcher x shape x corpus matrix behind the planner's twig pick.

Times every registered matcher but the ``naive`` oracle on four twig
shapes (chain, P-C branch, A-D branch, two selective value predicates)
over three corpora — XMark factor 4 in memory, the streamed
``xmark-stream`` corpus queried from its attached file arena, and a
20k-record DBLP arena — and prints the table published in
``docs/twig_algorithms.md`` (median of five runs, milliseconds; the
fastest cell of a row in bold). Rows must agree across matchers, or the
run fails.

Run from the repo root: ``python tools/twig_matrix.py [--seed N]``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "src"))

MATCHERS = ("twigstack", "tjfast", "structural", "pathstack", "accel")
RUNS = 5


def selective(pattern: str, above: "tuple[str, int]",
              below: "tuple[str, int]"):
    """*pattern* with an int threshold on two of its nodes."""
    from repro.xml.twig_parser import parse_twig

    twig = parse_twig(pattern)
    (high, floor), (low, ceiling) = above, below
    twig.node(high).predicate = lambda v: isinstance(v, int) and v > floor
    twig.node(low).predicate = lambda v: isinstance(v, int) and v < ceiling
    return twig


def xmark_twigs():
    from repro.xml.twig_parser import parse_twig

    return {
        "chain": parse_twig("oa=open_auction(//bd=bidder(/pr=personref))"),
        "branch_pc": parse_twig("oa=open_auction(/ir=itemref, /c=current)"),
        "branch_ad": parse_twig("p=person(//nm=name, //i=interest)"),
        "selective": selective(
            "oa=open_auction(//bd=bidder(/inc=increase, /pr=personref))",
            ("inc", 25), ("pr", 60)),
    }


def dblp_twigs():
    from repro.xml.twig_parser import parse_twig

    return {
        "chain": parse_twig("b=bib(//a=article(/y=year))"),
        "branch_pc": parse_twig("a=article(/y=year, /j=journal)"),
        "branch_ad": parse_twig("a=article(//au=author, //t=title)"),
        "selective": selective("a=article(/y=year, /v=volume)",
                               ("y", 2019), ("v", 4)),
    }


def corpora(seed: int):
    """(title, document, twigs, arena or None), built one at a time."""
    from repro.data.dblp import dblp_chunks
    from repro.xml.arenaview import attach_arena_document
    from repro.xml.streaming import stream_document
    from repro.xml.xmark import xmark_document, xmark_stream_chunks

    yield "XMark factor 4, in memory", xmark_document(4.0, seed=seed), \
        xmark_twigs(), None
    for title, chunks, twigs in (
            ("xmark-stream factor 4, attached arena",
             xmark_stream_chunks(4.0, seed=seed), xmark_twigs()),
            ("DBLP 20k records, attached arena",
             dblp_chunks(20000, seed=seed), dblp_twigs())):
        arena = stream_document(chunks)
        yield title, attach_arena_document(arena)[0], twigs, arena


def main() -> int:
    from repro.xml.interface import get_twig_algorithm

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    for title, document, twigs, arena in corpora(seed):
        print(f"\n{title} ({document.size()} nodes)\n")
        print("| shape | rows | " + " | ".join(MATCHERS) + " |")
        print("|---|---:|" + "---:|" * len(MATCHERS))
        try:
            for shape, twig in twigs.items():
                cells, answers = {}, []
                for name in MATCHERS:
                    matcher = get_twig_algorithm(name)
                    if not matcher.supports(twig):
                        continue
                    times = []
                    for _ in range(RUNS):
                        start = time.perf_counter()
                        answers.append(matcher.run(document, twig))
                        times.append(time.perf_counter() - start)
                    cells[name] = statistics.median(times) * 1e3
                if any(answer != answers[0] for answer in answers):
                    print(f"error: matchers disagree on {shape}",
                          file=sys.stderr)
                    return 1
                best = min(cells.values())
                print(f"| {shape} | {len(answers[0])} | " + " | ".join(
                    "—" if name not in cells
                    else f"**{cells[name]:.2f}**" if cells[name] == best
                    else f"{cells[name]:.2f}" for name in MATCHERS) + " |")
        finally:
            if arena is not None:
                del document
                arena.close()
                arena.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
