"""Synthetic XML document generators.

Random trees for property tests plus shaped generators (deep chains, wide
stars) used by the twig-algorithm tests. The adversarial documents
of the paper's evaluation live in :mod:`repro.data.synthetic`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.xml.model import XMLDocument, XMLNode


def random_document(rng: random.Random, *,
                    tags: Sequence[str] = ("a", "b", "c", "d"),
                    max_nodes: int = 40,
                    max_children: int = 4,
                    max_depth: int = 6,
                    value_range: int = 5,
                    root_tag: str | None = None) -> XMLDocument:
    """A random tree: random tags, random small integer values.

    Sized by *max_nodes*; shape controlled by *max_children*/*max_depth*.
    Deterministic given the :class:`random.Random` instance.
    """
    budget = rng.randint(1, max_nodes)
    root = XMLNode(root_tag or rng.choice(tags),
                   text=str(rng.randint(0, value_range)))
    budget -= 1
    frontier = [(root, 1)]
    while budget > 0 and frontier:
        index = rng.randrange(len(frontier))
        node, depth = frontier[index]
        if depth >= max_depth or len(node.children) >= max_children:
            frontier.pop(index)
            continue
        child = node.add(rng.choice(tags),
                         text=str(rng.randint(0, value_range)))
        budget -= 1
        frontier.append((child, depth + 1))
    return XMLDocument(root)


def chain_document(depth: int, *, tags: Sequence[str] = ("a", "b"),
                   root_tag: str = "root") -> XMLDocument:
    """A single path of *depth* nodes cycling through *tags*.

    Worst case for stack-based algorithms: every node nests in every
    previous one, so stacks grow to the full depth.
    """
    root = XMLNode(root_tag, text="0")
    node = root
    for index in range(depth):
        node = node.add(tags[index % len(tags)], text=str(index))
    return XMLDocument(root)


def star_document(fanout: int, *, child_tag: str = "item",
                  root_tag: str = "root") -> XMLDocument:
    """A root with *fanout* children — the flat/wide extreme."""
    root = XMLNode(root_tag, text="")
    for index in range(fanout):
        root.add(child_tag, text=str(index))
    return XMLDocument(root)


def layered_document(layers: Sequence[tuple[str, int]], *,
                     root_tag: str = "root",
                     value_of: "callable | None" = None) -> XMLDocument:
    """A balanced tree: layer i has the given tag, each node of layer i-1
    getting ``count`` children of layer i. Values default to a per-layer
    running counter.

    >>> doc = layered_document([("a", 2), ("b", 3)])
    >>> doc.tag_count("a"), doc.tag_count("b")
    (2, 6)
    """
    root = XMLNode(root_tag, text="")
    current = [root]
    counters = {tag: 0 for tag, _ in layers}
    for tag, count in layers:
        next_layer = []
        for parent in current:
            for _ in range(count):
                value = counters[tag]
                counters[tag] += 1
                text = str(value if value_of is None else value_of(tag, value))
                next_layer.append(parent.add(tag, text=text))
        current = next_layer
    return XMLDocument(root)
