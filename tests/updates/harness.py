"""Shared machinery for the update-subsystem test suites.

The differential harness is *seeded*: every randomized test derives its
generator from ``REPRO_UPDATE_SEED`` (default a fixed constant, so plain
``pytest`` runs are reproducible; CI additionally runs the suite with a
randomized seed). The active seed is echoed in the pytest header (see
``conftest.py``) and in every assertion message, so any failure names
the seed that reproduces it.
"""

from __future__ import annotations

import os
import random

from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, XMLNode

#: The suite-wide base seed (override: REPRO_UPDATE_SEED=12345 pytest ...).
UPDATE_SEED = int(os.environ.get("REPRO_UPDATE_SEED", "20260728"))


def seeded_rng(salt: object, seed: int = UPDATE_SEED) -> random.Random:
    """A generator derived from the suite seed (or a pinned *seed*) and
    a per-site salt."""
    return random.Random(f"{seed}:{salt}")


# -- deep copies for the rebuild-from-scratch oracle ------------------------

def clone_document(document: XMLDocument) -> XMLDocument:
    """A structurally equal document built from scratch (fresh labels,
    fresh indexes, no shared caches with the original)."""
    return XMLDocument(document.root.copy())


def clone_query(query):
    """A rebuild-from-scratch copy of a multi-model query: fresh
    relation objects, fresh documents, fresh twig bindings."""
    from repro.core.multimodel import MultiModelQuery, TwigBinding

    relations = [Relation(r.name, r.schema, r.rows)
                 for r in query.relations]
    twigs = [TwigBinding(binding.twig, clone_document(binding.document))
             for binding in query.twigs]
    return MultiModelQuery(relations, twigs, name=query.name)


# -- random update streams --------------------------------------------------

def random_subtree(rng: random.Random, tags: "list[str]", *,
                   max_nodes: int = 4, value_range: int = 3) -> XMLNode:
    """A small random subtree with typed text values (detached)."""
    def text() -> str:
        return (str(rng.randint(0, value_range))
                if rng.random() < 0.7 else "")

    root = XMLNode(rng.choice(tags), text=text())
    nodes = [root]
    for _ in range(rng.randint(0, max_nodes - 1)):
        nodes.append(rng.choice(nodes).add(rng.choice(tags), text=text()))
    return root


def random_session_op(rng: random.Random, session, *,
                      tags: "list[str]", value_range: int = 3):
    """Apply one random update through *session*; returns a label and
    the delta the write returned."""
    choices = []
    if session.relations:
        choices.extend(["rel_insert", "rel_delete"])
    if session.twig_editors:
        choices.extend(["doc_insert", "doc_delete", "doc_value"])
    kind = rng.choice(choices)
    if kind in ("rel_insert", "rel_delete"):
        name = rng.choice(sorted(session.relations))
        relation = session.relations[name].relation
        if kind == "rel_delete" and relation.rows and rng.random() < 0.7:
            row = rng.choice(sorted(relation.rows))  # hit an existing row
        else:
            row = tuple(rng.randint(0, value_range)
                        for _ in relation.schema)
        delta = (session.insert if kind == "rel_insert"
                 else session.delete)(name, row)
        return f"{kind}:{name}{row!r}", delta
    twig_name = rng.choice(sorted(session.twig_editors))
    document = session.twig_editors[twig_name].document
    nodes = document.nodes()
    if kind == "doc_insert":
        parent = rng.choice(nodes)
        delta = session.insert_subtree(
            twig_name, parent, random_subtree(rng, tags),
            index=rng.randint(0, len(parent.children)))
    elif kind == "doc_delete" and len(nodes) > 1:
        delta = session.delete_subtree(twig_name, rng.choice(nodes[1:]))
    else:
        delta = session.change_value(twig_name, rng.choice(nodes),
                                     str(rng.randint(0, value_range)))
        kind = "doc_value"
    return f"{kind}:{twig_name}", delta
