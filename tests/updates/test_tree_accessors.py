"""The document's tree accessors after patched edits.

An :class:`~repro.xml.model.XMLDocument` keeps no index of its own:
``size()`` reads the root's region label, ``nodes(tag)`` walks the tree
and ``node_by_start`` descends it by region label. So the labels the
delta layer patches are all these accessors have. A seeded stream of
subtree inserts and deletes, every one patched in place
(``churn_threshold=inf``: no edit falls back to a rebuild), must leave
them answering as a reparse of the serialized document does.
"""

from __future__ import annotations

import pytest

from repro.updates.documents import DocumentEditor
from repro.xml.generator import random_document
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize

from harness import UPDATE_SEED, random_subtree, seeded_rng

TAGS = ["a", "b", "c", "d"]


def labelled(nodes):
    return [(node.tag, node.start, node.end, node.level, node.value)
            for node in nodes]


def assert_accessors_match_twin(document, note):
    twin = parse_document(serialize(document))
    assert document.size() == twin.size(), note
    assert labelled(document.nodes()) == labelled(twin.nodes()), note
    for tag in [*TAGS, "absent"]:
        assert labelled(document.nodes(tag)) == labelled(twin.nodes(tag)), \
            f"nodes({tag!r}) at {note}"
    for node in document.nodes():
        assert document.node_by_start(node.start) is node, note
        # An end label names no node.
        assert document.node_by_start(node.end) is None, note
    assert document.node_by_start(-1) is None, note
    assert document.node_by_start(2 * document.size()) is None, note


@pytest.mark.parametrize("trial", range(8))
def test_accessors_after_every_patched_edit(trial):
    rng = seeded_rng(f"tree-accessors-{trial}")
    document = random_document(rng, tags=TAGS, max_nodes=30)
    editor = DocumentEditor(document, churn_threshold=float("inf"))
    for step in range(16):
        nodes = document.nodes()
        if len(nodes) > 1 and rng.random() < 0.4:
            victim = rng.choice(nodes[1:])
            op = f"delete <{victim.tag}> at {victim.start}"
            editor.delete_subtree(victim)
        else:
            parent = rng.choice(nodes)
            index = rng.randint(0, len(parent.children))
            op = f"insert under <{parent.tag}> at {parent.start}[{index}]"
            editor.insert_subtree(parent, random_subtree(rng, TAGS),
                                  index=index)
        note = (f"trial={trial} step={step} op={op} "
                f"(REPRO_UPDATE_SEED={UPDATE_SEED})")
        assert editor.rebuilds == 0, note
        assert_accessors_match_twin(document, note)
    assert editor.patches == 16
