"""The one splice path against a view built from scratch.

A subtree insert or delete splices the document's columnar view in
place (:mod:`repro.updates.documents`). After every edit the spliced
view must equal, in canonical form, the view built from a reparse of
the serialized document. Node ids are document order in both views,
while tag and path ids are interned in the order each view met them, so
the form names tags and paths instead. A delete that empties a tag or
a path forgets it, as a fresh build never interns one: the form keeps
every entry, empty or not, so one left behind is a difference.
"""

from __future__ import annotations

import pytest

from repro.updates.documents import DocumentEditor
from repro.xml.columnar import ColumnarDocument, columnar, stats_from_view
from repro.xml.generator import random_document
from repro.xml.model import XMLDocument, element
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize

from harness import UPDATE_SEED, random_subtree, seeded_rng


def canonical(view: ColumnarDocument) -> dict:
    """*view* with tags and paths named."""
    tag, path = view.tags.__getitem__, view.paths.__getitem__
    nodes = [(view.starts[nid], view.ends[nid], view.levels[nid],
              view.parents[nid], tag(view.tag_ids[nid]), view.values[nid],
              path(view.path_ids[nid]), view.tag_ranks[nid])
             for nid in range(view.size)]
    return {
        "nodes": nodes,
        "tree": [(node.start, node.end, node.level, node.tag)
                 for node in view.nodes],
        "postings": {name: (list(nids), list(starts), list(ends))
                     for name, nids, starts, ends in zip(
                         view.tags, view.tag_nids, view.tag_starts,
                         view.tag_ends)},
        "tag_index": {name: view.tags[tid]
                      for name, tid in view.tag_index.items()},
        "paths": {name: list(nids)
                  for name, nids in zip(view.paths, view.nids_by_path)},
        "path_table": {(path(parent) if parent >= 0 else None, tag(tid)):
                       path(pid)
                       for (parent, tid), pid in view.path_table.items()},
        "pids_by_last_tag": {tag(tid): sorted(map(path, pids))
                             for tid, pids in view.pids_by_last_tag.items()},
        "nid_index": view.nid_index,
        "stats": stats_from_view(view),
    }


def assert_matches_fresh(document: XMLDocument, note: str) -> None:
    spliced = canonical(columnar(document))
    fresh = canonical(ColumnarDocument(parse_document(serialize(document))))
    for part, expected in fresh.items():
        assert spliced[part] == expected, \
            f"{part} diverged at {note} (REPRO_UPDATE_SEED={UPDATE_SEED})"


@pytest.mark.parametrize("trial", range(6))
def test_random_edits_splice_as_a_fresh_build(trial):
    """Random inserts, deletes and re-inserts of deleted subtrees, with
    tags the document does not have yet (new tags, new paths)."""
    rng = seeded_rng(f"splice-parity-{trial}")
    document = random_document(rng, tags="abc", max_nodes=30)
    editor = DocumentEditor(document)
    deleted = []
    for step in range(12):
        nodes = document.nodes()
        roll = rng.random()
        if len(nodes) > 1 and roll < 0.35:
            victim = rng.choice(nodes[1:])
            op = f"delete <{victim.tag}> at {victim.start}"
            editor.delete_subtree(victim)
            deleted.append(victim)
        else:
            parent = rng.choice(nodes)
            if deleted and roll < 0.6:
                subtree = deleted.pop(rng.randrange(len(deleted)))
                op = "re-insert"
            else:
                subtree = random_subtree(rng, ["a", "b", "c", "x", "y"])
                op = "insert"
            index = rng.randint(0, len(parent.children))
            op += f" <{subtree.tag}> under {parent.start}[{index}]"
            editor.insert_subtree(parent, subtree, index=index)
        assert_matches_fresh(document, f"trial={trial} step={step} {op}")


def test_listed_cases_splice_as_a_fresh_build():
    document = XMLDocument(element(
        "r", element("a", element("b", text="1"), element("c", text="2")),
        element("a", element("b", text="3"))))
    editor = DocumentEditor(document)
    first, second = document.root.children
    # A new tag, at a new path.
    editor.insert_subtree(first, element("n", element("b", text="4")),
                          index=1)
    assert_matches_fresh(document, "new tag")
    # A known tag at a new path.
    editor.insert_subtree(second.children[0], element("c", text="5"))
    assert_matches_fresh(document, "new path")
    # A last child, then the re-insertion of what it took.
    last = first.children[-1]
    editor.delete_subtree(last)
    assert_matches_fresh(document, "delete a last child")
    editor.insert_subtree(second, last, index=0)
    assert_matches_fresh(document, "re-insert a deleted subtree")
    # The only nodes of a tag and a path go, and come back.
    taken = first.children[1]
    editor.delete_subtree(taken)
    assert_matches_fresh(document, "delete a tag's last node")
    editor.insert_subtree(first, taken)
    assert_matches_fresh(document, "re-insert it")


def test_a_subtree_larger_than_the_document():
    rng = seeded_rng("splice-parity-large")
    document = random_document(rng, tags="ab", max_nodes=8)
    donor = random_document(rng, tags="abz", max_nodes=60)
    big = donor.root.copy()
    while sum(1 for _ in big.iter()) <= document.size():
        big.append(donor.root.copy())
    editor = DocumentEditor(document)
    editor.insert_subtree(document.root, big, index=0)
    assert_matches_fresh(document, "insert a subtree larger than the tree")
    editor.delete_subtree(big)
    assert_matches_fresh(document, "delete it again")


def test_a_stream_of_fresh_tags_leaves_nothing_behind():
    """Insert and delete subtrees of tags the document has never held:
    the view keeps the document's own tags and paths, however long the
    stream, and equals a fresh build after every edit."""
    document = XMLDocument(element("r", element("a", text="1"),
                                   element("b", text="2")))
    editor = DocumentEditor(document)
    for step in range(50):
        subtree = element(f"t{step}", element(f"u{step}", text=str(step)))
        editor.insert_subtree(document.root, subtree, index=step % 3)
        assert_matches_fresh(document, f"insert t{step}")
        editor.delete_subtree(subtree)
        assert_matches_fresh(document, f"delete t{step}")
    view = columnar(document)
    assert view.size == 3
    assert sorted(view.tags) == ["a", "b", "r"]
    assert len(view.paths) == len(view.path_table) == 3
    assert sorted(view.pids_by_last_tag) == [0, 1, 2]
