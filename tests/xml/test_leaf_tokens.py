"""Leaf tokens: a childless element scanned as one match.

The scanner's leaf alternative (an open tag, text with no ``<`` and
the matching close tag) and the builder's one-row ``leaf`` handler are
a short cut, so they must not show: the same events as expat under
every split point of the input (a split inside a leaf forces the
three-token path), the same errors at the same positions, the same
entity accounting, and the same arena bytes as the build before them.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from unittest import mock
from xml.parsers import expat

import pytest

from repro.data.dblp import dblp_chunks
from repro.errors import XMLParseError
from repro.xml import scanner
from repro.xml.parser import parse_document
from repro.xml.scanner import iter_events, scan_windows
from repro.xml.streaming import stream_document
from test_scanner import expat_summary, failure, scan, summary
from test_streaming import _chunked, assert_stream_parity

#: sha1 and size of the arena ``stream_document(dblp_chunks(2000,
#: seed=1))`` writes. A change of layout changes them on purpose; a
#: change of speed must not.
ARENA_SHA1 = "86406a4f62ec126046e1032277fe6c9217f47def"
ARENA_BYTES = 1_748_792


def arena_digest(chunks, path):
    arena = stream_document(chunks, path=str(path))
    try:
        data = path.read_bytes()
    finally:
        arena.close()
        arena.unlink()
    return hashlib.sha1(data).hexdigest(), len(data)


class TestArenaBytes:
    def test_the_streamed_dblp_arena_is_pinned(self, leaks, tmp_path):
        chunks = dblp_chunks(2000, seed=1)
        assert arena_digest(chunks, tmp_path / "records.arena") \
            == (ARENA_SHA1, ARENA_BYTES)
        text = "".join(dblp_chunks(2000, seed=1))
        assert arena_digest(_chunked(text, 997), tmp_path / "odd.arena") \
            == (ARENA_SHA1, ARENA_BYTES)
        assert not leaks.arena_files()


# ---------------------------------------------------------------------------
# Edge cases, against expat, under every split point
# ---------------------------------------------------------------------------

DECLARED = "<!DOCTYPE a [<!ENTITY uuml 'ü'>]>"

#: (document, its events) for leaves the fast path must take as
#: three tokens would.
LEAVES = [
    ("<a></a>", [("start", "a", {}), ("end", "a", None)]),
    ("<a> \n\t </a>", [("start", "a", {}), ("end", "a", None)]),
    ("<a >x</a >",
     [("start", "a", {}), ("text", "x", None), ("end", "a", None)]),
    ("<a k='v' j=\"w\">x y</a>",
     [("start", "a", {"k": "v", "j": "w"}), ("text", "x y", None),
      ("end", "a", None)]),
    ("<r><a/><b></b><c>t</c><d k='&amp;'> u </d></r>",
     [("start", "r", {}), ("start", "a", {}), ("end", "a", None),
      ("start", "b", {}), ("end", "b", None), ("start", "c", {}),
      ("text", "t", None), ("end", "c", None),
      ("start", "d", {"k": "&"}), ("text", " u ", None),
      ("end", "d", None), ("end", "r", None)]),
    ("<r><a>x</a><ab>y</ab></r>",
     [("start", "r", {}), ("start", "a", {}), ("text", "x", None),
      ("end", "a", None), ("start", "ab", {}), ("text", "y", None),
      ("end", "ab", None), ("end", "r", None)]),
    (f"{DECLARED}<a>&amp; &#252; &uuml;</a>",
     [("start", "a", {}), ("text", "& ü ü", None),
      ("end", "a", None)]),
]


def splits(text):
    """*text* cut in two at every position (one-character windows, so
    the first window ends at the cut)."""
    return [[text[:cut], text[cut:]] for cut in range(len(text) + 1)]


class TestLeafEdgeCases:
    @pytest.mark.parametrize("text, events", LEAVES)
    def test_events_at_every_split_point(self, leaks, text, events):
        assert scan([text]) == events
        expected = expat_summary(text)
        for chunks in splits(text):
            assert scan(chunks, window=1) == events, chunks
            assert summary(scan(chunks, window=1)) == expected, chunks
        assert_stream_parity(text, 1, leaks)
        assert_stream_parity(text, len(text), leaks)

    @pytest.mark.parametrize("text", [
        f"{DECLARED}<a>&uuml;&amp;&#252;&uuml;</a>",
        f"{DECLARED}<r><a k='&uuml;'>&uuml;</a><b>&uuml; x</b></r>",
    ])
    def test_entity_accounting_is_the_same_either_way(self, text):
        """Leaf text decodes through the same call, at the same
        position, as text between tokens: the declared-entity counter
        behind the amplification cap ends at the same count."""
        decode = scanner._Window.decode
        seen = set()
        for chunks in [[text], *splits(text)]:
            with mock.patch.object(scanner._Window, "decode",
                                   autospec=True,
                                   side_effect=decode) as spy:
                scan(chunks, window=1)
            window = spy.call_args.args[0]
            # The document's text and attribute values: a DOCTYPE split
            # across windows decodes its replacement texts once per try.
            seen.add((window._expanded, tuple(
                call.args[1] for call in spy.call_args_list
                if call.args[3] is not scanner._PREDEFINED)))
        assert len(seen) == 1
        # Once a DOCTYPE declares entities, every named reference counts
        # its replacement's length (one character each here).
        expanded, _raws = seen.pop()
        assert expanded == text.count("&uuml;") + text.count("&amp;")

    @pytest.mark.parametrize("text, message, position", [
        ("<a>x</a><b>y</b>", "multiple root elements", 11),
        ("<a/><b>y</b>", "multiple root elements", 7),
        ("<a>x</a><b></b>", "multiple root elements", 11),
        ("<a>x</a><b/>", "multiple root elements", 12),
        ("<a>x</ab>", "closing tag </ab> does not match <a>", 9),
        ("<a>x</b>", "closing tag </b> does not match <a>", 8),
        ("<r><a k='1'>x</ab></r>",
         "closing tag </ab> does not match <a>", 18),
        ("<a>x</a >y", "text content outside the root element", 10),
        ("<a>&bad;</a>", "unknown entity &bad;", 3),
    ])
    def test_errors_at_every_split_point(self, text, message, position):
        expected = (f"{message} (line 1, column {position + 1})", position)
        assert failure([text])[:2] == expected
        for chunks in splits(text):
            assert failure(chunks, window=1)[:2] == expected, chunks
        with pytest.raises(expat.ExpatError):
            expat_summary(text)

    def test_events_before_an_error_in_leaf_text(self):
        """The element is reported opened before its text fails, as
        when its open tag was a token of its own."""
        events = []
        with pytest.raises(XMLParseError, match="unknown entity"):
            for event in iter_events(["<r><a>x</a><b k='1'>&bad;</b></r>"]):
                events.append(event)
        assert events == [("start", "r", {}), ("start", "a", {}),
                          ("text", "x", None), ("end", "a", None),
                          ("start", "b", {"k": "1"})]


# ---------------------------------------------------------------------------
# DBLP: the shape the short cut is for
# ---------------------------------------------------------------------------

def merged(events):
    """Adjacent text events joined (expat splits character data at
    entity references and buffer ends)."""
    out = []
    for event in events:
        if event[0] == "text" and out and out[-1][0] == "text":
            out[-1] = ("text", out[-1][1] + event[1], None)
        else:
            out.append(event)
    return out


def expat_events(text):
    events = []
    parser = expat.ParserCreate()
    parser.StartElementHandler = \
        lambda name, attributes: events.append(("start", name, attributes))
    parser.EndElementHandler = lambda name: events.append(("end", name, None))
    parser.CharacterDataHandler = \
        lambda data: events.append(("text", data, None))
    parser.Parse(text, True)
    return merged(events)


def tree_dump(node, out):
    out.append((node.tag, sorted(node.attributes.items()), node.text,
                len(node.children), node.start, node.end, node.level))
    for child in node.children:
        tree_dump(child, out)
    return out


class Calls(Counter):
    """Counts the handler calls of one scan."""

    def start(self, *_args):
        self["start"] += 1

    def text(self, *_args):
        self["text"] += 1

    def end(self, *_args):
        self["end"] += 1

    def leaf(self, *_args):
        self["leaf"] += 1


class TestDblp:
    TEXT = "".join(dblp_chunks(200, seed=1))

    def test_events_equal_expat(self):
        assert merged(iter_events(dblp_chunks(200, seed=1))) \
            == expat_events(self.TEXT)

    def test_tree_is_unchanged(self):
        """The node tree, labels included, of the parse before leaf
        tokens (a digest of its pre-order dump)."""
        dump = tree_dump(parse_document(self.TEXT).root, [])
        assert len(dump) == 2230
        assert hashlib.sha1(repr(dump).encode()).hexdigest() \
            == "f5573fe7eac62c00d24939e8e9a2a7099ce7b2bf"

    def test_every_childless_element_is_one_leaf_call(self):
        calls = Calls()
        for _window in scan_windows(dblp_chunks(200, seed=1), calls):
            pass
        # dblp, bib and one record element per record open and close;
        # everything else is a leaf, and no text is left over.
        assert calls == {"start": 202, "end": 202, "leaf": 2230 - 202}
