"""SAX-streaming columnar builder: byte parity with the in-memory build.

The tentpole guarantee: feeding XML text through
:func:`repro.xml.streaming.stream_document` — any chunking, never
materializing a node tree — produces a file arena whose attached view
is column-for-column identical to parsing the same text and running
the in-memory columnar build, and every registered twig algorithm
returns identical rows AND identical instrumentation counters over
both. Error handling must match the tree parser exactly, including
under the list backend.
"""

from __future__ import annotations

import pytest

from repro.buffers.layout import list_backend
from repro.errors import XMLParseError
from repro.instrumentation import JoinStats
from repro.xml.arenaview import attach_arena_document
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.interface import available_twig_algorithms, \
    get_twig_algorithm
from repro.xml.parser import parse_document
from repro.xml.streaming import iter_events, stream_document
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_stream_chunks

DOCUMENT = """\
<library meta="x">
  <book id="1"><title>Systems</title><year>1999</year>
    <price>12.5</price></book>
  <book id="2"><title>P &amp; Q &#60;theory&#62;</title>
    <year>2021</year><price>7</price>
    <![CDATA[  raw <unparsed> & text  ]]></book>
  <!-- a comment -->
  <?pi ignored?>
  <big>18446744073709551616</big>
  <empty/>
</library>
"""


def _chunked(text, size):
    return [text[i:i + size] for i in range(0, len(text), size)]


def _columns(view):
    return {
        "starts": list(view.starts), "ends": list(view.ends),
        "levels": list(view.levels), "parents": list(view.parents),
        "tag_ids": list(view.tag_ids), "path_ids": list(view.path_ids),
        "tags": list(view.tags), "paths": list(view.paths),
        "values": [view.values[i] for i in range(view.size)],
        "tag_nids": [list(nids) for nids in view.tag_nids],
        "tag_starts": [list(s) for s in view.tag_starts],
        "tag_ends": [list(e) for e in view.tag_ends],
        "nids_by_path": [list(n) for n in view.nids_by_path],
        "pids_by_last_tag": {t: list(p) for t, p
                             in view.pids_by_last_tag.items()},
    }


def _counters(stats):
    return {key: value for key, value in stats.summary().items()
            if "time" not in key}


def assert_stream_parity(text, chunk_size, leaks):
    live = columnar(parse_document(text))
    arena = stream_document(_chunked(text, chunk_size))
    try:
        view = ColumnarDocument.from_arena(arena)
        assert _columns(view) == _columns(live)
    finally:
        arena.close()
        arena.unlink()
    assert not leaks.arena_files()


class TestColumnParity:
    @pytest.mark.parametrize("chunk_size", [1, 3, 17, 4096])
    def test_mixed_document_any_chunking(self, leaks, chunk_size):
        """Entities, CDATA, comments, PIs, bigints, self-closing tags —
        identical columns whatever the chunk boundaries cut through."""
        assert_stream_parity(DOCUMENT, chunk_size, leaks)

    def test_xmark_stream_corpus(self, leaks):
        text = "".join(xmark_stream_chunks(1, seed=4))
        assert_stream_parity(text, 113, leaks)

    def test_dblp_corpus(self, leaks):
        from repro.data.dblp import dblp_chunks

        text = "".join(dblp_chunks(120, seed=9))
        assert_stream_parity(text, 59, leaks)

    def test_typed_value_columns(self):
        """None / int / float / str / bigint all decode through the
        streamed value columns exactly as the tree parser typed them."""
        arena = stream_document([DOCUMENT])
        try:
            view = ColumnarDocument.from_arena(arena)
            values = [view.values[i] for i in range(view.size)]
            assert 1999 in values and 2021 in values          # ints
            assert 12.5 in values and 7 in values             # float/int
            assert "Systems" in values                        # strings
            assert "P & Q <theory>" in values                 # entities
            assert 18446744073709551616 in values             # bigint
            assert None in values                             # containers
        finally:
            arena.close()
            arena.unlink()

    def test_list_backend_parity(self):
        """The streamed arena matches a list-backed in-memory build."""
        with list_backend():
            live = columnar(parse_document(DOCUMENT))
            arena = stream_document(_chunked(DOCUMENT, 11))
            try:
                view = ColumnarDocument.from_arena(arena)
                assert _columns(view) == _columns(live)
            finally:
                arena.close()
                arena.unlink()


class TestAlgorithmParity:
    def test_rows_and_counters_for_every_algorithm(self, leaks):
        text = "".join(xmark_stream_chunks(0.5, seed=2))
        document = parse_document(text)
        twig = parse_twig("i=item(/n=name, //c=incategory)")
        linear = parse_twig("i=item(//c=incategory)")
        arena = stream_document(_chunked(text, 251))
        try:
            handle, _view = attach_arena_document(arena)
            for name in available_twig_algorithms():
                algorithm = get_twig_algorithm(name)
                query = twig if algorithm.supports(twig) else linear
                live_stats, arena_stats = JoinStats(), JoinStats()
                live_rows = algorithm.run(document, query,
                                          stats=live_stats).rows
                arena_rows = algorithm.run(handle, query,
                                           stats=arena_stats).rows
                assert sorted(arena_rows) == sorted(live_rows), name
                assert _counters(arena_stats) == _counters(live_stats), \
                    name
        finally:
            arena.close()
            arena.unlink()
        assert not leaks.arena_files()


#: Malformed documents (tests/xml/test_scanner.py re-scans them under
#: every chunking).
MALFORMED = [
    "<a><b></c></a>",          # mismatched close
    "<a></a><b></b>",          # multiple roots
    "<a><b></b>",              # unclosed element
    "stray<a></a>",            # text outside the root
    "<a>&bogus;</a>",          # unknown entity
    "",                        # no root at all
    "<a", "</a>",              # malformed / close-before-open
]


class TestErrorCases:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_streaming_matches_tree_parser(self, text):
        with pytest.raises(XMLParseError) as tree_error:
            parse_document(text)
        with pytest.raises(XMLParseError) as stream_error:
            for _event in iter_events(_chunked(text, 2)):
                pass
        assert str(stream_error.value) == str(tree_error.value)

    def test_failed_build_leaves_no_temp_files(self, leaks):
        with pytest.raises(XMLParseError):
            stream_document(["<a><b>text</b>"])  # unclosed root
        assert not leaks.arena_files()
