"""The level-at-a-time twig kernel behind ``accel``.

``repro.xml.accel.twig_frontiers`` reduces the candidates bottom-up and
expands a frontier top-down in C-level passes over the columnar arrays.
Its oracle is brute-force navigation (``naive``): ``run`` *and*
``embeddings`` must agree on random twigs x random documents, chunked
and unchunked, on an attached file arena against its in-memory twin, on
worker slices — and because the frontier is reduced before it is
expanded, no ``expand`` stage may exceed the embedding count (the
twig-side analogue of the Lemma 3.5 check in
``tests/engine/test_frontier_kernel.py``).

What the view version determines — an edge's match lists between whole
postings, a tag's value codes — is kept in ``view.derived``: every
answer and every counter must read the same with that memo cold, warm
or on a fresh view, and nothing matched through a predicate, a reduced
posting or a worker slice may land in it.

Randomized cases derive from ``REPRO_ACCEL_SEED`` (echoed in the pytest
header), like the accelerator oracle's.
"""

from __future__ import annotations

import random
import sys
import threading
from bisect import bisect_left

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.baseline import baseline_join
from repro.data.dblp import dblp_chunks, dblp_document
from repro.data.synthetic import example34_instance
from repro.instrumentation import JoinStats
from repro.parallel.partition import posting_slices
from repro.parallel.slicing import SlicedColumnarView
from repro.xml import accel
from repro.xml.arenaview import ArenaValues, attach_arena_document
from repro.xml.columnar import columnar
from repro.xml.generator import chain_document, random_document
from repro.xml.interface import get_twig_algorithm
from repro.xml.navigation import match_embeddings, match_relation
from repro.xml.parser import parse_document
from repro.xml.streaming import stream_document
from repro.xml.twig import Axis, TwigNode, TwigQuery
from repro.xml.twig_parser import parse_twig

from accel_harness import ACCEL_SEED
from test_accel_oracle import match_set

ACCEL = get_twig_algorithm("accel")

#: Value predicates by name (reprs that mean something in a failure).
PREDICATES = {
    "any": None,
    "low": lambda v: isinstance(v, int) and v <= 1,
    "high": lambda v: isinstance(v, int) and v >= 3,
    "none": lambda v: False,
}


def counters(stats):
    """Everything a run counted, times left out."""
    return ([(record.label, record.size) for record in stats.stages],
            stats.emitted, stats.seeks, stats.max_intermediate)


def kernel_run(document, twig):
    """(rows, embeddings as a set, counters) of one ``accel`` evaluation;
    ``run`` and ``embeddings`` must count alike and list no embedding
    twice."""
    ran, listed = JoinStats(), JoinStats()
    rows = ACCEL.run(document, twig, stats=ran)
    embeddings = ACCEL.embeddings(document, twig, stats=listed)
    assert counters(ran) == counters(listed)
    assert len(embeddings) == len(match_set(embeddings)) == ran.emitted
    return rows, match_set(embeddings), counters(ran)


def assert_matches_naive(document, twig):
    """Rows and embeddings are the oracle's; the stages obey the bound."""
    rows, embeddings, (stages, emitted, _seeks, _peak) = run = \
        kernel_run(document, twig)
    assert rows == match_relation(document, twig)
    expected = match_embeddings(document, twig)
    assert embeddings == match_set(expected)
    sizes = dict(stages)
    view = columnar(document)
    for q in twig.nodes():
        bound = {id(emb[q.name]) for emb in expected}
        # Reduced bottom-up only: a live candidate roots a complete
        # sub-embedding, though maybe under no live parent.
        assert len(bound) <= sizes[f"alive {q.name}"] \
            <= len(view.stream(q))
        # Reduced, then expanded: the frontier only ever grows.
        assert len(bound) <= sizes[f"expand {q.name}"] <= emitted
    root, last = twig.attributes[0], twig.attributes[-1]
    assert sizes[f"alive {root}"] == sizes[f"expand {root}"] \
        == len({id(emb[root]) for emb in expected})
    assert sizes[f"expand {last}"] == emitted == len(expected)
    return run


def memo_keys(view, kind="edge"):
    return {key for key in view.derived if key[0] == kind}


def assert_memo_is_invisible(document, twig):
    """The view's first match of *twig*, a second one over whatever the
    first left in ``view.derived``, and one on a rebuilt view: rows,
    embeddings and every counter are the oracle's all three times."""
    first_view = columnar(document)
    cold = assert_matches_naive(document, twig)
    assert kernel_run(document, twig) == cold  # warm
    document.reindex()  # drops the view
    assert columnar(document) is not first_view
    assert not columnar(document).derived
    assert kernel_run(document, twig) == cold  # fresh
    return cold


# -- strategies ------------------------------------------------------------

@st.composite
def twigs(draw):
    """1-5 query nodes over two present tags and (rarely) an absent
    one, both axes, value predicates anywhere (the root included). The
    small alphabet repeats tags along a path all the time."""
    def node(index, parent=None):
        tag = draw(st.sampled_from("aaaabbbbz" if index else "ab"))
        predicate = PREDICATES[draw(st.sampled_from(
            ["any"] * 7 + ["low", "high", "none"]))]
        if parent is None:
            return TwigNode("n0", tag=tag, predicate=predicate)
        return parent.add(f"n{index}", tag=tag, predicate=predicate,
                          axis=draw(st.sampled_from(list(Axis))))

    nodes = [node(0)]
    for index in range(1, draw(st.integers(1, 5))):
        nodes.append(node(index, draw(st.sampled_from(nodes))))
    return TwigQuery(nodes[0])


@st.composite
def documents(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return random_document(rng, tags="ab", max_children=5, max_nodes=draw(
        st.sampled_from([1, 20, 60, 150])), value_range=4)


# -- (a) differential against naive, (b) the reduced-frontier bound --------

class TestDifferential:
    @seed(ACCEL_SEED)
    @settings(max_examples=300, deadline=None)
    @given(documents(), twigs())
    def test_random_twigs_on_random_documents(self, document, twig):
        assert_memo_is_invisible(document, twig)

    @seed(ACCEL_SEED)
    @settings(max_examples=60, deadline=None)
    @given(documents(), st.lists(twigs(), min_size=2, max_size=4))
    def test_twigs_sharing_one_view(self, document, batch):
        """Edges one twig cached are another's input, predicated or not,
        in either order."""
        for twig in batch + batch[::-1]:
            assert_matches_naive(document, twig)

    @pytest.mark.parametrize("pattern", [
        "x=a", "x=z",                       # single node; absent tag
        "x=a(//y=a)", "x=a(/y=a)",          # one tag, both axes
        "x=a(//y=a(//w=a))", "x=a(/y=a(//w=a(/v=a)))",
        "x=a(//y=b, //w=b)", "x=a(/y=b(/w=a), //v=a)",
        "x=b(//y=a(/w=b))", "x=a(//y=z)",   # a dead leaf empties it all
    ])
    def test_deep_chains_repeat_one_tag(self, pattern):
        """Every node nests in every other: the self-pair trap, and the
        A-D fan-out at its worst."""
        for tags in (("a",), ("a", "b"), ("a", "a", "b")):
            assert_matches_naive(chain_document(14, tags=tags, root_tag="a"),
                                 parse_twig(pattern))

    def test_a_nonstrict_descendant_bound_is_caught(self, monkeypatch):
        """Mutation check: with a non-strict lower bound a node pairs
        with itself on ``a(//a)``, and the oracle says so."""
        twig = parse_twig("x=a(//y=a)")
        assert_matches_naive(chain_document(6, tags=("a",), root_tag="a"),
                             twig)
        monkeypatch.setattr(accel, "bisect_right", bisect_left)
        with pytest.raises(AssertionError):  # on a view with no edge cached
            assert_matches_naive(
                chain_document(6, tags=("a",), root_tag="a"), twig)

    def test_predicate_on_the_root_and_on_leaves(self):
        document = random_document(random.Random(20261002), tags="ab",
                                   max_nodes=300, value_range=4)
        root = TwigNode("x", tag="a", predicate=PREDICATES["high"])
        root.descendant("y", tag="b", predicate=PREDICATES["low"])
        root.child("w", tag="a")
        rows, *_ = assert_matches_naive(document, TwigQuery(root))
        assert rows.rows and all(x >= 3 and y <= 1 for x, y, _w in rows)


# -- the per-version memo --------------------------------------------------

def populated_document(rng, **shape):
    """A ``random_document`` with ten or more nodes of each of its tags,
    drawn again from *rng* until it has them: the generator draws its
    own size, and a test's premise (an ``a`` posting a predicate can
    cut, a root posting to slice) fails on a two-node draw."""
    while True:
        document = random_document(rng, **shape)
        if all(len(document.nodes(tag)) >= 10 for tag in shape["tags"]):
            return document


class TestMemo:
    def document(self):
        return populated_document(random.Random(f"{ACCEL_SEED}:memo"),
                                  tags="ab", max_nodes=300, max_children=5,
                                  value_range=4)

    def test_whole_postings_are_cached_once_per_edge(self):
        document = self.document()
        view = columnar(document)
        assert_matches_naive(document, parse_twig("x=a(/y=b, //w=a)"))
        assert memo_keys(view) == {("edge", "a", "b", Axis.CHILD),
                                   ("edge", "a", "a", Axis.DESCENDANT)}
        cached = {key: view.derived[key] for key in memo_keys(view)}
        # Another twig over the same edges reads them; a new edge joins.
        assert_matches_naive(document, parse_twig("p=a(/q=b(//r=b))"))
        assert all(view.derived[key] is found
                   for key, found in cached.items())
        assert memo_keys(view) == set(cached) | {
            ("edge", "b", "b", Axis.DESCENDANT)}
        assert memo_keys(view, "tag_codes") == {("tag_codes", "a"),
                                                ("tag_codes", "b")}

    @pytest.mark.parametrize("unpredicated_first", [True, False])
    def test_a_predicated_side_is_matched_per_call(self, unpredicated_first):
        """A predicate on either side of an edge another twig matched
        without one (and one that keeps every candidate): same tags,
        same axis, different answer — never the cached one."""
        document = self.document()
        view = columnar(document)
        plain = parse_twig("x=a(/y=b)")
        low_child = TwigNode("x", tag="a")
        low_child.child("y", tag="b", predicate=PREDICATES["low"])
        high_root = TwigNode("x", tag="a", predicate=PREDICATES["high"])
        high_root.child("y", tag="b")
        keeps_all = TwigNode("x", tag="a", predicate=lambda v: True)
        keeps_all.child("y", tag="b", predicate=lambda v: True)
        predicated = [TwigQuery(low_child), TwigQuery(high_root),
                      TwigQuery(keeps_all)]
        if unpredicated_first:
            assert_matches_naive(document, plain)
        answers = [assert_matches_naive(document, twig)[0]
                   for twig in predicated]
        assert memo_keys(view) == (
            {("edge", "a", "b", Axis.CHILD)} if unpredicated_first
            else set())
        whole = assert_matches_naive(document, plain)[0]
        assert answers[2] == whole
        assert answers[0].rows <= whole.rows and answers[1].rows <= whole.rows
        assert all(y <= 1 for _x, y in answers[0])
        assert all(x >= 3 for x, _y in answers[1])

    def test_a_reduced_side_is_matched_per_call(self):
        """``y`` loses candidates to its own child before ``x`` looks at
        it: the x-y edge is over a reduced posting, the y-w edge over
        whole ones."""
        document = parse_document(
            "<r><a><b><c>1</c></b><b>2</b></a><a><b>3</b></a></r>")
        view = columnar(document)
        rows, *_ = assert_matches_naive(document,
                                        parse_twig("x=a(/y=b(/w=c))"))
        assert rows.rows == {(None, None, 1)}
        assert memo_keys(view) == {("edge", "b", "c", Axis.CHILD)}
        rows, *_ = assert_matches_naive(document, parse_twig("x=a(/y=b)"))
        assert rows.rows == {(None, None), (None, 2), (None, 3)}

    def test_equal_values_of_different_types_are_one_row(self):
        """``1``, ``1.0`` and ``True`` are one value to a set of rows and
        one code to the code column; valueless nodes are ``None``."""
        document = parse_document(
            "<r><a><b>1</b><c/></a><a><b>1.0</b><c/></a><a><b>7</b><c/></a>"
            "<a><b>x</b><c>2</c></a><a><b/><c/></a><a><b/><c>2</c></a></r>")
        view, twig = columnar(document), parse_twig("x=a(/y=b, /w=c)")
        seven = view.values.index(7)
        view.values[seven] = True  # no XML text parses to a bool
        codes, dictionary = view.tag_codes("b")
        assert codes == [0, 0, 0, 1, 2, 2]
        assert dictionary.values == (1, "x", None)
        expected = {tuple(view.values[view.nid_of(emb[name])]
                          for name in twig.attributes)
                    for emb in match_embeddings(document, twig)}
        assert expected == {(None, 1, None), (None, "x", 2),
                            (None, None, None), (None, None, 2)}
        for _ in range(2):  # cold, warm
            rows, embeddings, _counted = kernel_run(document, twig)
            assert rows.rows == expected and len(embeddings) == 6
        document.reindex()  # a view rebuilt from the tree: 7 again
        assert_matches_naive(document, twig)

    def test_threads_racing_the_first_match_agree(self):
        """Entries are stored whole or not at all: whoever loses the
        race reads a finished list or computes its own."""
        twig = parse_twig("x=a(/y=b, //w=a(/v=b))")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(5):
                document = random_document(
                    random.Random(f"{ACCEL_SEED}:race:{round_}"), tags="ab",
                    max_nodes=1500, max_children=6, value_range=4)
                view = columnar(document)
                barrier, outcomes = threading.Barrier(4, timeout=60), []

                def match():
                    stats = JoinStats()
                    barrier.wait()
                    rows = ACCEL.run(document, twig, stats=stats)
                    outcomes.append((rows, counters(stats)))

                threads = [threading.Thread(target=match) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(outcomes) == 4
                assert all(outcome == outcomes[0] for outcome in outcomes)
                assert outcomes[0][0] == match_relation(document, twig)
                for key in memo_keys(view):
                    _kind, upper, lower, axis = key
                    assert view.derived[key] == accel._edge_matches(
                        view, view.stream(TwigNode("u", tag=upper)),
                        view.stream(TwigNode("l", tag=lower)), axis)
        finally:
            sys.setswitchinterval(interval)


# -- counters --------------------------------------------------------------

class TestCounters:
    DOCUMENT = parse_document(
        "<r><a><b>1</b><b>2</b><c>3</c></a><a><b>4</b></a>"
        "<a><c>5</c><d><c>6</c></d></a></r>")

    def test_stages_emitted_and_seeks(self):
        twig = parse_twig("x=a(/y=b, //w=c)")
        stats = JoinStats()
        rows = ACCEL.run(self.DOCUMENT, twig, stats=stats)
        assert rows.rows == {(None, 1, 3), (None, 2, 3)}
        assert [(r.label, r.size) for r in stats.stages] == [
            ("alive w", 3), ("alive y", 3), ("alive x", 1),
            ("expand x", 1), ("expand y", 2), ("expand w", 2)]
        assert stats.emitted == 2 and stats.max_intermediate == 3
        # Postings read: 3 a + 3 b + 3 c; probes over the 3 a
        # candidates: one group lookup (P-C) and two bisects (A-D) each.
        assert stats.seeks == 9 + 3 * 1 + 3 * 2
        assert sorted(stats.phase_times) == sorted(
            f"{phase} {name}" for phase in ("alive", "expand")
            for name in "xyw")

    def test_counting_is_optional(self):
        twig = parse_twig("x=a(/y=b, //w=c)")
        assert ACCEL.run(self.DOCUMENT, twig) \
            == ACCEL.run(self.DOCUMENT, twig, stats=JoinStats())

    def test_the_baseline_foils_peak_stays_the_twig_answer(self):
        """Figure 3's foil at n = 8 (``core.baseline_max_intermediate``
        on ``mm_xmark``): the matcher's stages stay under the n^5 twig
        answer the baseline materialises."""
        stats = JoinStats()
        baseline_join(example34_instance(8).query, stats=stats)
        assert stats.max_intermediate == 8 ** 5


# -- (c) chunk boundaries --------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunked_runs_equal_the_unchunked_run(monkeypatch, chunk):
    rng = random.Random(f"{ACCEL_SEED}:chunks")
    document = random_document(rng, tags="ab", max_nodes=200,
                               max_children=6, value_range=3)
    cases = [(document, parse_twig(pattern)) for pattern in (
        "x=a", "x=a(//y=b)", "x=a(/y=b, //w=a)", "x=b(//y=a(/w=b), /v=a)")]
    cases.append((chain_document(12, tags=("a",), root_tag="a"),
                  parse_twig("x=a(//y=a(//w=a))")))
    whole = [kernel_run(document, twig) for document, twig in cases]
    assert any(dict(stages)["alive x"] > 7
               for _rows, _embeddings, (stages, *_) in whole)
    monkeypatch.setattr(accel, "CHUNK", chunk)
    assert [kernel_run(document, twig) for document, twig in cases] == whole


# -- (d) an attached file arena against its in-memory twin -----------------

MIXED = """\
<library><book><title>Systems</title><year>1999</year>
<price>12.5</price><isbn>18446744073709551616</isbn><note/></book>
<book><title>P &amp; Q</title><year>2021</year><price>7</price>
<isbn>36893488147419103232</isbn><note>n/a</note></book>
<book><title>1e3</title><year>x</year><price>0.5</price>
<isbn>7</isbn><note>3</note></book></library>
"""


@pytest.fixture()
def attached(tmp_path):
    """attach(chunks, name) -> document handle over a streamed arena."""
    arenas = []

    def attach(chunks, name):
        arena = stream_document(chunks, path=str(tmp_path / name))
        arenas.append(arena)
        return attach_arena_document(arena)[0]

    yield attach
    for arena in arenas:
        arena.close()
        arena.unlink()


class TestAttachedArena:
    def test_streamed_dblp_against_its_twin(self, attached):
        records, data_seed = 400, ACCEL_SEED % 1000
        handle = attached(dblp_chunks(records, seed=data_seed), "dblp")
        twin = dblp_document(records, seed=data_seed)
        assert isinstance(columnar(handle).values, ArenaValues)
        recent = TwigNode("a", tag="article")
        recent.child("y", tag="year",
                     predicate=lambda v: isinstance(v, int) and v >= 2015)
        recent.child("t", tag="title")
        for twig in (parse_twig("a=article(/y=year, /j=journal)"),
                     parse_twig("i=inproceedings(/au=author, /b=booktitle)"),
                     parse_twig("d=dblp(//a=article(/v=volume), //c=crossref)"),
                     parse_twig("b=bib(//y=year)"), TwigQuery(recent)):
            rows, embeddings, counted = kernel_run(handle, twig)
            assert rows.rows  # str, int and None columns, all non-empty
            assert (rows, embeddings, counted) == kernel_run(twin, twig)
            assert rows == match_relation(twin, twig)

    def test_gather_decodes_all_five_value_kinds(self, attached):
        handle = attached([MIXED[:97], MIXED[97:]], "mixed")
        view, twin = columnar(handle), parse_document(MIXED)
        values = view.values
        assert isinstance(values, ArenaValues)
        expected = [values[nid] for nid in range(view.size)]
        assert {type(v) for v in expected} == {type(None), int, float, str}
        assert max(v for v in expected if isinstance(v, int)) > 2 ** 64
        # Whole document (mixed kinds), with repeats, empty, and each
        # tag's posting (one kind: none, str, int, float; bigint + int).
        everything = list(range(view.size))
        assert values.gather(everything) == expected
        assert values.gather(everything * 2 + [3, 3]) \
            == expected * 2 + [expected[3]] * 2
        assert values.gather([]) == []
        for nids in view.tag_nids:
            assert values.gather(nids) == [expected[nid] for nid in nids]
            assert [type(v) for v in values.gather(nids)] \
                == [type(expected[nid]) for nid in nids]
        for pattern in ("b=book(/t=title, /y=year, /p=price, /i=isbn, "
                        "/n=note)", "l=library(//i=isbn)", "n=note"):
            twig = parse_twig(pattern)
            assert kernel_run(handle, twig) == kernel_run(twin, twig)
            assert_matches_naive(twin, twig)


# -- (e) worker slices -----------------------------------------------------

@pytest.mark.parametrize("pattern", [
    "x=a(//y=b, /w=a)", "x=a(//y=a)", "x=b(/y=a(//w=b))", "x=a"])
def test_slices_partition_the_embeddings(pattern):
    """The kernel reads candidates only through ``view.stream``, so a
    ``SlicedColumnarView`` needs no second code path: the slices'
    embeddings, each cut to its own root range, partition the whole."""
    rng = random.Random(f"{ACCEL_SEED}:slices")
    assert_slices_partition(populated_document(
        rng, tags="ab", max_nodes=160, max_children=5, value_range=3),
        parse_twig(pattern))


def assert_slices_partition(document, twig):
    base = columnar(document)
    names = twig.attributes
    starts = base.starts

    def rooted(view):
        return [tuple(starts[nid] for nid in row)
                for columns in accel.twig_frontiers(view, twig)
                for row in zip(*columns)]

    whole = rooted(base)
    assert set(whole) == {tuple(emb[name].start for name in names)
                          for emb in match_embeddings(document, twig)}
    pieces = posting_slices(base.stream(twig.root), 5)
    assert len(pieces) > 1
    union: list = []
    for piece in pieces:
        view = SlicedColumnarView(base, twig, piece.lo, piece.hi,
                                  piece.region_hi)
        union += [row for row in rooted(view)
                  if piece.lo <= row[0] < piece.hi]
    assert sorted(union) == sorted(whole)


def test_a_slice_neither_fills_nor_reads_the_memo():
    """Matched through slices first, then whole: a slice's streams are
    restricted, so what it computes stays out of the base view's
    ``derived`` (and its own), and the whole-document match that follows
    is the oracle's."""
    rng = random.Random(f"{ACCEL_SEED}:slice-memo")
    twig = parse_twig("x=a(//y=b, /w=a)")
    while True:  # the generator may stop at a handful of nodes
        document = random_document(rng, tags="ab", max_nodes=160,
                                   max_children=5, value_range=3)
        if len(document.nodes("a")) >= 8:
            break
    base = columnar(document)
    base.derived["probe"] = "kept"
    pieces = posting_slices(base.stream(twig.root), 4)
    assert len(pieces) > 1
    for piece in pieces + pieces[:1]:
        view = SlicedColumnarView(base, twig, piece.lo, piece.hi,
                                  piece.region_hi)
        assert view.derived is not base.derived and not view.derived
        list(accel.twig_frontiers(view, twig))
        assert not memo_keys(view) and not memo_keys(base)
    # One slice spanning everything restricts nothing — and still is
    # not the view's own posting.
    everything = SlicedColumnarView(base, twig, 0, base.ends[0] + 1,
                                    base.ends[0])
    assert len(everything.stream(twig.root)) == len(base.stream(twig.root))
    list(accel.twig_frontiers(everything, twig))
    assert not memo_keys(everything) and not memo_keys(base)
    assert_matches_naive(document, twig)
    assert len(memo_keys(base)) == 2 and base.derived["probe"] == "kept"


# -- (f) functional P-C edges ----------------------------------------------

def functional_document(rng, roots):
    """*roots* ``a`` elements under ``r``: each has at most one ``b``
    and at most one ``c`` child, some none, some valueless, and some
    one ``a`` child of their own — so ``a/b``, ``a/c`` and ``a/a`` are
    functional (fan-out 1) and ``a//b``, ``a//a`` are not."""
    def leaf(tag, values):
        return f"<{tag}>{rng.randrange(values)}</{tag}>" \
            if rng.random() < 0.8 else f"<{tag}/>"

    def element(depth):
        return "".join([
            "<a>",
            leaf("b", 4) if rng.random() < 0.8 else "",
            leaf("c", 3) if rng.random() < 0.7 else "",
            element(depth + 1) if depth < 2 and rng.random() < 0.3 else "",
            "</a>"])

    return parse_document(
        "<r>" + "".join(element(0) for _ in range(roots)) + "</r>")


def flat_entry(view, upper, lower):
    """The ``(upper, lower)`` P-C edge as kept: asserted to be the flat
    form, and each position checked against the ``parents`` column."""
    entry = view.derived[("edge", upper, lower, Axis.CHILD)]
    assert isinstance(entry, tuple)
    children = list(view.postings(lower)[0])
    assert entry == tuple(
        next((rank for rank, child in enumerate(children)
              if view.parents[child] == nid), -1)
        for nid in view.postings(upper)[0])
    return entry


class TestFunctionalEdges:
    """A P-C edge whose upper tag has at most one child of the lower tag
    per element (``ColumnarDocument.fan_out`` <= 1) is kept as one lower
    position per upper candidate, -1 for none: sliced per chunk while
    the root column is a range, gathered once an earlier edge repeated
    it. Everything else — A-D edges, wider fan-outs, cut postings — is
    grouped as before."""

    def document(self, roots=60):
        return functional_document(
            random.Random(f"{ACCEL_SEED}:functional:{roots}"), roots)

    def test_whole_functional_edges_are_one_position_each(self):
        document = self.document()
        view = columnar(document)
        assert view.fan_out("a", "b") == view.fan_out("a", "c") == 1
        assert_memo_is_invisible(document, parse_twig("x=a(/y=b, /w=c)"))
        view = columnar(document)
        assert_matches_naive(document, parse_twig("x=a(/y=b, /w=c)"))
        assert -1 in flat_entry(view, "a", "b")
        flat_entry(view, "a", "c")

    @pytest.mark.parametrize("pattern,flat", [
        ("n0=a(//n1=a, /n2=a)", "a"), ("n0=a(//n1=b, /n2=b)", "b"),
        ("n0=a(//n1=b, /n2=c, /n3=a(/n4=b))", "c"),
        ("n0=a(/n1=a(//n2=b), /n3=c)", "c")])
    def test_a_repeating_edge_before_a_functional_one(self, pattern, flat):
        """An A-D edge expanded first repeats the root column: the
        functional edge ``a/flat`` after it must gather through the
        repeated column, not slice the chunk's range."""
        twig = parse_twig(pattern)
        for document in (chain_document(5, tags=("a",), root_tag="a"),
                         chain_document(9, tags=("b", "a", "c"),
                                        root_tag="a"),
                         self.document()):
            rows, *_ = assert_matches_naive(document, twig)
            if rows.rows:
                flat_entry(columnar(document), "a", flat)

    def test_roots_missing_a_child(self):
        document = parse_document(
            "<r><a><b>1</b></a><a><c>5</c></a><a><b>2</b><c>6</c></a>"
            "<a/></r>")
        view = columnar(document)
        rows, _embeddings, (stages, *_) = assert_matches_naive(
            document, parse_twig("x=a(/y=b)"))
        assert rows.rows == {(None, 1), (None, 2)}
        assert dict(stages)["alive x"] == 2
        assert flat_entry(view, "a", "b") == (0, -1, 1, -1)
        rows, *_ = assert_matches_naive(document,
                                        parse_twig("x=a(/y=b, /w=c)"))
        assert rows.rows == {(None, 2, 6)}
        assert flat_entry(view, "a", "c") == (-1, 0, 1, -1)

    @pytest.mark.parametrize("side", ["upper", "lower", "both"])
    def test_predicates_on_either_side(self, side):
        """A predicated side is cut: grouped per call, never cached, and
        the whole edge another twig keeps is left as it was."""
        document = self.document()
        view = columnar(document)
        assert_matches_naive(document, parse_twig("x=a(/y=b, /w=c)"))
        kept = flat_entry(view, "a", "b")
        root = TwigNode("x", tag="a", predicate=(
            (lambda v: v is None) if side != "lower" else None))
        root.child("y", tag="b", predicate=(
            PREDICATES["low"] if side != "upper" else None))
        root.child("w", tag="c")
        rows, *_ = assert_matches_naive(document, TwigQuery(root))
        assert rows.rows
        assert view.derived[("edge", "a", "b", Axis.CHILD)] is kept
        assert memo_keys(view) == {("edge", "a", "b", Axis.CHILD),
                                   ("edge", "a", "c", Axis.CHILD)}

    @pytest.mark.parametrize("pattern", [
        "x=a(/y=b, /w=c)", "x=a(//y=a, /w=b)", "x=a(/y=a(/w=b), /v=c)"])
    def test_more_roots_than_a_chunk(self, pattern):
        document = self.document(accel.CHUNK + 300)
        assert len(document.nodes("a")) > accel.CHUNK
        assert_matches_naive(document, parse_twig(pattern))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_small_chunks_slice_and_gather(self, monkeypatch, chunk):
        document = self.document()
        cases = [parse_twig(pattern) for pattern in (
            "x=a(/y=b, /w=c)", "x=a(//y=b, /w=c)", "x=a(/y=a(/w=b), /v=c)")]
        whole = [kernel_run(document, twig) for twig in cases]
        monkeypatch.setattr(accel, "CHUNK", chunk)
        assert [kernel_run(document, twig) for twig in cases] == whole

    def test_valueless_tags(self):
        """A constant code column is not read: it is filled in at
        decode — including when every node of the twig is valueless."""
        document = parse_document(
            "<r><a><b/><c/></a><a><b/></a><a><c>1</c></a><a><b/><c>2</c>"
            "</a></r>")
        view = columnar(document)
        for pattern, expected in (
                ("x=a", {(None,)}),
                ("x=a(/y=b)", {(None, None)}),
                ("x=r(/y=a(/w=b))", {(None, None, None)}),
                ("x=a(/y=b, /w=c)", {(None, None, None), (None, None, 2)}),
                ("x=a(/y=c)", {(None, None), (None, 1), (None, 2)}),
                ("x=b(/y=c)", set()), ("x=a(/y=z)", set())):
            rows, *_ = assert_matches_naive(document, parse_twig(pattern))
            assert rows.rows == expected, pattern
        assert flat_entry(view, "a", "b") == (0, 1, -1, 2)
        assert view.tag_codes("b")[1].values == (None,)

    @pytest.mark.parametrize("pattern", [
        "x=a(/y=b, /w=c)", "x=a(//y=a, /w=b)", "x=a(/y=a(/w=b), /v=c)"])
    def test_worker_slices(self, pattern):
        """A slice's postings are cut: its edges are grouped per call and
        kept nowhere, and the slices still partition the whole."""
        document = self.document()
        base = columnar(document)
        assert_slices_partition(document, parse_twig(pattern))
        flat_entry(base, "a", parse_twig(pattern).nodes()[2].tag)

    def test_a_value_edit_keeps_the_entry_and_a_splice_drops_it(self):
        from repro.updates.documents import DocumentEditor
        from repro.xml.model import XMLNode

        document = self.document()
        twig = parse_twig("x=a(/y=b, /w=c)")
        editor = DocumentEditor(document)
        view = columnar(document)
        assert_matches_naive(document, twig)
        kept = flat_entry(view, "a", "b")
        b = next(node for node in document.nodes("b")
                 if node.parent.children[-1].tag == "c")
        editor.change_value(b, "17")
        assert columnar(document) is view
        assert view.derived[("edge", "a", "b", Axis.CHILD)] is kept
        rows, *_ = assert_matches_naive(document, twig)
        assert any(row[1] == 17 for row in rows)
        # A second b under one a: the splice drops the entry, and the
        # edge is no longer functional.
        editor.insert_subtree(b.parent, XMLNode("b", text="9"))
        assert columnar(document) is view
        assert ("edge", "a", "b", Axis.CHILD) not in view.derived
        rows, *_ = assert_matches_naive(document, twig)
        assert any(row[1] == 9 for row in rows)
        assert view.fan_out("a", "b") == 2
        assert isinstance(view.derived[("edge", "a", "b", Axis.CHILD)],
                          list)
