"""List-backed vs buffer-backed parity for every registered algorithm.

The structural guarantee of the buffers tentpole: routing the engine's
sorted code sequences through typed arrays changes the representation
and nothing else. :func:`~repro.buffers.layout.list_backend` forces
``pack``/``make`` to return plain lists, so building the *same* inputs
inside the context yields a list-backed twin through identical call
sites — every registered join and twig algorithm must then produce
identical rows **and identical instrumentation counters** on both,
including on tries rebuilt after rows change and across typecode-width
boundaries.
"""

import random

import pytest

from repro.buffers.layout import as_list, is_buffer, list_backend
from repro.core.multimodel import MultiModelQuery
from repro.engine.encoded import EncodedInstance, EncodedTrie
from repro.engine.interface import available_algorithms, get_algorithm
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation
from repro.updates.documents import DocumentEditor
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.generator import random_document
from repro.xml.interface import available_twig_algorithms, \
    get_twig_algorithm
from repro.xml.model import XMLDocument, element
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.twig_parser import parse_twig

JOIN_ALGORITHMS = [name for name in available_algorithms()
                   if name != "baseline"]  # baseline never touches tries


def triangle_relations(n, *, seed=5):
    rng = random.Random(seed)
    edges = sorted({(rng.randrange(n), rng.randrange(n))
                    for _ in range(4 * n)})
    return [Relation("R", ("a", "b"), edges),
            Relation("S", ("b", "c"), edges),
            Relation("T", ("a", "c"), edges)]


def counters(stats):
    """The deterministic counter part of a stats summary (no wall time)."""
    return {key: value for key, value in stats.summary().items()
            if "time" not in key}


def run_join(instance, algorithm):
    stats = JoinStats()
    result = get_algorithm(algorithm).run(instance, stats=stats)
    return sorted(result.rows), counters(stats)


def build_instance(n, order, algorithm):
    # Fresh relations per build: encoded inputs are cached per relation
    # object, so only new objects encode under the backend in force.
    relations = triangle_relations(n)
    if algorithm == "xjoin":  # xjoin requires the query-carrying build
        query = MultiModelQuery(relations, name="Q")
        return EncodedInstance.from_query(query, order)
    return EncodedInstance.from_relations(relations, order)


class TestJoinParity:
    # n=300 pushes the code domain past 255, so the level buffers sit
    # on the 8->16 bit boundary: top-level codes pack as "H", deeper
    # singleton levels as "B".
    @pytest.mark.parametrize("algorithm", JOIN_ALGORITHMS)
    @pytest.mark.parametrize("n", [40, 300])
    def test_rows_and_counters_identical(self, algorithm, n):
        order = ("a", "b", "c")
        buffered = build_instance(n, order, algorithm)
        assert is_buffer(buffered.tries[0].root.keys)
        with list_backend():
            listed = build_instance(n, order, algorithm)
        assert not is_buffer(listed.tries[0].root.keys)
        rows_b, stats_b = run_join(buffered, algorithm)
        rows_l, stats_l = run_join(listed, algorithm)
        assert rows_b == rows_l
        assert stats_b == stats_l

    @pytest.mark.parametrize("algorithm", JOIN_ALGORITHMS)
    def test_parity_after_tries_are_rebuilt(self, algorithm):
        """An update rebuilds a changed input's trie from its rows
        (never patches it): the same rows removed, then restored, in
        both twins' rebuilt tries."""
        order = ("a", "b", "c")

        def rebuild(instance, rows_of):
            instance.tries = [EncodedTrie(t.name, t.order, rows_of(t))
                              for t in instance.tries]

        buffered = build_instance(60, order, algorithm)
        with list_backend():
            listed = build_instance(60, order, algorithm)
        victims = {trie.name: set(list(trie.tuples())[::7][:5])
                   for trie in buffered.tries}

        def removed(trie):
            return [row for row in trie.tuples()
                    if row not in victims[trie.name]]

        def restored(trie):
            return [*trie.tuples(), *victims[trie.name]]

        full = run_join(buffered, algorithm)
        rebuild(buffered, removed)
        with list_backend():
            rebuild(listed, removed)
        assert is_buffer(buffered.tries[0].root.keys)
        assert not is_buffer(listed.tries[0].root.keys)
        rows_b, stats_b = run_join(buffered, algorithm)
        rows_l, stats_l = run_join(listed, algorithm)
        assert rows_b == rows_l
        assert stats_b == stats_l
        assert len(rows_b) < len(full[0])
        rebuild(buffered, restored)
        with list_backend():
            rebuild(listed, restored)
        assert run_join(buffered, algorithm) == full
        assert run_join(listed, algorithm) == full


def sample_document():
    tree = element(
        "lib",
        element("shelf",
                element("book", element("title", text="a"),
                        element("year", text="1999")),
                element("book", element("title", text="b"))),
        element("shelf", element("book", element("title", text="c"))),
    )
    return XMLDocument(tree)


TWIGS = [
    "b=book(/t=title)",
    "s=shelf(//t=title)",
    "b=book(/t=title, /y=year)",
]


class TestTwigParity:
    @pytest.mark.parametrize("algorithm", available_twig_algorithms())
    @pytest.mark.parametrize("pattern", TWIGS)
    def test_matchers_identical_on_both_backends(self, algorithm, pattern):
        twig = parse_twig(pattern)
        matcher = get_twig_algorithm(algorithm)
        if not matcher.supports(twig):
            pytest.skip(f"{algorithm} does not support {pattern!r}")
        rng = random.Random(29)
        for _ in range(4):
            document = random_document(rng, max_nodes=60)
            twin = parse_document(serialize(document))
            buffered_view = ColumnarDocument(document)
            assert is_buffer(buffered_view.starts)
            with list_backend():
                listed_view = ColumnarDocument(twin)
            assert not is_buffer(listed_view.starts)
            stats_b, stats_l = JoinStats(), JoinStats()
            rows_b = matcher.run(document, twig, stats=stats_b)
            rows_l = matcher.run(twin, twig, stats=stats_l)
            assert sorted(rows_b.rows) == sorted(rows_l.rows)
            assert counters(stats_b) == counters(stats_l)

    @pytest.mark.parametrize("algorithm", available_twig_algorithms())
    def test_parity_after_update_splices(self, algorithm):
        twig = parse_twig("b=book(/t=title)")
        matcher = get_twig_algorithm(algorithm)
        if not matcher.supports(twig):
            pytest.skip(f"{algorithm} does not support the twig")
        document = sample_document()
        twin = sample_document()

        def edit(doc):
            editor = DocumentEditor(doc, churn_threshold=1.0)
            subtree = element("book", element("title", text="zz"))
            editor.insert_subtree(doc.root.children[1], subtree)
            editor.delete_subtree(doc.root.children[0].children[1])

        edit(document)
        with list_backend():
            edit(twin)
        rows_b = matcher.run(document, twig)
        rows_l = matcher.run(twin, twig)
        assert sorted(rows_b.rows) == sorted(rows_l.rows)

    def test_update_splices_keep_columns_byte_identical(self):
        document = sample_document()
        twin = sample_document()

        def edit(doc):
            editor = DocumentEditor(doc, churn_threshold=1.0)
            subtree = element("book", element("title", text="zz"),
                              element("year", text="2024"))
            editor.insert_subtree(doc.root.children[0], subtree, index=1)
            editor.delete_subtree(doc.root.children[1].children[0])
            return columnar(doc)

        view_b = edit(document)
        with list_backend():
            view_l = edit(twin)
        assert is_buffer(view_b.starts) and not is_buffer(view_l.starts)
        for column in ("starts", "ends", "levels", "parents",
                       "tag_ids", "path_ids", "values"):
            assert as_list(getattr(view_b, column)) == \
                as_list(getattr(view_l, column)), column
        assert view_b.tags == view_l.tags
        for tid in range(len(view_b.tags)):
            assert as_list(view_b.tag_nids[tid]) == \
                as_list(view_l.tag_nids[tid])
            assert as_list(view_b.tag_starts[tid]) == \
                as_list(view_l.tag_starts[tid])
            assert as_list(view_b.tag_ends[tid]) == \
                as_list(view_l.tag_ends[tid])
        for pid in range(len(view_b.paths)):
            assert as_list(view_b.nids_by_path[pid]) == \
                as_list(view_l.nids_by_path[pid])
