"""Parallel vs serial parity for every registered algorithm.

The acceptance property of the parallel subsystem, extending the
cross-algorithm parity suites (``tests/engine/test_cross_engine``,
``tests/xml/test_cross_twig``): for every registered join algorithm and
every registered twig algorithm, the partition-parallel executor's
answer equals the serial answer — over the pool (fork transport, the CI
``--workers 2`` path), the in-process morsel loop (serial transport) and
the arena transports (``shm`` / ``mmap``) where they apply.
"""

import pytest

from repro.core.baseline import baseline_join
from repro.data.random_instances import random_multimodel_instance
from repro.data.synthetic import agm_tight_triangle, example34_instance
from repro.engine.encoded import EncodedInstance
from repro.engine.interface import available_algorithms, get_algorithm
from repro.engine.planner import attribute_order, plan_query, run_query
from repro.errors import EngineError, TransportError
from repro.instrumentation import JoinStats
from repro.parallel.executor import ParallelExecutor, available_transports
from repro.parallel.morsels import fork_available
from repro.relational.relation import Relation
from repro.xml import accel
from repro.xml.interface import available_twig_algorithms, \
    get_twig_algorithm
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_document

WORKERS = 2
TRANSPORTS = ["serial"] + (["fork"] if fork_available() else [])


def executor(transport, workers=WORKERS, **kw):
    return ParallelExecutor(workers, transport=transport, **kw)


# ---------------------------------------------------------------------------
# join algorithms
# ---------------------------------------------------------------------------

class TestJoinParity:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("algorithm", ["generic_join", "leapfrog"])
    def test_relational_kernels(self, algorithm, transport):
        instance = EncodedInstance.from_relations(
            agm_tight_triangle(40), ("a", "b", "c"))
        serial = get_algorithm(algorithm).run(instance)
        parallel = executor(transport).run_join(instance, algorithm)
        assert parallel == serial

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_every_registered_algorithm_on_multimodel(self, transport):
        instance34 = example34_instance(4)
        query = instance34.query
        expected = query.naive_join()
        encoded = EncodedInstance.from_query(query, attribute_order(query))
        for algorithm in available_algorithms():
            if algorithm in ("generic_join", "leapfrog"):
                continue  # relational kernels reject twig instances
            parallel = executor(transport).run_join(encoded, algorithm)
            assert parallel == expected, (algorithm, transport)

    def test_skewed_domain_parity(self):
        # One partition holds > 90% of the tuples: morsel boundaries
        # must not lose or duplicate the heavy key's results.
        rows = ([(0, j) for j in range(60)]
                + [(i, i) for i in range(1, 5)])
        relations = [Relation("R", ("a", "b"), rows),
                     Relation("S", ("b", "c"), rows),
                     Relation("T", ("a", "c"), rows)]
        instance = EncodedInstance.from_relations(relations,
                                                  ("a", "b", "c"))
        serial = get_algorithm("generic_join").run(instance)
        for transport in TRANSPORTS:
            assert executor(transport).run_join(
                instance, "generic_join") == serial

    def test_empty_input_parity(self):
        relations = [Relation("R", ("a", "b"), [(1, 2)]),
                     Relation("S", ("b", "c"))]
        instance = EncodedInstance.from_relations(relations,
                                                  ("a", "b", "c"))
        serial = get_algorithm("generic_join").run(instance)
        assert executor("serial").run_join(instance,
                                           "generic_join") == serial
        assert len(serial) == 0

    @pytest.mark.parametrize("transport", ["shm", "mmap"])
    def test_arena_transport_rejects_twig_instances(self, transport):
        # A twig-bearing instance whose leading attribute has a wide
        # domain (so the run would genuinely partition, not degrade to
        # the serial path, which handles twig instances fine).
        from repro.core.multimodel import MultiModelQuery, TwigBinding
        from repro.xml.parser import parse_document
        from repro.xml.twig_parser import parse_twig

        document = parse_document(
            "<r>" + "".join(f"<x>{i}</x>" for i in range(6)) + "</r>")
        query = MultiModelQuery(
            [Relation("R", ("a", "x"), [(i, i) for i in range(6)])],
            [TwigBinding(parse_twig("x"), document)], name="P")
        encoded = EncodedInstance.from_query(query, attribute_order(query))
        with pytest.raises(TransportError):
            executor(transport).run_join(encoded, "xjoin", morsels=4)

    @pytest.mark.parametrize("transport", ["shm", "mmap"])
    def test_arena_transport_serial_degenerate_runs_fine(self, transport):
        # A twig-bearing instance with a unit morsel count must fall
        # back to the serial kernel instead of raising.
        query = example34_instance(3).query
        encoded = EncodedInstance.from_query(query, attribute_order(query))
        serial = get_algorithm("xjoin").run(encoded)
        assert executor(transport).run_join(encoded, "xjoin",
                                            morsels=1) == serial

    @pytest.mark.parametrize("transport", ["pigeon", "pickle"])
    def test_unknown_transport_refused_before_any_work(self, transport):
        """A name outside ``available_transports()`` is refused when the
        executor is built: a unit morsel count, which never reaches the
        pool, no longer hides it."""
        instance = EncodedInstance.from_relations(
            agm_tight_triangle(10), ("a", "b", "c"))
        document = xmark_document(0.2, seed=1)
        twig = parse_twig("p=person(/nm=name)")
        runs = [lambda run: run.run_join(instance, "generic_join",
                                         morsels=1),
                lambda run: run.run_join(instance, "generic_join",
                                         morsels=4),
                lambda run: run.run_twig(document, twig, "structural")]
        for run in runs:
            with pytest.raises(TransportError, match="unknown transport"):
                run(executor(transport))
        assert transport not in available_transports()

    @pytest.mark.parametrize("transport", available_transports())
    def test_an_unregistered_operator_starts_no_worker(self, transport,
                                                       monkeypatch):
        """``baseline`` is the ``baseline_join`` foil, not an operator:
        every transport refuses the name before it publishes an arena
        or starts a morsel."""
        import repro.parallel.executor as module

        def no_morsels(*_args, **_kw):
            raise AssertionError("a morsel ran")

        monkeypatch.setattr(module, "run_morsels", no_morsels)
        encoded = EncodedInstance.from_relations(
            agm_tight_triangle(30), ("a", "b", "c"))
        with pytest.raises(EngineError, match="unknown join algorithm"):
            executor(transport).run_join(encoded, "baseline", morsels=4)

    def test_workers_zero_and_one_run_serially(self):
        instance = EncodedInstance.from_relations(
            agm_tight_triangle(20), ("a", "b", "c"))
        serial = get_algorithm("generic_join").run(instance)
        for workers in (0, 1):
            assert ParallelExecutor(workers).run_join(
                instance, "generic_join") == serial


# ---------------------------------------------------------------------------
# whole queries through the planner
# ---------------------------------------------------------------------------

class TestQueryParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_run_query_workers_matches_serial(self, seed):
        query = random_multimodel_instance(seed)
        serial = run_query(query)
        assert run_query(query, workers=WORKERS) == serial, seed

    def test_plan_carries_partitions(self):
        query = example34_instance(4).query
        plan = plan_query(query, workers=4)
        if plan.partitions > 1:
            assert plan.partition_axis == plan.order[0]
        assert plan_query(query).partitions == 1

    @pytest.mark.parametrize("algorithm", ["xjoin"])
    def test_forced_algorithm_parity(self, algorithm):
        query = example34_instance(4).query
        serial = run_query(query, algorithm=algorithm)
        assert serial == baseline_join(query)  # the foil as the oracle
        for transport in TRANSPORTS:
            parallel = executor(transport).run_query(
                query, algorithm=algorithm, stats=JoinStats())
            assert parallel == serial, (algorithm, transport)


# ---------------------------------------------------------------------------
# twig algorithms
# ---------------------------------------------------------------------------

TWIG_PATTERNS = [
    "oa=open_auction(/ir=itemref, //pr=personref)",
    "p=person(/nm=name, //i=interest)",
    "oa=open_auction(//bd=bidder(/pr=personref))",
    "nm=name",  # single-node twig: the root is the only stream
]


def root_slices(stats):
    return [record.label for record in stats.stages
            if record.label.startswith("roots [")]


@pytest.mark.usefixtures("small_chunks")
class TestTwigParity:
    @pytest.fixture(scope="class")
    def document(self):
        return xmark_document(1.0, seed=7)

    @pytest.mark.parametrize("pattern", TWIG_PATTERNS)
    def test_every_registered_matcher(self, document, pattern):
        twig = parse_twig(pattern)
        for name in available_twig_algorithms():
            matcher = get_twig_algorithm(name)
            if not matcher.supports(twig):
                continue
            serial = matcher.run(document, twig)
            for transport in TRANSPORTS:
                stats = JoinStats()
                parallel = executor(transport).run_twig(
                    document, twig, name, stats=stats)
                assert parallel == serial, (name, pattern, transport)
                assert len(root_slices(stats)) > 1, (name, transport)

    @pytest.mark.parametrize("name", ["structural", "accel"])
    def test_in_process_slices_leave_the_views_caches_alone(self, name):
        """The serial transport swaps a slice view in and the base view
        back in the caller's own process: what the base has derived
        (encoded inputs, value gathers, edge matches) must survive, and
        nothing matched through a slice may join it."""
        from repro.xml.columnar import columnar

        document = xmark_document(0.5, seed=3)
        twig = parse_twig("p=person(/nm=name, //i=interest)")
        view = columnar(document)
        view.derived["probe"] = "planted"
        stats = JoinStats()
        sliced = executor("serial").run_twig(document, twig, name,
                                             stats=stats)
        assert len(root_slices(stats)) > 1
        assert columnar(document) is view
        assert view.derived["probe"] == "planted"
        assert not [key for key in view.derived if key[0] == "edge"]
        naive = get_twig_algorithm("naive").run(document, twig)
        assert sliced == naive
        assert get_twig_algorithm("accel").run(document, twig) == naive
        assert [key for key in view.derived if key[0] == "edge"]
        assert executor("serial").run_twig(document, twig, name) == naive
        assert view.derived["probe"] == "planted"

    @pytest.mark.parametrize("name", ["tjfast", "twigstack"])
    def test_closures_reach_spawned_workers_by_extension(self, document,
                                                         name):
        """Whether a matcher reads predicates through the streams
        (``twigstack``) or value by value (``tjfast``), a closure
        crosses the spawn transports as the values it kept."""
        twig = parse_twig("oa=open_auction(//bd=bidder(/inc=increase))")
        twig.node("inc").predicate = \
            lambda v: isinstance(v, int) and v > 25
        serial = get_twig_algorithm(name).run(document, twig)
        assert serial.rows
        assert executor("shm").run_twig(document, twig, name) == serial
        assert twig.node("inc").matches_value(26)  # the caller's, intact

    def test_unknown_transport_is_refused(self, document):
        """For twigs as for joins (it used to mean ``shm``)."""
        twig = parse_twig("p=person(/nm=name)")
        with pytest.raises(EngineError, match="unknown transport"):
            executor("pigeon").run_twig(document, twig, "structural")

    def test_absent_root_tag(self, document):
        twig = parse_twig("z=zeppelin(//q=cabin)")
        serial = get_twig_algorithm("twigstack").run(document, twig)
        parallel = executor("serial").run_twig(document, twig, "twigstack")
        assert parallel == serial
        assert len(serial) == 0

    def test_planner_chosen_matcher(self, document):
        twig = parse_twig("p=person(/nm=name, //i=interest)")
        serial_rows = get_twig_algorithm("accel").run(document, twig)
        parallel = executor("serial").run_twig(document, twig)
        assert parallel == serial_rows


class TestAccelTransportParity:
    """``accel`` rides the root-posting slices every matcher rides, over
    every transport; a twig whose root posting fits one of its kernel's
    chunks never reaches the pool."""

    @pytest.fixture(scope="class")
    def document(self):
        return xmark_document(1.0, seed=7)

    @pytest.mark.parametrize("transport", available_transports())
    @pytest.mark.parametrize("pattern", TWIG_PATTERNS)
    def test_accel_every_transport(self, document, pattern, transport,
                                   small_chunks):
        twig = parse_twig(pattern)
        serial = get_twig_algorithm("accel").run(document, twig)
        stats = JoinStats()
        parallel = executor(transport).run_twig(document, twig, "accel",
                                                stats=stats)
        assert parallel == serial, (pattern, transport)
        assert len(root_slices(stats)) > 1

    @pytest.mark.parametrize("transport", available_transports())
    def test_accel_predicate_twig_ships(self, document, transport,
                                        small_chunks):
        """Value predicates (unpicklable lambdas) are applied in the
        parent; the twig that ships carries the values they kept, pure
        data, so even the spawn transports run predicate twigs."""
        from repro.xml.twig import TwigNode, TwigQuery

        root = TwigNode("oa", tag="open_auction")
        bidder = root.descendant("bd", tag="bidder")
        bidder.child("inc", tag="increase",
                     predicate=lambda v: isinstance(v, int) and v > 25)
        bidder.child("pr", tag="personref",
                     predicate=lambda v: isinstance(v, int) and v < 10)
        twig = TwigQuery(root)
        serial = get_twig_algorithm("accel").run(document, twig)
        stats = JoinStats()
        parallel = executor(transport).run_twig(document, twig, "accel",
                                                stats=stats)
        assert parallel == serial, transport
        assert serial.rows and len(root_slices(stats)) > 1

    @pytest.mark.parametrize("workers", [0, 1, WORKERS])
    @pytest.mark.parametrize("pattern", TWIG_PATTERNS)
    def test_a_one_chunk_twig_is_the_serial_call(self, document, pattern,
                                                 workers):
        """``workers <= 1``, or root candidates that fit one chunk of the
        kernel: ``run_twig`` is ``matcher.run`` — no slices, no pool.
        The chunk is ``accel``'s unit of work, nobody else's: the other
        matchers slice the same posting."""
        twig = parse_twig(pattern)
        assert len(document.nodes(twig.root.tag)) <= accel.CHUNK
        for algorithm in ("accel", None):  # named, and the planner's pick
            stats, alone = JoinStats(), JoinStats()
            rows = ParallelExecutor(workers).run_twig(
                document, twig, algorithm, stats=stats)
            assert rows == get_twig_algorithm("accel").run(
                document, twig, stats=alone)
            assert rows == get_twig_algorithm("naive").run(document, twig)
            assert not root_slices(stats)
            assert [(record.label, record.size) for record in stats.stages] \
                == [(record.label, record.size) for record in alone.stages]
        stats = JoinStats()
        executor("serial", workers).run_twig(document, twig, "structural",
                                             stats=stats)
        assert bool(root_slices(stats)) == (workers > 1)
