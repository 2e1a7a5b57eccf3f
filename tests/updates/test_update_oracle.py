"""The differential update oracle.

Random interleaved update/query sequences over random multi-model
instances and XMark documents; after every update, the delta-maintained
state must be byte-identical to a rebuild-from-scratch oracle:

* ``QuerySession.answer()`` (the incrementally maintained result)
  against the naive join of a *cloned* instance — fresh relations,
  fresh documents, no shared caches;
* every registered :class:`JoinAlgorithm` evaluating the *live* query
  (through the installed delta-maintained caches) against the same
  oracle — the relational kernels only on twig-free queries: they
  reject twig-bearing instances by design;
* every registered :class:`TwigAlgorithm` matching on the *live*
  (spliced) document against the naive matcher on a cloned document.
"""

from __future__ import annotations

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.random_instances import random_multimodel_instance
from repro.engine.interface import available_algorithms
from repro.engine.planner import run_query
from repro.updates.session import QuerySession
from repro.xml.interface import available_twig_algorithms, \
    get_twig_algorithm
from repro.xml.navigation import match_relation
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_document

from harness import (
    UPDATE_SEED,
    clone_document,
    clone_query,
    random_session_op,
    seeded_rng,
)

RELATIONAL_KERNELS = ("generic_join", "leapfrog")


def assert_session_matches_oracle(session: QuerySession, context: str):
    """The full differential check after one update."""
    query = session.query
    oracle = clone_query(query).naive_join()
    note = f"{context} (REPRO_UPDATE_SEED={UPDATE_SEED})"

    maintained = session.answer()
    assert maintained.sorted_rows() == oracle.sorted_rows(), \
        f"maintained answer diverged at {note}"

    for name in available_algorithms():
        if name in RELATIONAL_KERNELS and query.twigs:
            continue  # kernels reject twig-bearing instances by design
        result = run_query(query, algorithm=name)
        assert result.sorted_rows() == oracle.sorted_rows(), \
            f"join algorithm {name!r} diverged at {note}"

    for binding in query.twigs:
        reference = match_relation(clone_document(binding.document),
                                   binding.twig)
        for name in available_twig_algorithms():
            algorithm = get_twig_algorithm(name)
            if not algorithm.supports(binding.twig):
                continue
            live = algorithm.run(binding.document, binding.twig)
            assert live.sorted_rows() == reference.sorted_rows(), \
                f"twig algorithm {name!r} diverged at {note}"


def test_random_instances_under_interleaved_updates():
    rng = seeded_rng("oracle")
    for trial in range(12):
        query = random_multimodel_instance(rng.randrange(10_000))
        session = QuerySession(query)
        for step in range(6):
            op, _ = random_session_op(rng, session, tags=["x", "y", "z"])
            assert_session_matches_oracle(
                session, f"trial={trial} step={step} op={op}")


def test_relation_only_session_under_updates():
    rng = seeded_rng("relations-only")
    instance = random_multimodel_instance(rng.randrange(10_000))
    query = MultiModelQuery(instance.relations, name="R-only")
    session = QuerySession(query)
    for step in range(12):
        op, _ = random_session_op(rng, session, tags=[])
        assert_session_matches_oracle(session, f"step={step} op={op}")


def test_xmark_document_under_updates():
    rng = seeded_rng("xmark")
    document = xmark_document(0.12, rng=rng)
    twig = parse_twig("p=person(/nm=name, //i=interest)")
    query = MultiModelQuery([], [TwigBinding(twig, document)], name="X")
    session = QuerySession(query)
    people = document.nodes("people")[0]
    inserted = []
    for step in range(4):
        person = random_subtree_person(rng, step)
        session.insert_subtree("X", people, person,
                               index=rng.randint(0, len(people.children)))
        inserted.append(person)
        assert_session_matches_oracle(session, f"xmark insert {step}")
    interests = document.nodes("interest")
    session.change_value("X", rng.choice(interests), "retuned")
    assert_session_matches_oracle(session, "xmark value change")
    for step, person in enumerate(inserted):
        session.delete_subtree("X", person)
        assert_session_matches_oracle(session, f"xmark delete {step}")


def random_subtree_person(rng, step: int):
    from repro.xml.model import XMLNode

    person = XMLNode("person", attributes={"id": f"oracle{step}"})
    person.add("name", text=f"oracle-person-{step}")
    for i in range(rng.randint(1, 2)):
        person.add("interest", text=f"category{rng.randint(0, 4)}")
    return person


def test_concurrent_readers_pin_staggered_snapshots():
    """The MVCC differential regime: K pinned snapshots at staggered
    versions, each held open while updates continue, each byte-identical
    to a rebuild-from-scratch clone captured at its pin point — through
    both the O(1) maintained answer and a full re-evaluation over the
    pinned inputs. Releases are staggered too, so retained artifacts are
    reclaimed at different watermarks while other pins stay live."""
    rng = seeded_rng("mvcc-readers")
    for trial in range(6):
        query = random_multimodel_instance(rng.randrange(10_000))
        session = QuerySession(query)
        readers = []  # (snapshot, frozen oracle rows at pin time)
        records = []  # every pinned document version
        for step in range(8):
            if step % 2 == 0:  # K=4 snapshots at versions 0,2,4,6
                oracle = clone_query(session.query).naive_join()
                readers.append((session.pin(), oracle.sorted_rows()))
                records.extend(readers[-1][0].documents.values())
            op, _ = random_session_op(rng, session, tags=["x", "y", "z"])
            note = (f"trial={trial} step={step} op={op} "
                    f"(REPRO_UPDATE_SEED={UPDATE_SEED})")
            for snapshot, frozen in readers:
                assert snapshot.answer().sorted_rows() == frozen, \
                    f"pinned answer diverged at {note}"
                assert snapshot.run().sorted_rows() == frozen, \
                    f"pinned re-evaluation diverged at {note}"
            # Stagger releases: drop the oldest reader every third step,
            # then keep updating with the remaining pins live.
            if step % 3 == 2 and readers:
                snapshot, frozen = readers.pop(0)
                assert snapshot.run().sorted_rows() == frozen, note
                snapshot.release()
        for snapshot, frozen in readers:
            assert snapshot.answer().sorted_rows() == frozen
            snapshot.release()
        assert session.mvcc.watermark() is None
        assert session.mvcc.active_count() == 0
        # Every clone went with its version's last pin.
        assert all(record.pins == 0 and record.clone is None
                   for record in records)
        # The live session itself is still oracle-consistent.
        assert_session_matches_oracle(
            session, f"mvcc trial={trial} post-release")


@pytest.mark.parametrize("seed", [UPDATE_SEED, 44444],
                         ids=["patch", "patch-seed44444"])
def test_accel_tracks_update_stream(seed):
    """Explicit accelerator enrollment in the update regimes.

    The accelerator's inputs *are* the maintained postings, so it
    inherits delta maintenance: after every edit its answer over the
    live columnar view must match a from-scratch clone — checked here
    directly on a value-predicate twig and on the same twig without
    predicates, whose edges and value codes are cached per view
    version. A splice drops them all; a value edit drops the edited
    tag's codes and keeps the rest, and every entry kept equals what a
    fresh view of a clone derives — on top of the full every-backend
    check of :func:`assert_session_matches_oracle`. A ``fan_out`` entry reads
    structure only, so a value edit keeps it like an edge. Seed 44444
    is pinned: it edits ``bidder`` values under kept ``fan_out``
    entries."""
    from repro.updates.delta import VALUE_CHANGE
    from repro.xml.accel import _edge_matches
    from repro.xml.columnar import TagPosting, columnar
    from repro.xml.twig import TwigNode, TwigQuery

    rng = seeded_rng("accel-10.0", seed)  # 44444 is pinned with this salt
    document = xmark_document(0.1, rng=rng)
    root = TwigNode("oa", tag="open_auction")
    bidder = root.descendant("bd", tag="bidder")
    bidder.child("inc", tag="increase",
                 predicate=lambda v: isinstance(v, int) and v > 20)
    bidder.child("pr", tag="personref",
                 predicate=lambda v: isinstance(v, int) and v < 30)
    twig = TwigQuery(root, name="A")
    plain = parse_twig("oa=open_auction(//bd=bidder(/inc=increase, "
                       "/pr=personref))")
    query = MultiModelQuery([], [TwigBinding(twig, document)], name="A")
    session = QuerySession(query)
    accel = get_twig_algorithm("accel")

    def cached(view):
        return {key: entry for key, entry in view.derived.items()
                if key[0] in ("edge", "tag_codes", "fan_out")}

    def comparable(key, entry):
        return (list(entry[0]), entry[1].values) \
            if key[0] == "tag_codes" else entry

    def derived_afresh(view, key):
        """The entry *key* as *view* derives it, computed here."""
        if key[0] == "tag_codes":
            return comparable(key, view.tag_codes(key[1]))
        if key[0] == "fan_out":
            return view.fan_out(*key[1:])
        _edge, upper, lower, axis = key
        return _edge_matches(view, TagPosting(*view.postings(upper)),
                             TagPosting(*view.postings(lower)), axis)

    accel.run(document, plain)
    for step in range(8):
        # Four code columns and the edges between whole postings (the
        # oa-bd one only while no bidder lacks a child).
        assert len(cached(columnar(document))) >= 4 + 2
        op, delta = random_session_op(
            rng, session, tags=["bidder", "increase", "personref"])
        note = f"accel step={step} op={op} (seed {seed})"
        view = columnar(document)
        kept = cached(view)
        if delta.kind == VALUE_CHANGE:
            edited = view.nodes[view.nid_index[delta.start]].tag
            assert not [key for key in view.derived
                        if isinstance(key, tuple)
                        and key[0] not in ("edge", "fan_out")
                        and key[1] == edited], \
                f"an entry of the edited tag survived {note}"
        else:
            assert not kept, f"edges or codes survived a splice {note}"
        clone = clone_document(document)
        fresh = columnar(clone)
        for key, entry in kept.items():
            assert comparable(key, entry) == derived_afresh(fresh, key), \
                f"a kept {key[0]} entry went stale at {note}"
        for pattern in (twig, plain):
            reference = match_relation(clone, pattern)
            live = accel.run(document, pattern)
            assert live.sorted_rows() == reference.sorted_rows(), \
                f"accel diverged from the from-scratch clone at {note}"
        assert_session_matches_oracle(session, note)


def test_two_twigs_sharing_one_document():
    """One edit must refresh every twig bound to the same tree."""
    rng = seeded_rng("shared-doc")
    instance = random_multimodel_instance(rng.randrange(10_000))
    binding = instance.twigs[0]
    from repro.data.random_instances import random_twig

    from repro.xml.twig import TwigQuery

    second = TwigQuery(random_twig(rng, ["x", "y", "z"], prefix="u").root,
                       name="U")
    query = MultiModelQuery(
        instance.relations,
        [binding, TwigBinding(second, binding.document)],
        name="shared")
    session = QuerySession(query)
    for step in range(6):
        op, _ = random_session_op(rng, session, tags=["x", "y", "z"])
        assert_session_matches_oracle(session, f"shared step={step} op={op}")
