"""Twig structure validation for XJoin, pushed into the join.

The value-level join over decomposed path relations is a *relaxation* of
the twig semantics: it enforces each root-leaf P-C chain but not that
all chains share their branching nodes. (The cut A-D edges are joined
as pair inputs, see :mod:`repro.core.decomposition`, so they are already
enforced *pairwise*.) Algorithm 1 therefore filters by "validating
structure of Sx": a candidate value tuple must admit an actual
embedding of the whole twig with exactly those values.

Three things keep that filter off the hot path:

* it runs **early** — at the expansion level that binds the twig's last
  attribute (:func:`validation_points`), not once per finished tuple;
* it is **memoised on the twig's code projection** — an int tuple the
  kernel zips from its frontier's columns and asks about once per
  distinct value, so a repeated projection costs one dict probe at most
  and nothing is decoded;
* it is **skipped** when :func:`join_implies_embedding` proves from the
  decomposition that every tuple the join produces already embeds.

The search itself (:meth:`StructureValidator.embeds`) reads the columnar
int arrays and the per-tag value index cached on the view; it never
touches a node object.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core import multimodel
from repro.core.surrogate import NodeSurrogate
from repro.relational.schema import Value
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.model import XMLDocument
from repro.xml.twig import Axis, TwigQuery

if TYPE_CHECKING:
    from repro.core.decomposition import TwigDecomposition
    from repro.core.multimodel import MultiModelQuery


class StructureValidator:
    """Memoised "does an embedding with these join values exist?" oracle.

    Values (and the codes of :meth:`admits`) are aligned with the twig's
    pre-order attributes. ``tables`` are the per-attribute decode tables
    of the instance the validator serves (code -> value).
    """

    def __init__(self, document: XMLDocument, twig: TwigQuery,
                 tables: Sequence[Sequence[Value]] = ()):
        view = columnar(document)
        nodes = twig.nodes()  # pre-order: parents first
        position = {q.name: k for k, q in enumerate(nodes)}
        self._view = view
        self._tables = tuple(tables)
        self._memo: dict[tuple[int, ...], bool] = {}
        self._tids = [view.tag_index.get(q.tag, -1) for q in nodes]
        self._by_value = [view.value_index(q.tag) for q in nodes]
        self._up = [-1 if q.parent is None else position[q.parent.name]
                    for q in nodes]
        self._down = [[position[c.name] for c in q.children] for q in nodes]
        self._pc = [q.axis is Axis.CHILD for q in nodes]
        self._predicated = [(k, q) for k, q in enumerate(nodes)
                            if q.predicate is not None]

    def admits(self, codes: tuple[int, ...]) -> bool:
        """:meth:`embeds` of the decoded *codes*, memoised on the codes."""
        verdict = self._memo.get(codes)
        if verdict is None:
            verdict = self._memo[codes] = self.embeds(
                [table[code] for table, code in zip(self._tables, codes)])
        return verdict

    def embeds(self, values: Sequence[Value]) -> bool:
        """True iff the twig embeds with node join values *values*.

        The search is anchored at the query node whose value has the
        fewest candidate nodes and grows from there: downwards each
        child sub-twig needs *some* image inside its parent's region (a
        bisect into the value's sorted node ids plus a short run —
        sibling sub-twigs are independent, so nothing backtracks across
        them), upwards the parent image is the node's parent (P-C) or
        one of its ancestors (A-D).

        The anchor and the bisect keep a check independent of how many
        nodes share a value (a root-first search walks every same-valued
        root, a scan every same-valued leaf).
        """
        for k, q in self._predicated:
            value = values[k]
            if not q.matches_value(
                    None if isinstance(value, NodeSurrogate) else value):
                return False
        view = self._view
        starts, ends, parents = view.starts, view.ends, view.parents
        up, down, pc = self._up, self._down, self._pc

        images: list[Sequence[int]] = []  # per query node, ascending nids
        for k, required in enumerate(values):
            if isinstance(required, NodeSurrogate):
                nid = view.nid_index.get(required.start)
                found = (() if nid is None
                         or view.tag_ids[nid] != self._tids[k] else (nid,))
            else:
                found = self._by_value[k].get(required, ())
            if not found:
                return False
            images.append(found)

        def below(k: int, upper: int):
            """Images of query node *k* inside *upper*'s region."""
            nids = images[k]
            limit = ends[upper]
            for i in range(bisect_right(nids, upper), len(nids)):
                nid = nids[i]
                if starts[nid] > limit:
                    return
                if not pc[k] or parents[nid] == upper:
                    yield nid

        def above(k: int, nid: int):
            """Images of *k*'s parent query node over node *nid*."""
            nids = images[up[k]]
            upper = parents[nid]
            while upper >= 0:
                i = bisect_left(nids, upper)
                if i < len(nids) and nids[i] == upper:
                    yield upper
                if pc[k]:
                    return
                upper = parents[upper]

        def supported(k: int, nid: int, skip: int = -1) -> bool:
            """Do *k*'s child sub-twigs (but *skip*) embed under *nid*?"""
            return all(any(supported(c, image) for image in below(c, nid))
                       for c in down[k] if c != skip)

        def lifts(k: int, nid: int) -> bool:
            """Does the twig outside *k*'s sub-twig embed around *nid*?"""
            return up[k] < 0 or any(
                supported(up[k], upper, skip=k) and lifts(up[k], upper)
                for upper in above(k, nid))

        anchor = min(range(len(images)), key=lambda k: len(images[k]))
        return any(supported(anchor, nid) and lifts(anchor, nid)
                   for nid in images[anchor])

    @property
    def cache_size(self) -> int:
        """How many distinct code projections have been decided."""
        return len(self._memo)


def _identifies_nodes(view: ColumnarDocument, tag: str,
                      structural: bool) -> bool:
    """Do distinct *tag* nodes always carry distinct join values? Read
    off the counts of ``view.tag_dictionary(tag)``: each real value is
    on one node, and the valueless are one value (``None``) held at
    most once — unless a structural attribute binds each of them by
    identity (:class:`NodeSurrogate`)."""
    values, codes, valueless = view.tag_dictionary(tag)
    return len(values) == len(codes) - valueless \
        and (structural or valueless <= 1)


def join_implies_embedding(document: XMLDocument,
                           decomposition: "TwigDecomposition",
                           structural: frozenset[str]) -> bool:
    """The static skip test: does every tuple of the value join embed?

    Each path or pair row is witnessed by real nodes that satisfy that
    input's own edges, tags and predicates, and every twig edge lies
    inside one input. The witnesses glue into one embedding as soon as
    they agree on the node of every attribute they share — which holds
    when each attribute bound by two or more inputs is *identity-bound*:
    its join value names exactly one node (a surrogate, or a value no
    other node of the tag carries). Unary inputs are ignored: they bind
    no edge, and the attribute's witness in any wider input already has
    the right tag and predicate.

    ``article(/year, /journal)`` passes (``article`` is surrogate-
    bound); ``a(/b, /c)`` with two ``a`` nodes of equal value does not.
    """
    view = columnar(document)
    twig = decomposition.twig
    return all(_identifies_nodes(view, twig.node(name).tag,
                                 name in structural)
               for name in decomposition.shared)


def validation_points(query: "MultiModelQuery", order: Sequence[str]
                      ) -> dict[str, str | None]:
    """Per twig input, the attribute at whose expansion level XJoin
    validates the twig's structure — the last of the twig's attributes
    in *order* — or None when the check is skipped because the join
    already implies an embedding (:func:`join_implies_embedding`)."""
    level = {attribute: index for index, attribute in enumerate(order)}
    points: dict[str, str | None] = {}
    for binding in query.twigs:
        if join_implies_embedding(binding.document,
                                  multimodel._decomposition(binding.twig),
                                  query.structural_attributes(binding)):
            points[binding.name] = None
        else:
            points[binding.name] = max(binding.twig.attributes,
                                       key=level.__getitem__)
    return points


def tested_attribute(query: "MultiModelQuery", order: Sequence[str],
                     validated_at: "dict[str, str | None]") -> "str | None":
    """The last attribute of *order* when XJoin *tests* it instead of
    enumerating it, else None: it is existential
    (:meth:`ColumnarDocument.is_existential`, read afresh — a stale
    verdict would be wrong rows) and no structure check waits on its
    code (*validated_at* of its twig is None), so its level is a
    semi-join. Anywhere else, or under a check, it is enumerated."""
    last = order[-1] if order else None
    for binding in query.twigs:
        if validated_at.get(binding.name) is None and any(
                node.name == last
                and columnar(binding.document).is_existential(node, True)
                and last in query.structural_attributes(binding)
                for node in binding.twig.nodes()):
            return last
    return None
