"""The paper's synthetic workloads (Examples 3.3/3.4, Figure 3).

The construction follows the examples exactly: every twig tag has n nodes
and every (path) relation n tuples. The document is shaped so that the
twig-only sub-query Q2 has n^5 matches — its own worst case — while
diagonal relational tables keep the combined query's result (and bound)
tiny. This is the family on which the baseline pays the n^5 intermediate
and XJoin does not (Figure 3).

Document layout (tags of Figure 2's twig ``A(/B, /D, //C(/E), //F(/H), //G)``)::

    A (one root node, value 0)
    ├── B×n   (values 0..n-1)            -> path relation X[A/B], n tuples
    ├── D×n   (values 0..n-1)            -> path relation X[A/D], n tuples
    ├── C×n   (value i, one E child i)   -> path relation X[C/E], n tuples
    ├── F×n   (value j, one H child j)   -> path relation X[F/H], n tuples
    └── G×n   (values 0..n-1)            -> path relation X[G],   n tuples

Twig matches: 1 · n(B) · n(D) · n(C,E) · n(F,H) · n(G) = n^5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import TwigQuery
from repro.xml.twig_parser import parse_twig

#: Figure 2's twig pattern; its decomposition is R3(A,B), R4(A,D),
#: R5(C,E), R6(F,H), R7(G) — the paper's exact output.
FIGURE2_PATTERN = "A(/B, /D, //C(/E), //F(/H), //G)"


def figure2_twig(name: str = "X") -> TwigQuery:
    """The twig of Figure 2 / Examples 3.3 and 3.4."""
    return parse_twig(FIGURE2_PATTERN, name=name)


def worst_case_document(n: int) -> XMLDocument:
    """The adversarial document described in the module docstring."""
    root = XMLNode("A", text="0")
    for i in range(n):
        root.add("B", text=str(i))
    for i in range(n):
        root.add("D", text=str(i))
    for i in range(n):
        c = root.add("C", text=str(i))
        c.add("E", text=str(i))
    for j in range(n):
        f = root.add("F", text=str(j))
        f.add("H", text=str(j))
    for k in range(n):
        root.add("G", text=str(k))
    return XMLDocument(root)


def example33_relations(n: int) -> list[Relation]:
    """Example 3.3's tables: R1(B,D) and R2(F,G,H), n tuples each.

    Diagonal contents keep each |Ri| = n, the shape the example's
    symbolic analysis assumes.
    """
    r1 = Relation("R1", ("B", "D"), [(i, i) for i in range(n)])
    r2 = Relation("R2", ("F", "G", "H"), [(i, i, i) for i in range(n)])
    return [r1, r2]


def example34_relations(n: int) -> list[Relation]:
    """Example 3.4's tables: R1(A,B,C,D) and R2(E,F,G,H), n tuples each.

    The diagonals correlate the twig's branches, so the combined result
    has exactly n tuples while Q2 alone has n^5.
    """
    r1 = Relation("R1", ("A", "B", "C", "D"),
                  [(0, i, i, i) for i in range(n)])
    r2 = Relation("R2", ("E", "F", "G", "H"),
                  [(i, i, i, i) for i in range(n)])
    return [r1, r2]


@dataclass(frozen=True)
class WorstCaseInstance:
    """A fully assembled adversarial instance."""

    n: int
    query: MultiModelQuery
    document: XMLDocument
    twig: TwigQuery

    @property
    def expected_result_size(self) -> int:
        return self.n


def example34_instance(n: int, *, name: str = "Q") -> WorstCaseInstance:
    """The Figure 3 workload: Example 3.4's query at scale *n*."""
    document = worst_case_document(n)
    twig = figure2_twig()
    query = MultiModelQuery(example34_relations(n),
                            [TwigBinding(twig, document)], name=name)
    return WorstCaseInstance(n=n, query=query, document=document, twig=twig)


def example33_instance(n: int, *, name: str = "Q") -> WorstCaseInstance:
    """Example 3.3's query (R1(B,D), R2(F,G,H) + the twig) at scale *n*."""
    document = worst_case_document(n)
    twig = figure2_twig()
    query = MultiModelQuery(example33_relations(n),
                            [TwigBinding(twig, document)], name=name)
    return WorstCaseInstance(n=n, query=query, document=document, twig=twig)


def skewed_triangle(n: int, *, b_domain: int | None = None,
                    c_domain: int | None = None) -> list[Relation]:
    """A triangle instance whose *static* stats pick a provably bad order.

    R(a,b) = {(i, hash(i))} maps each of n ``a``-values onto a tiny
    ``b``-domain of d values, S(b,c) is the complete d x m grid, and
    T(a,c) = {(i, i mod m)} gives every ``a`` exactly one ``c``. Domain
    estimates (a: n, b: d, c: m) make the static planner expand the
    small skewed domains first — order (b, c, a) — which keeps d*m
    prefix tuples alive and probes ~d*m*(n/m) candidates at the ``a``
    level. Orders starting from ``a`` exploit the functional
    dependencies (one b per a via R, one c per a via T) and touch ~n
    tuples total. The adaptive planner's bound model and plan racer
    both discover this; the static policy cannot
    (``tests/engine/test_adaptive.py``).

    Defaults: d = m = max(16, n // 64) — square domains maximise the
    bad order's live-pair count (d*m) relative to |S| = d*m rows of
    encode work, keeping the gap (and hence the static planner's
    mistake) measurable across scales. The join result has exactly n
    rows.
    """
    d = b_domain if b_domain is not None else max(16, n // 64)
    m = c_domain if c_domain is not None else max(16, n // 64)
    r = Relation("R", ("a", "b"), [(i, (i * 7 + 3) % d) for i in range(n)])
    s = Relation("S", ("b", "c"),
                 [(b, c) for b in range(d) for c in range(m)])
    t = Relation("T", ("a", "c"), [(i, i % m) for i in range(n)])
    return [r, s, t]


def agm_tight_triangle(n: int) -> list[Relation]:
    """The classic skewed triangle instance where binary plans blow up.

    R(a,b), S(b,c), T(a,c), each {0}×[n] ∪ [n]×{0} (2n-1 tuples): the
    triangle join has 3n-2 result tuples, but any binary plan (e.g.
    R ⋈ S first) materialises a Θ(n^2) intermediate, while WCOJ stages
    stay linear in n (``tests/engine/test_cross_engine.py``).
    """
    star = [(0, i) for i in range(n)] + [(i, 0) for i in range(n)]
    r = Relation("R", ("a", "b"), star)
    s = Relation("S", ("b", "c"), star)
    t = Relation("T", ("a", "c"), star)
    return [r, s, t]
