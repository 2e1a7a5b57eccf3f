"""The baseline multi-model join (Example 3.4, left side of Figure 3).

The traditional way to answer a cross-model query: evaluate the relational
sub-query Q1 and the twig sub-query Q2 *independently*, each with its own
engine, then join the two result sets. Each sub-query is evaluated
optimally for its own model — binary join plans for Q1, a standalone
twig matcher for Q2 (the planner's pick, see
:func:`repro.engine.planner.choose_twig_algorithm`) —
but the combination is not worst-case optimal for the whole query: Q2 can
be as large as its own bound (n^5 in the running example) even when the
combined query's bound is much smaller (n^2).

All intermediate results (every binary-join output, every twig path
solution and embedding, and the final combination steps) are recorded in
the shared :class:`~repro.instrumentation.JoinStats`, which is what
Figure 3 compares against XJoin.

The baseline is not a registered
:class:`~repro.engine.interface.JoinAlgorithm`: it never executes on the
encoded tries — being the unencoded dual-engine stack is what makes it
the paper's foil — so nothing plans it. It is called directly, as the
foil (``repro figure3``, the benchmark) and as the tests' oracle.
"""

from __future__ import annotations

from repro.core.multimodel import MultiModelQuery
from repro.errors import TwigError
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.joins import hash_join
from repro.relational.plans import execute_plan, greedy_plan
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.xml.interface import get_twig_algorithm


def relational_subquery(query: MultiModelQuery, *,
                        stats: JoinStats | None = None) -> Relation:
    """Q1: join of the relational tables only, in the greedy binary plan."""
    stats = ensure_stats(stats)
    if not query.relations:
        return Relation("Q1", Schema(()), [()])
    relations = {r.name: r for r in query.relations}
    return execute_plan(greedy_plan(relations), relations,
                        stats=stats).with_name("Q1")


def twig_subquery(query: MultiModelQuery, *,
                  twig_algorithm: str | None = None,
                  stats: JoinStats | None = None) -> Relation:
    """Q2: join of the per-twig answers.

    Each twig is evaluated by the matcher the engine planner picks
    (:func:`repro.engine.planner.choose_twig_algorithm`), or by
    *twig_algorithm* when the caller forces one (the CLI's
    ``--twig-algorithm`` A/B override).
    """
    stats = ensure_stats(stats)
    if not query.twigs:
        return Relation("Q2", Schema(()), [()])
    # Imported lazily: the planner module imports nothing from core at
    # module level, but keep the boundary one-directional regardless.
    from repro.engine.planner import choose_twig_algorithm

    result: Relation | None = None
    for binding in query.twigs:
        name = twig_algorithm or choose_twig_algorithm(binding.document,
                                                       binding.twig)
        matcher = get_twig_algorithm(name)
        if not matcher.supports(binding.twig):
            raise TwigError(
                f"twig algorithm {name!r} cannot evaluate twig "
                f"{binding.name!r} ('pathstack' handles linear paths "
                f"only)")
        answer = matcher.run(binding.document, binding.twig, stats=stats)
        stats.record_stage(f"twig answer {binding.name}", len(answer))
        if result is None:
            result = answer
        else:
            result = hash_join(result, answer, stats=stats)
    assert result is not None
    return result.with_name("Q2")


def baseline_join(query: MultiModelQuery, *,
                  twig_algorithm: str | None = None,
                  stats: JoinStats | None = None) -> Relation:
    """The full baseline: Q1 ⋈ Q2 (Example 3.4's "not optimal" plan)."""
    stats = ensure_stats(stats)
    stats.start_timer()
    q1 = relational_subquery(query, stats=stats)
    q2 = twig_subquery(query, twig_algorithm=twig_algorithm, stats=stats)
    if q1.schema.arity == 0:
        combined = q2 if len(q1) else Relation("Q", q2.schema)
    elif q2.schema.arity == 0:
        combined = q1 if len(q2) else Relation("Q", q1.schema)
    else:
        combined = hash_join(q1, q2, stats=stats)
    stats.stop_timer()
    return combined.project(query.attributes, name=query.name)
