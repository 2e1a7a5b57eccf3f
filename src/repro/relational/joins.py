"""The binary hash join.

It is the building block of the *baseline* evaluator (the paper's Q1:
a tree of binary joins over the relational tables). It records the size
of every produced intermediate in a :class:`~repro.instrumentation.JoinStats`
so benchmarks can compare against XJoin's intermediates.
"""

from __future__ import annotations

from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.schema import Schema, Value


def hash_join(left: Relation, right: Relation, *,
              name: str | None = None,
              stats: JoinStats | None = None) -> Relation:
    """Natural hash join; builds on the smaller input.

    With no shared attributes this degrades to a counted cartesian product,
    which is exactly the behaviour the baseline needs for Q1 ⋈ Q2 when the
    sub-queries share nothing.
    """
    stats = ensure_stats(stats)
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    shared = build.schema.common(probe.schema)
    build_pos = build.schema.positions(shared)
    probe_pos = probe.schema.positions(shared)

    index: dict[tuple[Value, ...], list[tuple[Value, ...]]] = {}
    for row in build.rows:
        index.setdefault(tuple(row[p] for p in build_pos), []).append(row)

    extra = tuple(a for a in build.schema if a not in probe.schema)
    extra_pos = build.schema.positions(extra)
    out_schema = Schema(probe.schema.attributes + extra)

    out_rows = []
    for row in probe.rows:
        key = tuple(row[p] for p in probe_pos)
        stats.count_seeks()
        for match in index.get(key, ()):
            out_rows.append(row + tuple(match[p] for p in extra_pos))
            stats.count_emitted()

    result = Relation(name or f"({left.name}⋈{right.name})", out_schema, out_rows)
    # Reorder columns so the left input's attributes come first regardless
    # of which side was chosen as build; callers rely on a deterministic
    # output schema.
    target = tuple(left.schema.attributes) + tuple(
        a for a in right.schema if a not in left.schema)
    if result.schema.attributes != target:
        result = result.project(target, name=result.name)
    stats.record_stage(result.name, len(result))
    return result

