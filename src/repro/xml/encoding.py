"""Region encoding (start, end, level) for XML nodes.

The classic containment labelling used by structural joins (Al-Khalifa et
al. 2002): each node gets a ``start`` on entry and an ``end`` after its
subtree, so

* ``a`` is an **ancestor** of ``d``  iff  ``a.start < d.start`` and
  ``d.end < a.end``;
* ``a`` is the **parent** of ``d``  iff  additionally
  ``d.level == a.level + 1``;
* document order is ``start`` order.

All predicates here are pure functions of the labels, so they also work on
any object exposing ``start``/``end``/``level``.
"""

from __future__ import annotations

from repro.xml.model import XMLNode


def annotate_regions(root: XMLNode, *, start: int = 0,
                     level: int = 0) -> XMLNode:
    """Assign ``start``/``end``/``level`` to every node of the subtree.

    The subtree's labels run from *start* and its root sits at *level*:
    the defaults label a whole document, and the update layer labels an
    inserted subtree in place inside its parent's label range.
    Iterative DFS so pathological deep documents do not hit the Python
    recursion limit. Returns *root* for chaining.
    """
    counter = start
    # Stack of (node, level, child_index); child_index tracks progress.
    stack: list[tuple[XMLNode, int, int]] = [(root, level, 0)]
    while stack:
        node, level, child_index = stack.pop()
        if child_index == 0:
            node.start = counter
            node.level = level
            counter += 1
        if child_index < len(node.children):
            stack.append((node, level, child_index + 1))
            stack.append((node.children[child_index], level + 1, 0))
        else:
            node.end = counter
            counter += 1
    return root


def is_ancestor(ancestor: XMLNode, descendant: XMLNode) -> bool:
    """True iff *ancestor* properly contains *descendant* (A-D axis)."""
    return (ancestor.start < descendant.start
            and descendant.end < ancestor.end)


def is_parent(parent: XMLNode, child: XMLNode) -> bool:
    """True iff *child* is a direct child of *parent* (P-C axis)."""
    return is_ancestor(parent, child) and child.level == parent.level + 1
