"""Tests for the exact simplex solver, cross-checked against scipy."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.core.lp import minimise_lp, solve_lp
from repro.errors import LPError


class TestSolveLP:
    def test_simple_maximisation(self):
        # max x+y s.t. x<=2, y<=3
        solution = solve_lp([1, 1], [[1, 0], [0, 1]], [2, 3])
        assert solution.objective == 5
        assert solution.x == (2, 3)

    def test_shared_constraint(self):
        # max x+y s.t. x+y<=1 -> 1
        solution = solve_lp([1, 1], [[1, 1]], [1])
        assert solution.objective == 1

    def test_fractional_optimum_is_exact(self):
        # max x+y+z s.t. x+y<=1, y+z<=1, x+z<=1 -> 3/2 (triangle packing)
        solution = solve_lp([1, 1, 1],
                            [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 1])
        assert solution.objective == Fraction(3, 2)
        assert all(value == Fraction(1, 2) for value in solution.x)

    def test_unbounded_raises(self):
        with pytest.raises(LPError, match="unbounded"):
            solve_lp([1], [[-1]], [0])

    def test_infeasible_raises(self):
        # x <= -1 with x >= 0 is infeasible.
        with pytest.raises(LPError, match="infeasible"):
            solve_lp([1], [[1], [-1]], [-2, 1])

    def test_negative_rhs_feasible(self):
        # x >= 2 (as -x <= -2), x <= 5, max x -> 5
        solution = solve_lp([1], [[-1], [1]], [-2, 5])
        assert solution.objective == 5

    def test_degenerate_zero_objective(self):
        solution = solve_lp([0, 0], [[1, 1]], [1])
        assert solution.objective == 0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LPError):
            solve_lp([1, 1], [[1]], [1])
        with pytest.raises(LPError):
            solve_lp([1], [[1]], [1, 2])


class TestMinimiseLP:
    def test_simple_cover(self):
        # min x+y s.t. x>=1, y>=2 -> 3
        solution = minimise_lp([1, 1], [[1, 0], [0, 1]], [1, 2])
        assert solution.objective == 3

    def test_triangle_cover(self):
        # min wR+wS+wT covering a,b,c pairwise -> 3/2
        solution = minimise_lp(
            [1, 1, 1], [[1, 0, 1], [1, 1, 0], [0, 1, 1]], [1, 1, 1])
        assert solution.objective == Fraction(3, 2)

    def test_weighted_cover_prefers_cheap_edge(self):
        # Cover {a}: edges E1 (cost 5) and E2 (cost 1) both cover a.
        solution = minimise_lp([5, 1], [[1, 1]], [1])
        assert solution.objective == 1
        assert solution.x == (0, 1)


@st.composite
def random_lp(draw):
    """Small random LPs with bounded feasible region (x_i <= cap)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    c = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    rows = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=m, max_size=m))
    b = draw(st.lists(st.integers(0, 10), min_size=m, max_size=m))
    return c, rows, b


@settings(max_examples=60, deadline=None)
@given(random_lp())
def test_matches_scipy_on_random_bounded_lps(problem):
    c, rows, b = problem
    n = len(c)
    # Add x_i <= 6 caps so the LP is always bounded and feasible (b >= 0).
    a_ub = rows + [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    b_ub = b + [6] * n
    ours = solve_lp(c, a_ub, b_ub)
    ref = linprog(c=[-v for v in c], A_ub=np.array(a_ub, dtype=float),
                  b_ub=np.array(b_ub, dtype=float), bounds=[(0, None)] * n,
                  method="highs")
    assert ref.success
    assert float(ours.objective) == pytest.approx(-ref.fun, abs=1e-7)
    # Our solution must itself be feasible.
    for row, bound in zip(a_ub, b_ub):
        assert sum(Fraction(a) * x for a, x in zip(row, ours.x)) <= bound
    assert all(x >= 0 for x in ours.x)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_lp_duality_on_random_covers(k, data):
    """Strong duality: random cover LP optimum == its packing dual."""
    edges = data.draw(st.lists(
        st.sets(st.integers(0, k - 1), min_size=1, max_size=k),
        min_size=1, max_size=5))
    vertices = sorted(set().union(*edges))
    # primal: min sum w_e s.t. each vertex covered
    a_lb = [[1 if v in e else 0 for e in edges] for v in vertices]
    primal = minimise_lp([1] * len(edges), a_lb, [1] * len(vertices))
    # dual: max sum y_v s.t. per edge sum <= 1
    a_ub = [[1 if v in e else 0 for v in vertices] for e in edges]
    dual = solve_lp([1] * len(vertices), a_ub, [1] * len(edges))
    assert primal.objective == dual.objective
