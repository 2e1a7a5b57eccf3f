"""An exact two-phase simplex solver over :class:`fractions.Fraction`.

The paper's size bounds are fractional edge covers (Example 3.3's query
bound is exactly n^{7/2}). Solving the LP in exact rational arithmetic
makes those exponents testable with ``==`` instead of float tolerances.
The LPs involved are tiny (one variable per relation or attribute), so a
dense tableau simplex with Bland's anti-cycling rule is entirely adequate.

Public entry point: :func:`solve_lp`, which maximises ``c·x`` subject to
``A x <= b`` and ``x >= 0`` (pass negated rows for >= constraints and a
negated objective to minimise). scipy's ``linprog`` is used in the test
suite as an independent cross-check, never in the library itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import LPError

_Number = int | float | Fraction


def _fraction(value: _Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    # Floats convert exactly (binary expansion); callers wanting nicer
    # rationals should pre-round with Fraction(x).limit_denominator().
    return Fraction(value)


@dataclass(frozen=True)
class LPSolution:
    """An optimal solution of :func:`solve_lp`."""

    objective: Fraction
    x: tuple[Fraction, ...]


class _Tableau:
    """Dense simplex tableau: rows of constraints plus an objective row."""

    def __init__(self, rows: list[list[Fraction]], objective: list[Fraction],
                 basis: list[int]):
        self.rows = rows
        self.objective = objective  # reduced-cost row, last entry = value
        self.basis = basis

    def pivot(self, row: int, col: int) -> None:
        pivot_value = self.rows[row][col]
        self.rows[row] = [entry / pivot_value for entry in self.rows[row]]
        for other in range(len(self.rows)):
            if other != row and self.rows[other][col]:
                factor = self.rows[other][col]
                self.rows[other] = [
                    a - factor * b
                    for a, b in zip(self.rows[other], self.rows[row])]
        if self.objective[col]:
            factor = self.objective[col]
            self.objective = [
                a - factor * b
                for a, b in zip(self.objective, self.rows[row])]
        self.basis[row] = col

    def optimise(self, num_columns: int) -> None:
        """Run primal simplex (maximisation) with Bland's rule."""
        iterations = 0
        limit = 10_000
        while True:
            iterations += 1
            if iterations > limit:
                raise LPError("simplex did not converge (cycling?)")
            entering = next(
                (col for col in range(num_columns)
                 if self.objective[col] > 0), None)
            if entering is None:
                return
            best_row = None
            best_ratio: Fraction | None = None
            for row_index, row in enumerate(self.rows):
                if row[entering] > 0:
                    ratio = row[-1] / row[entering]
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio
                                and self.basis[row_index]
                                < self.basis[best_row])):  # Bland tiebreak
                        best_ratio = ratio
                        best_row = row_index
            if best_row is None:
                raise LPError("linear program is unbounded")
            self.pivot(best_row, entering)


def solve_lp(c: Sequence[_Number], a_ub: Sequence[Sequence[_Number]],
             b_ub: Sequence[_Number]) -> LPSolution:
    """Maximise ``c·x`` subject to ``a_ub x <= b_ub``, ``x >= 0``.

    Exact rational arithmetic throughout. Raises :class:`LPError` when the
    program is infeasible or unbounded.
    """
    num_vars = len(c)
    rows_in = [[_fraction(v) for v in row] for row in a_ub]
    rhs = [_fraction(v) for v in b_ub]
    if any(len(row) != num_vars for row in rows_in):
        raise LPError("constraint matrix width does not match objective")
    if len(rows_in) != len(rhs):
        raise LPError("constraint matrix height does not match rhs")

    num_rows = len(rows_in)
    num_slack = num_rows
    artificial_cols: list[int] = []

    # Layout: [x (num_vars) | slack (num_rows) | artificial (as needed) | rhs]
    tableau_rows: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(num_rows):
        row = list(rows_in[i])
        slack = [Fraction(0)] * num_slack
        b = rhs[i]
        if b >= 0:
            slack[i] = Fraction(1)
            tableau_rows.append(row + slack + [b])
            basis.append(num_vars + i)
        else:
            # Multiply by -1: -Ax - s = -b, then add an artificial basic.
            row = [-v for v in row]
            slack[i] = Fraction(-1)
            tableau_rows.append(row + slack + [-b])
            basis.append(-1)  # placeholder, artificial assigned below
            artificial_cols.append(i)

    num_art = len(artificial_cols)
    total_cols = num_vars + num_slack + num_art
    art_base = num_vars + num_slack
    for art_index, row_index in enumerate(artificial_cols):
        for j, row in enumerate(tableau_rows):
            row.insert(art_base + art_index,
                       Fraction(1) if j == row_index else Fraction(0))
        basis[row_index] = art_base + art_index

    if num_art:
        # Phase 1: maximise -(sum of artificials).
        phase1 = [Fraction(0)] * (total_cols + 1)
        for art_index in range(num_art):
            phase1[art_base + art_index] = Fraction(-1)
        # Price out the basic artificials.
        for row_index in artificial_cols:
            row = tableau_rows[row_index]
            phase1 = [a + b for a, b in zip(phase1, row)]
        tableau = _Tableau(tableau_rows, phase1, basis)
        tableau.optimise(total_cols)
        if tableau.objective[-1] != 0:
            raise LPError("linear program is infeasible")
        # Drive any artificial still basic (at zero) out of the basis.
        for row_index, basic in enumerate(tableau.basis):
            if basic >= art_base:
                pivot_col = next(
                    (col for col in range(art_base)
                     if tableau.rows[row_index][col] != 0), None)
                if pivot_col is not None:
                    tableau.pivot(row_index, pivot_col)
        tableau_rows = tableau.rows
        basis = tableau.basis

    # Phase 2 objective (zero out artificial columns so they never enter).
    objective = ([_fraction(v) for v in c]
                 + [Fraction(0)] * (num_slack + num_art) + [Fraction(0)])
    tableau = _Tableau(tableau_rows, objective, basis)
    # Price out basic variables with nonzero reduced cost.
    for row_index, basic in enumerate(tableau.basis):
        if basic < len(objective) - 1 and tableau.objective[basic] != 0:
            factor = tableau.objective[basic]
            tableau.objective = [
                a - factor * b
                for a, b in zip(tableau.objective, tableau.rows[row_index])]
    tableau.optimise(num_vars + num_slack)  # artificials never re-enter

    values = [Fraction(0)] * num_vars
    for row_index, basic in enumerate(tableau.basis):
        if basic < num_vars:
            values[basic] = tableau.rows[row_index][-1]
    return LPSolution(objective=-tableau.objective[-1], x=tuple(values))


def minimise_lp(c: Sequence[_Number], a_lb: Sequence[Sequence[_Number]],
                b_lb: Sequence[_Number]) -> LPSolution:
    """Minimise ``c·x`` subject to ``a_lb x >= b_lb``, ``x >= 0``.

    Implemented as ``maximise -c`` with negated constraints; the returned
    objective is the (positive) minimum.
    """
    negated_c = [-_fraction(v) for v in c]
    negated_a = [[-_fraction(v) for v in row] for row in a_lb]
    negated_b = [-_fraction(v) for v in b_lb]
    solution = solve_lp(negated_c, negated_a, negated_b)
    return LPSolution(objective=-solution.objective, x=solution.x)
