"""Berglund-Huebsch combinatorics for invertible polynomials.

An invertible polynomial is a sum of Fermat, chain and loop polynomials in
disjoint variables, which are the non-degenerate invertible polynomials
(Kreuzer-Skarke); its transpose is the polynomial with the transposed
exponent matrix.  The group of diagonal symmetries is handled exactly as
rational phase vectors modulo 1 (an element diag(e^{2 pi i a_1}, ...) is
stored as (a_1, ..., a_n)), with a minimal generating set extracted from
the Smith normal form of the exponent matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .algebra import SSeries, mono_key, mono_str


def smith_normal_form(matrix: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diagonal, v_inv) where writing the input as U * D * V with
    U, V unimodular, `diagonal` holds the nonnegative invariant factors of D
    (each dividing the next) and `v_inv` is the matrix V^(-1).  Only V^(-1)
    is tracked; it is what the symmetry-group construction needs.
    """
    a = [list(map(int, row)) for row in matrix]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    v_inv = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def add_col(src, dst, q):
        # column dst += q * column src
        for row in a + v_inv:
            row[dst] += q * row[src]

    size = min(n_rows, n_cols)
    for t in range(size):
        while True:
            pivot = None
            for r in range(t, n_rows):
                for c in range(t, n_cols):
                    if a[r][c] and (pivot is None or abs(a[r][c]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (r, c)
            if pivot is None:
                break
            r, c = pivot
            a[t], a[r] = a[r], a[t]
            for row in a + v_inv:
                row[t], row[c] = row[c], row[t]
            dirty = False
            for r in range(t + 1, n_rows):
                if a[r][t]:
                    q = a[r][t] // a[t][t]
                    a[r] = [x - q * y for x, y in zip(a[r], a[t])]
                    if a[r][t]:
                        dirty = True
            for c in range(t + 1, n_cols):
                if a[t][c]:
                    q = a[t][c] // a[t][t]
                    add_col(t, c, -q)
                    if a[t][c]:
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining block by the pivot.
            offender = None
            for r in range(t + 1, n_rows):
                for c in range(t + 1, n_cols):
                    if a[r][c] % a[t][t]:
                        offender = (r, c)
                        break
                if offender:
                    break
            if offender is None:
                break
            add_col(offender[1], t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    diagonal = [a[i][i] for i in range(size)]
    return diagonal, v_inv


class InvertiblePolynomial:
    """A sum of Fermat, chain and loop polynomials in disjoint variables.

    Coefficients are normalized to 1 (always possible by rescaling the
    variables), so only the exponent matrix is stored.  Each row is a e_i or
    a e_i + e_j with j != i and a >= 2; each variable is the heavy one
    (exponent a) of exactly one row and the light one (e_j) of at most one.
    So det E != 0, the singularity at 0 is isolated, the weights lie in
    (0, 1/2], and the transpose is of the same kind.  `atoms` is the sorted
    tuple of ('C', (a_head, ..., a_tail)) for each chain, walked from the
    variable that is never light (a Fermat term is a chain of one), and
    ('L', least rotation of (a_1, ..., a_k)) for each loop: two polynomials
    have equal atoms exactly when they agree up to renaming the variables.
    """

    __slots__ = ("variables", "exponent_matrix", "atoms")

    def __init__(self, variables, exponent_matrix):
        variables = tuple(variables)
        # Row order is preserved as given: transposition then is literally
        # matrix transposition and an involution.  from_poly() canonicalizes.
        rows = [tuple(int(e) for e in row) for row in exponent_matrix]
        n = len(variables)
        if len(rows) != n:
            raise ValueError(
                f"an invertible polynomial needs exactly {n} monomials, got {len(rows)}"
            )
        for row in rows:
            if len(row) != n:
                raise ValueError("exponent rows must match the variable count")
            if any(e < 0 for e in row):
                raise ValueError("exponents must be non-negative")
        step, lights = {}, set()  # heavy variable -> (its exponent, its light one or None)
        for row in rows:
            heavy = [i for i, e in enumerate(row) if e > 1]
            light = {i for i, e in enumerate(row) if e == 1}
            if len(heavy) != 1 or len(light) > 1 or heavy[0] in step or light & lights:
                raise ValueError(
                    f"{mono_str(row, variables)} is not a term x_i^a or x_i^a*x_j, a >= 2,"
                    " of a Fermat, chain or loop polynomial"
                )
            lights |= light
            step[heavy[0]] = (row[heavy[0]], light.pop() if light else None)
        # Chains first, from their heads; every variable left lies on a loop.
        atoms = []
        for start in [i for i in range(n) if i not in lights] + list(range(n)):
            exponents, i = [], start
            while i in step:
                a, i = step.pop(i)
                exponents.append(a)
            if i is None:
                atoms.append(("C", tuple(exponents)))
            elif exponents:
                rotations = (exponents[k:] + exponents[:k] for k in range(len(exponents)))
                atoms.append(("L", tuple(min(rotations))))
        self.variables = variables
        self.exponent_matrix = tuple(rows)
        self.atoms = tuple(sorted(atoms))

    @classmethod
    def from_poly(cls, poly: SSeries, variables) -> "InvertiblePolynomial":
        return cls(variables, sorted(poly.terms, key=mono_key))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def poly(self) -> SSeries:
        return SSeries(self.nvars, None, {row: Fraction(1) for row in self.exponent_matrix})

    def render(self) -> str:
        return self.poly().render(self.variables)

    def __repr__(self):
        return f"InvertiblePolynomial({self.render()})"


def transpose(w: InvertiblePolynomial) -> InvertiblePolynomial:
    """The polynomial whose exponent matrix is the transpose: each chain and
    each loop reversed."""
    return InvertiblePolynomial(w.variables, zip(*w.exponent_matrix))


class DiagonalSymmetryGroup:
    """Diagonal symmetries of an invertible polynomial, as phases mod 1."""

    __slots__ = ("generators", "generator_orders", "order")

    def __init__(self, generators, generator_orders, order):
        self.generators = generators
        self.generator_orders = generator_orders
        self.order = order


def diagonal_symmetries(w: InvertiblePolynomial) -> DiagonalSymmetryGroup:
    """Aut(W) = {theta mod 1 : E theta integral}, of order |det E|.

    Generators come from the Smith normal form: with E = U D V, the columns
    of V^(-1) scaled by the inverse invariant factors generate the group
    minimally (factors equal to 1 are dropped).
    """
    matrix = [list(row) for row in w.exponent_matrix]
    diagonal, v_inv = smith_normal_form(matrix)
    order = prod(diagonal)
    generators = []
    generator_orders = []
    for i, d in enumerate(diagonal):
        if d > 1:
            column = tuple(Fraction(v_inv[r][i], d) % 1 for r in range(w.nvars))
            generators.append(column)
            generator_orders.append(d)
    return DiagonalSymmetryGroup(tuple(generators), tuple(generator_orders), order)
