"""Berglund-Huebsch combinatorics for invertible polynomials.

An invertible polynomial has as many monomials as variables and an
invertible exponent matrix; its transpose is the polynomial with the
transposed matrix.  The group of diagonal symmetries is handled exactly as
rational phase vectors modulo 1 (an element diag(e^{2 pi i a_1}, ...) is
stored as (a_1, ..., a_n)), with a minimal generating set extracted from
the Smith normal form of the exponent matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .algebra import SSeries, mat_det, mono_key, mono_str
from .milnor import WeightedPolynomial, infer_weights


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

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v_inv:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, q):
        # column dst += q * column src
        for row in a:
            row[dst] += q * row[src]
        for row in v_inv:
            row[dst] += q * row[src]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def add_row(src, dst, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

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
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for r in range(t + 1, n_rows):
                if a[r][t]:
                    q = a[r][t] // a[t][t]
                    add_row(t, r, -q)
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
        if t < n_rows and a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    diagonal = [a[i][i] for i in range(size)]
    return diagonal, v_inv


class InvertiblePolynomial:
    """A polynomial with square, invertible exponent matrix.

    Coefficients are normalized to 1 (always possible by rescaling the
    variables), so only the exponent matrix is stored; its rows are kept in
    the canonical graded monomial order.
    """

    __slots__ = ("variables", "exponent_matrix")

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
            if sum(row) == 2 and sorted(row, reverse=True)[:2] == [1, 1]:
                raise ValueError(
                    f"mixed quadratic monomial {mono_str(row, variables)} is not allowed"
                )
        if not mat_det(rows):
            raise ValueError("exponent matrix is singular")
        self.variables = variables
        self.exponent_matrix = tuple(rows)

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

    def canonical_key(self) -> tuple:
        """Smallest row-sorted exponent matrix over all variable permutations.

        Used to recognize a polynomial up to renaming the variables.
        """
        best = None
        for perm in permutations(range(self.nvars)):
            rows = sorted(
                (tuple(row[p] for p in perm) for row in self.exponent_matrix), key=mono_key
            )
            key = tuple(rows)
            if best is None or key < best:
                best = key
        return best

    def __repr__(self):
        return f"InvertiblePolynomial({self.render()})"


def transpose(w: InvertiblePolynomial) -> InvertiblePolynomial:
    """The polynomial whose exponent matrix is the transpose."""
    n = w.nvars
    rows = [[w.exponent_matrix[j][i] for j in range(n)] for i in range(n)]
    try:
        return InvertiblePolynomial(w.variables, rows)
    except ValueError as exc:
        raise ValueError(f"the transpose is rejected: {exc}") from None


def weights_from_matrix(w: InvertiblePolynomial) -> tuple[Fraction, ...]:
    """The weights q solving E q = (1, ..., 1), checked by WeightedPolynomial."""
    poly = w.poly()
    return WeightedPolynomial(w.variables, infer_weights(poly), poly).weights


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
    order = 1
    for d in diagonal:
        order *= d
    generators = []
    generator_orders = []
    for i, d in enumerate(diagonal):
        if d > 1:
            column = tuple(Fraction(v_inv[r][i], d) % 1 for r in range(w.nvars))
            generators.append(column)
            generator_orders.append(d)
    return DiagonalSymmetryGroup(tuple(generators), tuple(generator_orders), order)
