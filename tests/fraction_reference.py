"""Dense Gauss-Jordan elimination over the rationals, for tests.

The engine eliminates on ints only, by `algebra.eliminate`: the Jacobian
division, the inferred weights, the rank of the residue pairing eta and
eta^-1 all run on it.  The tests check those results, and take the
determinants, inverses and ranks they need, with this dense Fraction
elimination instead.  It imports nothing from primform, so that an oracle
shares no code with the path it checks; `test_reference_independence`
holds it to that.
"""

from fractions import Fraction


def gauss_jordan(m: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
    """Reduce the rows of m in place over their first ncols columns.

    Each pivot is the first nonzero entry at or below the next pivot row;
    its row is scaled to 1 and the column is cleared from every other row.
    Returns the pivot columns and the determinant of those columns when
    they are square: the product of the pivots, with the sign of the row
    swaps, or 0 when a column has no pivot.
    """
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        det *= m[r][col]
        inv = 1 / m[r][col]
        # Zero entries are skipped: the pairings reduced here are sparse.
        m[r] = [a * inv if a else a for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots, det


def rank(rows) -> int:
    """The rank of a rational matrix."""
    ncols = len(rows[0]) if rows else 0
    return len(gauss_jordan([list(map(Fraction, r)) for r in rows], ncols)[0])


def det(rows) -> Fraction:
    """Determinant of a square rational matrix."""
    return gauss_jordan([list(map(Fraction, r)) for r in rows], len(rows))[1]


def inverse(rows) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    if not gauss_jordan(m, n)[1]:
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def solve(rows, rhs) -> list[Fraction] | None:
    """The unique solution of a (possibly rectangular) exact linear system.

    Returns None when the system is inconsistent, and raises ValueError
    when it has many solutions.
    """
    ncols = len(rows[0]) if rows else 0
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots, _ = gauss_jordan(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise ValueError("the linear system has many solutions")
    return [row[ncols] for row in m[:ncols]]
