"""Exact sparse arithmetic: rationals, multivariate polynomials and truncated
multi-parameter power series (one class), and z-Laurent blocks.

Every value the engine returns is a ``fractions.Fraction`` (always in
lowest terms, positive denominator) over exponent tuples, so all arithmetic
is exact; no floating point number enters any coefficient.  The hot paths
(the primitive-form solve and its defect, the substitution, the WDVV check)
run on Python ints instead: each scales its rationals by one common
denominator, packs each monomial into one int (``pack_monomial``), forms
every product with the one kernel ``graded_dot``, and divides back to
reduced Fractions only for the values it returns; exp(F - f) is built
on packed x-monomials too.

Representations:

  monomial   tuple[int, ...]          one exponent per variable
  SSeries    {monomial: Fraction}     no zero coefficients stored; truncated
                                      at a total degree, or a polynomial in
                                      x or s when the order is None
  LaurentBlock {z_power: {index: SSeries}}  finitely many z powers
  graded     [(degree, [(packed, int)])]    packed monomials by ascending
                                      total degree, the kernel's operands

The canonical term order used for printing and serialization is graded
(total degree first), ties broken so that earlier variables come first
(x before y before z).  Two equal values always serialize identically.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Iterable, Iterator


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact rational."""
    if not isinstance(text, str):
        raise ValueError(f"a rational is written as a string, got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def as_list(value, what: str) -> list:
    """value, which must be a JSON array: a string or an object in its
    place would be read one character or one key per entry."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def variable_names(names) -> tuple[str, ...]:
    """names as a tuple of distinct non-empty strings: a repeated or empty
    name would stand for a variable that no term can reach."""
    names = tuple(names)
    for i, name in enumerate(names):
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable {i + 1} must be a non-empty name, got {name!r}")
        if name in names[:i]:
            raise ValueError(f"variable {name!r} is named twice")
    return names


def format_rational(value: Fraction) -> str:
    """Format a rational as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def mono_key(exps: tuple[int, ...]) -> tuple:
    """Sort key for the canonical graded order (degree, earlier vars first)."""
    return (sum(exps), tuple(-e for e in exps))


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def pack_monomial(mono, base: int) -> int:
    """The monomial as one int: exponent i is its digit i in `base`.

    With `base` above every exponent that can occur, no digit carries, so
    the product of two monomials is the sum of their ints.
    """
    packed = 0
    for e in reversed(mono):
        packed = packed * base + e
    return packed


def unpack_monomial(packed: int, base: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a monomial packed in `base`."""
    exps = []
    for _ in range(nvars):
        packed, e = divmod(packed, base)
        exps.append(e)
    return tuple(exps)


def graded(buckets: dict) -> list:
    """{key: {packed: int}} as [(key, [(packed, int)])] by ascending key,
    zero coefficients and empty keys dropped.  A key may be any sortable
    value: a degree, for a graded series, or a (z, index) slot of the solve."""
    series = []
    for degree in sorted(buckets):
        items = [(mono, coeff) for mono, coeff in buckets[degree].items() if coeff]
        if items:
            series.append((degree, items))
    return series


def graded_dot(lefts, rights, bound: int) -> dict:
    """sum_f left_f * rights[f] over (f, left_f) in lefts, through total
    degree `bound`, as {degree: {packed: int}}, cancelled terms kept as 0.

    The operands are graded series packed in one base; a right operand may
    be None or empty for zero.  No exponent of a product through `bound`
    may reach the base, so that no digit carries.
    """
    buckets: dict = {}
    for f, left in lefts:
        right = rights[f]
        if not right:
            continue
        for dl, litems in left:
            for dr, ritems in right:
                degree = dl + dr
                if degree > bound:
                    break
                acc = buckets.setdefault(degree, {})
                for ml, cl in litems:
                    for mr, cr in ritems:
                        m = ml + mr
                        acc[m] = acc.get(m, 0) + cl * cr
    return buckets


def mono_str(exps: tuple[int, ...], names: Iterable[str]) -> str:
    """Render a monomial like "x^2*z"; the empty monomial renders as "1"."""
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def weighted_degree(exps: tuple[int, ...], weights: tuple[Fraction, ...]) -> Fraction:
    """Weighted degree sum(e_i * q_i) of a monomial."""
    return sum((Fraction(e) * q for e, q in zip(exps, weights)), Fraction(0))


class SSeries:
    """Sparse series in several variables with rational coefficients:
    a power series truncated by total degree, or a polynomial.

    One class serves both the polynomials in x of the Milnor algebra and
    the series in the deformation parameters s.  The constructor is the
    only place that drops terms: it keeps no zero coefficient and, with an
    integer order, no term of total degree above it, so ring operations
    agree with arithmetic in the quotient by (degree > order); a product
    skips a term pair above that order before forming it.  Order None
    truncates nothing: the series is a polynomial.  A binary operation
    keeps the smaller integer order of its operands, and gives None only
    when both orders are None.
    """

    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars: int, order: int | None, terms: dict | None = None):
        if order is None:
            self.terms = {m: c for m, c in (terms or {}).items() if c}
        else:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            self.terms = {
                m: c for m, c in (terms or {}).items() if c and sum(m) <= order
            }
        self.nvars = nvars
        self.order = order

    @classmethod
    def variable(cls, nvars: int, idx: int, order: int | None) -> "SSeries":
        exps = [0] * nvars
        exps[idx] = 1
        return cls(nvars, order, {tuple(exps): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SSeries)
            and self.nvars == other.nvars
            and self.order == other.order
            and self.terms == other.terms
        )

    def _joint_order(self, other: "SSeries") -> int | None:
        """The order of a binary result: the smaller integer order, None
        only when both orders are None."""
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
        if self.order is None:
            return other.order
        if other.order is None:
            return self.order
        return min(self.order, other.order)

    def __add__(self, other: "SSeries") -> "SSeries":
        order = self._joint_order(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return SSeries(self.nvars, order, out)

    def __sub__(self, other: "SSeries") -> "SSeries":
        return self + (-other)

    def __neg__(self) -> "SSeries":
        return SSeries(self.nvars, self.order, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = self._joint_order(other)
        top = inf if order is None else order
        rights = [(sum(mb), mb, cb) for mb, cb in other.terms.items()]
        out: dict = {}
        for ma, ca in self.terms.items():
            room = top - sum(ma)
            for db, mb, cb in rights:
                if db <= room:
                    m = mono_mul(ma, mb)
                    out[m] = out.get(m, Fraction(0)) + ca * cb
        return SSeries(self.nvars, order, out)

    __rmul__ = __mul__

    def scale(self, c) -> "SSeries":
        c = Fraction(c)
        return SSeries(self.nvars, self.order, {m: coeff * c for m, coeff in self.terms.items()})

    def truncate(self, order: int) -> "SSeries":
        return SSeries(self.nvars, order, self.terms)

    def degree_part(self, d: int) -> "SSeries":
        """The homogeneous component of total degree exactly d."""
        return SSeries(self.nvars, self.order, {m: c for m, c in self.terms.items() if sum(m) == d})

    def diff(self, idx: int) -> "SSeries":
        """Formal partial derivative; a truncated result is exact one order
        lower, a polynomial stays a polynomial."""
        out = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e:
                lowered = list(m)
                lowered[idx] = e - 1
                out[tuple(lowered)] = c * e
        order = None if self.order is None else max(self.order - 1, 0)
        return SSeries(self.nvars, order, out)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda item: mono_key(item[0]))

    def to_records(self) -> list[dict]:
        return [
            {"exponents": list(m), "coeff": format_rational(c)} for m, c in self.sorted_terms()
        ]

    @classmethod
    def from_records(cls, records: list[dict], nvars: int, order: int | None = None) -> "SSeries":
        """Read serialized terms in the form to_records writes: every
        exponent a non-negative int, no monomial twice, no zero coefficient,
        and with an order no term above it."""
        terms = {}
        for rec in records:
            exps = tuple(rec["exponents"])
            if len(exps) != nvars:
                raise ValueError(f"expected {nvars} exponents, got {len(exps)}")
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {list(exps)}")
            if order is not None and sum(exps) > order:
                raise ValueError(f"term {list(exps)} lies above order {order}")
            if exps in terms:
                raise ValueError(f"term {list(exps)} appears twice")
            coeff = parse_rational(rec["coeff"])
            if not coeff:
                raise ValueError(f"term {list(exps)} has coefficient zero")
            terms[exps] = coeff
        return cls(nvars, order, terms)

    def render(self, names: Iterable[str]) -> str:
        names = list(names)
        parts = []
        for m, c in self.sorted_terms():
            mono = mono_str(m, names)
            if mono == "1":
                parts.append(format_rational(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{format_rational(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __repr__(self):
        return f"SSeries({self.nvars} vars, order {self.order}, {len(self.terms)} terms)"


class LaurentBlock:
    """Finite sum over z powers of SSeries vectors indexed by basis class;
    zero coefficients are dropped at construction and never stored."""

    __slots__ = ("z_terms",)

    def __init__(self, z_terms: dict | None = None):
        self.z_terms = {}
        for zp, vec in (z_terms or {}).items():
            kept = {i: c for i, c in vec.items() if c}
            if kept:
                self.z_terms[zp] = kept

    def __bool__(self) -> bool:
        return bool(self.z_terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentBlock) and self.z_terms == other.z_terms

    def component(self, zpow: int) -> dict:
        return dict(self.z_terms.get(zpow, {}))

    def iter_terms(self) -> Iterator[tuple[int, int, object]]:
        for zp in sorted(self.z_terms):
            vec = self.z_terms[zp]
            for idx in sorted(vec):
                yield zp, idx, vec[idx]

    def __repr__(self):
        return f"LaurentBlock(z in {sorted(self.z_terms)})"


def _gauss_jordan(m: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
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


def mat_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix."""
    return _gauss_jordan([list(map(Fraction, r)) for r in rows], len(rows))[1]


def mat_inv(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    if not _gauss_jordan(m, n)[1]:
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def mat_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The unique solution of a (possibly rectangular) exact linear system.

    Returns None when the system is inconsistent, and raises ValueError
    when it has many solutions.
    """
    ncols = len(rows[0]) if rows else 0
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots, _ = _gauss_jordan(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise ValueError("the linear system has many solutions")
    return [row[ncols] for row in m[:ncols]]


_TOKEN_SPLIT = ("+", "-")


def parse_monomial(text: str, variables: list[str]) -> tuple[tuple[int, ...], Fraction]:
    """Parse one product like "3/2*x^2*y" into (exponents, coefficient)."""
    if not isinstance(text, str):
        raise ValueError(f"a monomial is written as a string, got {text!r}")
    coeff = Fraction(1)
    exps = [0] * len(variables)
    text = text.strip()
    if not text:
        raise ValueError("empty monomial")
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"malformed monomial {text!r}")
        if factor[0].isdigit() or factor[0] in "+-":
            coeff *= parse_rational(factor)
            continue
        name, caret, power = factor.partition("^")
        name, power = name.strip(), power.strip()
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        if caret and not (power.isascii() and power.isdigit()):
            raise ValueError(f"exponent must be a non-negative integer in {factor!r}")
        exps[variables.index(name)] += int(power) if caret else 1
    return tuple(exps), coeff


def parse_basis(entries, variables) -> list[tuple[int, ...]]:
    """The exponents of each entry, a bare monomial such as "x^2*y"."""
    basis = []
    for chunk in entries:
        exps, coeff = parse_monomial(chunk, list(variables))
        if coeff != 1:
            raise ValueError(f"basis entries must be bare monomials, got {chunk!r}")
        basis.append(exps)
    return basis


def parse_polynomial(text: str, variables: list[str]) -> SSeries:
    """Parse "x^3 + 2*x*y^2 - 1/2*z" into an exact polynomial (order None)."""
    variable_names(variables)
    terms: dict = {}
    chunk = ""
    sign = 1
    pending: list[tuple[int, str]] = []
    for ch in text.replace(" ", ""):
        if ch in _TOKEN_SPLIT and chunk:
            pending.append((sign, chunk))
            sign = -1 if ch == "-" else 1
            chunk = ""
        elif ch == "-" and not chunk:
            sign = -sign
        elif ch == "+" and not chunk:
            pass
        else:
            chunk += ch
    if chunk:
        pending.append((sign, chunk))
    elif pending:
        raise ValueError(f"polynomial {text!r} ends in an operator")
    if not pending:
        raise ValueError("empty polynomial")
    for sgn, part in pending:
        exps, coeff = parse_monomial(part, variables)
        coeff *= sgn
        updated = terms.get(exps, Fraction(0)) + coeff
        if updated:
            terms[exps] = updated
        else:
            terms.pop(exps, None)
    return SSeries(len(variables), None, terms)
