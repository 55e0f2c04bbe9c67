"""Exact sparse arithmetic: rationals, multivariate polynomials, truncated
multi-parameter power series, and z-Laurent blocks.

Everything is built on ``fractions.Fraction`` (always in lowest terms,
positive denominator) and exponent tuples, so all arithmetic in the engine
is exact; no floating point appears anywhere.

Representations:

  monomial   tuple[int, ...]          one exponent per variable
  Poly       {monomial: Fraction}     no zero coefficients stored
  SSeries    {monomial: Fraction}     truncated at a fixed total degree
  LaurentBlock {z_power: {index: coeff}}  finitely many z powers

The canonical term order used for printing and serialization is graded
(total degree first), ties broken so that earlier variables come first
(x before y before z).  Two equal values always serialize identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact rational."""
    return Fraction(text.strip())


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


def _terms_to_records(terms: dict) -> list[dict]:
    return [
        {"exponents": list(m), "coeff": format_rational(c)}
        for m, c in sorted(terms.items(), key=lambda item: mono_key(item[0]))
    ]


def _records_to_terms(records: list[dict], nvars: int, order: int | None = None) -> dict:
    """Terms from serialized records; every exponent must be a non-negative
    int, and with an order no term may lie above it."""
    terms = {}
    for rec in records:
        exps = tuple(rec["exponents"])
        if len(exps) != nvars:
            raise ValueError(f"expected {nvars} exponents, got {len(exps)}")
        if not all(type(e) is int and e >= 0 for e in exps):
            raise ValueError(f"exponents must be non-negative integers, got {list(exps)}")
        if order is not None and sum(exps) > order:
            raise ValueError(f"term {list(exps)} lies above order {order}")
        coeff = parse_rational(rec["coeff"])
        if coeff:
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return {m: c for m, c in terms.items() if c}


class Poly:
    """Exact multivariate polynomial with rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        c = Fraction(value)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, idx: int) -> "Poly":
        exps = [0] * nvars
        exps[idx] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exps: tuple[int, ...], coeff=1) -> "Poly":
        return cls(len(exps), {tuple(exps): Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return Poly(self.nvars, out)

    def __pow__(self, n: int) -> "Poly":
        result = Poly.const(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {m: coeff * c for m, coeff in self.terms.items()})

    def diff(self, idx: int) -> "Poly":
        """Partial derivative with respect to variable idx."""
        out = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e:
                lowered = list(m)
                lowered[idx] = e - 1
                out[tuple(lowered)] = c * e
        return Poly(self.nvars, out)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda item: mono_key(item[0]))

    def to_records(self) -> list[dict]:
        return _terms_to_records(self.terms)

    @classmethod
    def from_records(cls, records: list[dict], nvars: int) -> "Poly":
        return cls(nvars, _records_to_terms(records, nvars))

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
        return f"Poly({self.nvars}, {len(self.terms)} terms)"


class SSeries:
    """Power series in the deformation parameters, truncated by total degree.

    Stored sparsely; every kept exponent vector has total degree <= order.
    Multiplication truncates past the order, so ring operations agree with
    arithmetic in the quotient by (degree > order).
    """

    __slots__ = ("nvars", "order", "terms", "_by_degree")

    def __init__(self, nvars: int, order: int, terms: dict | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.nvars = nvars
        self.order = order
        self.terms = {
            m: c for m, c in (terms or {}).items() if c and sum(m) <= order
        }
        self._by_degree = None

    @classmethod
    def zero(cls, nvars: int, order: int) -> "SSeries":
        return cls(nvars, order)

    @classmethod
    def const(cls, nvars: int, order: int, value) -> "SSeries":
        c = Fraction(value)
        return cls(nvars, order, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, idx: int, order: int) -> "SSeries":
        if order < 1:
            return cls(nvars, order)
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

    def __hash__(self):
        return hash((self.nvars, self.order, frozenset(self.terms.items())))

    def _check_compatible(self, other: "SSeries") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other: "SSeries") -> "SSeries":
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {m: c for m, c in self.terms.items() if sum(m) <= order}
        for m, c in other.terms.items():
            if sum(m) <= order:
                out[m] = out.get(m, Fraction(0)) + c
        return SSeries(self.nvars, order, out)

    def __sub__(self, other: "SSeries") -> "SSeries":
        return self + (-other)

    def __neg__(self) -> "SSeries":
        return SSeries(self.nvars, self.order, {m: -c for m, c in self.terms.items()})

    def _buckets(self) -> dict[int, list]:
        if self._by_degree is None:
            buckets: dict[int, list] = {}
            for m, c in self.terms.items():
                buckets.setdefault(sum(m), []).append((m, c))
            self._by_degree = buckets
        return self._by_degree

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        order = min(self.order, other.order)
        out: dict = {}
        buckets_b = other._buckets()
        for da, items_a in self._buckets().items():
            if da > order:
                continue
            for db, items_b in buckets_b.items():
                if da + db > order:
                    continue
                for ma, ca in items_a:
                    for mb, cb in items_b:
                        m = mono_mul(ma, mb)
                        out[m] = out.get(m, Fraction(0)) + ca * cb
        return SSeries(self.nvars, order, out)

    __rmul__ = __mul__

    def scale(self, c) -> "SSeries":
        c = Fraction(c)
        if not c:
            return SSeries(self.nvars, self.order)
        return SSeries(self.nvars, self.order, {m: coeff * c for m, coeff in self.terms.items()})

    def truncate(self, order: int) -> "SSeries":
        return SSeries(self.nvars, order, self.terms)

    def degree_part(self, d: int) -> "SSeries":
        """The homogeneous component of total degree exactly d."""
        return SSeries(self.nvars, self.order, dict(self._buckets().get(d, ())))

    def diff(self, idx: int) -> "SSeries":
        """Formal partial derivative; the result is exact one order lower."""
        out = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e:
                lowered = list(m)
                lowered[idx] = e - 1
                out[tuple(lowered)] = c * e
        return SSeries(self.nvars, max(self.order - 1, 0), out)

    def shift_variable(self, idx: int) -> "SSeries":
        """Multiply by the idx-th variable (exponent shift, truncating)."""
        out = {}
        for m, c in self.terms.items():
            if sum(m) + 1 <= self.order:
                raised = list(m)
                raised[idx] += 1
                out[tuple(raised)] = c
        return SSeries(self.nvars, self.order, out)

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda item: mono_key(item[0]))

    def to_records(self) -> list[dict]:
        return _terms_to_records(self.terms)

    @classmethod
    def from_records(cls, records: list[dict], nvars: int, order: int) -> "SSeries":
        return cls(nvars, order, _records_to_terms(records, nvars, order))

    def render(self, names: Iterable[str]) -> str:
        return Poly(self.nvars, self.terms).render(names)

    def __repr__(self):
        return f"SSeries({self.nvars} vars, order {self.order}, {len(self.terms)} terms)"


class LaurentBlock:
    """Finite sum over z powers of coefficient vectors indexed by basis class.

    Coefficients may be Fractions or SSeries (anything supporting +, unary -,
    multiplication by Fraction, and truthiness); zero coefficients are never
    stored.
    """

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

    def copy(self) -> "LaurentBlock":
        return LaurentBlock({zp: dict(vec) for zp, vec in self.z_terms.items()})

    def add_term(self, zpow: int, idx: int, coeff) -> None:
        """Accumulate coeff onto the (z^zpow, basis idx) slot (in place)."""
        vec = self.z_terms.setdefault(zpow, {})
        updated = vec.get(idx, None)
        updated = coeff if updated is None else updated + coeff
        if updated:
            vec[idx] = updated
        else:
            vec.pop(idx, None)
            if not vec:
                del self.z_terms[zpow]

    def accumulate(self, other: "LaurentBlock", factor=None) -> None:
        """In-place sum with an optional Fraction factor on `other`."""
        for zp, vec in other.z_terms.items():
            for idx, c in vec.items():
                self.add_term(zp, idx, c * factor if factor is not None else c)

    def __add__(self, other: "LaurentBlock") -> "LaurentBlock":
        out = self.copy()
        out.accumulate(other)
        return out

    def __sub__(self, other: "LaurentBlock") -> "LaurentBlock":
        out = self.copy()
        for zp, vec in other.z_terms.items():
            for idx, c in vec.items():
                out.add_term(zp, idx, -c)
        return out

    def scale(self, c) -> "LaurentBlock":
        return LaurentBlock(
            {zp: {i: v * c for i, v in vec.items()} for zp, vec in self.z_terms.items()}
        )

    def shift_z(self, m: int) -> "LaurentBlock":
        """Multiply by z^m: every z power shifts by m, coefficients unchanged."""
        return LaurentBlock({zp + m: dict(vec) for zp, vec in self.z_terms.items()})

    def component(self, zpow: int) -> dict:
        return dict(self.z_terms.get(zpow, {}))

    def split(self) -> tuple["LaurentBlock", "LaurentBlock"]:
        """Split into the z^(>=0) part and the z^(<=-1) part."""
        nonneg = {zp: vec for zp, vec in self.z_terms.items() if zp >= 0}
        neg = {zp: vec for zp, vec in self.z_terms.items() if zp < 0}
        return LaurentBlock(nonneg), LaurentBlock(neg)

    def iter_terms(self) -> Iterator[tuple[int, int, object]]:
        for zp in sorted(self.z_terms):
            vec = self.z_terms[zp]
            for idx in sorted(vec):
                yield zp, idx, vec[idx]

    def z_powers(self) -> list[int]:
        return sorted(self.z_terms)

    def to_records(self, width: int) -> list[dict]:
        """Serialize as z-sorted rows of `width` per-class term arrays."""
        rows = []
        for zp in sorted(self.z_terms):
            vec = self.z_terms[zp]
            components = []
            for idx in range(width):
                coeff = vec.get(idx)
                components.append(coeff.to_records() if coeff else [])
            rows.append({"z": zp, "components": components})
        return rows

    @classmethod
    def from_records(cls, rows: list[dict], nvars: int, order: int) -> "LaurentBlock":
        z_terms: dict = {}
        for row in rows:
            vec = {}
            for idx, records in enumerate(row["components"]):
                if records:
                    vec[idx] = SSeries.from_records(records, nvars, order)
            if vec:
                z_terms[int(row["z"])] = vec
        return cls(z_terms)

    def __repr__(self):
        return f"LaurentBlock(z in {self.z_powers() or '[]'})"


def mat_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix by fraction-free-ish elimination."""
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def mat_inv(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def mat_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a (possibly rectangular) exact linear system; None if inconsistent.

    When the system is underdetermined the free unknowns are set to zero,
    so the result is deterministic.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [a * inv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols]:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = m[row_idx][ncols]
    return solution


_TOKEN_SPLIT = ("+", "-")


def parse_monomial(text: str, variables: list[str]) -> tuple[tuple[int, ...], Fraction]:
    """Parse one product like "3/2*x^2*y" into (exponents, coefficient)."""
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
            coeff *= Fraction(factor)
            continue
        name, caret, power = factor.partition("^")
        name, power = name.strip(), power.strip()
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        if caret and not (power.isascii() and power.isdigit()):
            raise ValueError(f"exponent must be a non-negative integer in {factor!r}")
        exps[variables.index(name)] += int(power) if caret else 1
    return tuple(exps), coeff


def parse_polynomial(text: str, variables: list[str]) -> Poly:
    """Parse "x^3 + 2*x*y^2 - 1/2*z" into an exact Poly."""
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
    return Poly(len(variables), terms)
