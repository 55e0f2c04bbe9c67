"""Weighted homogeneous singularity data.

Given f with weights q (normalized so every term of f has weighted degree
exactly 1), this module computes the Jacobian algebra C[x]/(df) with an
explicit graded monomial basis, witnesses for division by the Jacobian
ideal, the socle, the residue pairing, and the classes of monomials in the
formal Brieskorn lattice Omega^n[[z]] / (df + z d)Omega^(n-1)[[z]].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm, prod

from .algebra import (
    SSeries,
    format_rational,
    mat_det,
    mat_solve,
    mono_key,
    mono_mul,
    mono_str,
    weighted_degree,
)


class NonIsolatedSingularityError(ValueError):
    """The Jacobian quotient persists above the socle degree bound."""


class WeightedPolynomial:
    """A polynomial together with weights making it weighted homogeneous.

    Invariants checked at construction: 0 < q_i <= 1/2 for every weight and
    every term of the polynomial has weighted degree exactly 1.
    """

    __slots__ = ("variables", "weights", "poly")

    def __init__(self, variables, weights, poly: SSeries):
        variables = tuple(variables)
        weights = tuple(Fraction(w) for w in weights)
        if len(variables) != len(weights):
            raise ValueError("one weight per variable is required")
        if poly.nvars != len(variables):
            raise ValueError("polynomial variable count does not match")
        if not poly:
            raise ValueError("the zero polynomial has no singularity data")
        for q in weights:
            if not (0 < q <= Fraction(1, 2)):
                raise ValueError(f"weight {format_rational(q)} outside (0, 1/2]")
        for mono in poly.terms:
            d = weighted_degree(mono, weights)
            if d != 1:
                raise ValueError(
                    f"term {mono_str(mono, variables)} has weighted degree "
                    f"{format_rational(d)}, expected 1"
                )
        self.variables = variables
        self.weights = weights
        self.poly = poly

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def render(self) -> str:
        return self.poly.render(self.variables)

    def __repr__(self):
        return f"WeightedPolynomial({self.render()})"


def infer_weights(poly: SSeries) -> tuple[Fraction, ...]:
    """Solve for the unique weights giving every term weighted degree 1.

    Whether the weights lie in (0, 1/2] is left to the caller.
    """
    rows = [[Fraction(e) for e in m] for m in poly.terms]
    try:
        solution = mat_solve(rows, [Fraction(1)] * len(rows))
    except ValueError:
        raise ValueError(
            "weights are not determined by the polynomial; pass them explicitly"
        ) from None
    if solution is None:
        raise ValueError("no weight system makes every term homogeneous of degree 1")
    return tuple(solution)


def central_charge(weights) -> Fraction:
    """sum(1 - 2*q_i) over the weights."""
    return sum((1 - 2 * q for q in weights), Fraction(0))


class _DegreeSystem:
    """Echelonized division system for one weighted degree."""

    __slots__ = ("index", "echelon", "basis_monos")

    def __init__(self, index, echelon, basis_monos):
        self.index = index
        self.echelon = echelon  # pivot row -> (pivot value, vector, combination)
        self.basis_monos = basis_monos


# Combination key of the monomial that solve_monomial divides.
_TARGET = ("t",)


def _echelon_row(pivot, vec, combo):
    """(p, vec, combo) divided by their content, signed so that p > 0."""
    g = gcd(*vec.values(), *combo.values())
    if vec[pivot] < 0:
        g = -g
    return (
        vec[pivot] // g,
        {r: c // g for r, c in vec.items()},
        {k: c // g for k, c in combo.items()},
    )


class _JacobianDivider:
    """Per-degree exact solver for g = sum(c_a phi_a) + sum(q_i d_i f).

    The weighted grading makes each degree a finite exact linear solve,
    whose echelon form is computed once and cached.  Pivoting always
    prefers the smallest monomial in the canonical graded order, so the
    basis and every division witness are deterministic.

    The elimination runs on ints.  A column is a vector over the monomials
    of one degree together with its combination of generator columns
    (m * d_i f, keyed ("g", i, m)) and basis unit columns (keyed ("b", m)),
    and stays an integer combination throughout: each step scales it by an
    int to clear one entry, and each echelon row is stored divided by its
    content.  A designated `basis` (int exponent tuples) replaces the
    canonical choice; the constructor groups it by scaled degree.
    """

    def __init__(self, f: WeightedPolynomial, basis=None):
        self.nvars = f.nvars
        self.scale = lcm(*[q.denominator for q in f.weights])
        self.var_sdegs = tuple(int(q * self.scale) for q in f.weights)
        # Generator column ("g", i, m) is m * d_i f scaled by jacobian_den,
        # the lcm of the denominators of f, so its entries are ints.
        self.jacobian_den = lcm(*[c.denominator for c in f.poly.terms.values()])
        self.jacobian = tuple(
            {m: int(c * self.jacobian_den) for m, c in f.poly.diff(i).terms.items()}
            for i in range(f.nvars)
        )
        self.gen_sdegs = tuple(self.scale - sd for sd in self.var_sdegs)
        # The socle sits at the central charge, here in scaled degree.
        self.socle_sdeg = int(central_charge(f.weights) * self.scale)
        self._monos_cache: dict[int, list] = {}
        self._systems: dict[int, _DegreeSystem] = {}
        self.designated: dict[int, list] | None = None  # degree -> basis monos
        if basis is not None:
            self.designated = {}
            for m in basis:
                self.designated.setdefault(self.sdeg(m), []).append(m)

    def sdeg(self, mono) -> int:
        return sum(e * w for e, w in zip(mono, self.var_sdegs))

    def monomials_at(self, sdeg: int) -> list:
        """All monomials of the given scaled weighted degree, canonical order."""
        cached = self._monos_cache.get(sdeg)
        if cached is not None:
            return cached
        # A stack, not a recursive closure: a closure that calls itself is a
        # reference cycle, which would keep self and its systems alive until
        # the cyclic garbage collector happens to run.
        found = []
        stack = [((), sdeg)] if sdeg >= 0 else []
        while stack:
            prefix, remaining = stack.pop()
            w = self.var_sdegs[len(prefix)]
            if len(prefix) == self.nvars - 1:
                if remaining % w == 0:
                    found.append(prefix + (remaining // w,))
            else:
                stack.extend((prefix + (e,), remaining - e * w) for e in range(remaining // w + 1))
        found.sort(key=mono_key)
        self._monos_cache[sdeg] = found
        return found

    def _eliminate(self, vec, combo, echelon):
        """Reduce the int column (vec, combo) against the echelon, in place.

        Works through the smallest remaining monomial row; each echelon
        vector leads at its pivot row, so the frontier strictly increases.
        Clearing entry c against pivot value p scales the column by p/g and
        subtracts c/g times the echelon row, g = gcd(p, c).  Returns the
        first uncovered row (the pivot for a new column) or None when the
        column eliminates completely.
        """
        while vec:
            r = min(vec)
            hit = echelon.get(r)
            if hit is None:
                return r
            p, evec, ecombo = hit
            g = gcd(p, vec[r])
            a, b = p // g, vec[r] // g
            for target, row in ((vec, evec), (combo, ecombo)):
                if a != 1:
                    for key in target:
                        target[key] *= a
                for key, c in row.items():
                    updated = target.get(key, 0) - b * c
                    if updated:
                        target[key] = updated
                    else:
                        target.pop(key, None)
        return None

    def system(self, sdeg: int) -> _DegreeSystem:
        sys = self._systems.get(sdeg)
        if sys is not None:
            return sys
        monos = self.monomials_at(sdeg)
        index = {m: r for r, m in enumerate(monos)}
        echelon: dict = {}
        # Ideal generator columns: mono * d_i(f), variables then monomials
        # in canonical order.
        for i in range(self.nvars):
            shift = sdeg - self.gen_sdegs[i]
            if shift < 0:
                continue
            for m in self.monomials_at(shift):
                vec = {}
                for jm, jc in self.jacobian[i].items():
                    row = index[mono_mul(m, jm)]
                    vec[row] = vec.get(row, 0) + jc
                vec = {r: c for r, c in vec.items() if c}
                combo = {("g", i, m): 1}
                pivot = self._eliminate(vec, combo, echelon)
                if pivot is not None:
                    echelon[pivot] = _echelon_row(pivot, vec, combo)
        if self.designated is not None:
            basis_monos = list(self.designated.get(sdeg, []))
            free = len(monos) - len(echelon)
            if len(basis_monos) != free:
                raise ValueError(
                    f"designated basis has {len(basis_monos)} monomials at scaled "
                    f"degree {sdeg}, but the quotient there has dimension {free}"
                )
        else:
            basis_monos = [m for m in monos if index[m] not in echelon]
        # Basis unit columns join the echelon after the ideal columns; a
        # designated monomial that eliminates to zero is dependent.
        for bm in basis_monos:
            vec = {index[bm]: 1}
            combo = {("b", bm): 1}
            pivot = self._eliminate(vec, combo, echelon)
            if pivot is None:
                raise ValueError(
                    f"designated basis monomial {bm} is not independent "
                    "modulo the Jacobian ideal"
                )
            echelon[pivot] = _echelon_row(pivot, vec, combo)
        sys = _DegreeSystem(index, echelon, basis_monos)
        self._systems[sdeg] = sys
        return sys

    def solve_monomial(self, mono) -> tuple[int, dict, dict]:
        """Express a monomial as basis combination plus Jacobian-ideal part.

        Returns (den, basis numerators {mono: int}, generator numerators
        {(var, mono): int}), each coefficient its numerator over den > 0,
        with no common factor; the expression is exact.

        Above the socle degree sigma the quotient is zero.  There the
        monomial sheds x^a, variables last to first, the largest power of
        each that keeps the rest above sigma; the rest lies in the band
        (sigma, sigma + max w_j], whose systems `milnor_basis` builds, and
        x^a times its witness is the monomial's, so no solve builds a
        system.
        """
        sdeg, shed = self.sdeg(mono), [0] * self.nvars
        for j in reversed(range(self.nvars)):
            shed[j] = max(0, min(mono[j], (sdeg - self.socle_sdeg - 1) // self.var_sdegs[j]))
            sdeg -= shed[j] * self.var_sdegs[j]
        rest = tuple(e - k for e, k in zip(mono, shed))
        sys = self.system(sdeg)
        vec = {sys.index[rest]: 1}
        combo = {_TARGET: 1}
        leftover = self._eliminate(vec, combo, sys.echelon)
        if leftover is not None:
            raise NonIsolatedSingularityError(
                "Jacobian quotient persists at scaled degree "
                f"{sdeg}/{self.scale}: monomial {rest} is not reachable"
            )
        # den * rest + sum(combo * columns) = 0, den > 0 as every pivot is.
        den = combo.pop(_TARGET)
        parts = {k: -c * (self.jacobian_den if k[0] == "g" else 1) for k, c in combo.items()}
        g = gcd(den, *parts.values())
        basis_part = {k[1]: c // g for k, c in parts.items() if k[0] == "b"}
        gen_part = {(k[1], mono_mul(k[2], shed)): c // g for k, c in parts.items() if k[0] == "g"}
        return den // g, basis_part, gen_part


class MilnorData:
    """Milnor number, graded monomial basis, socle, and residue pairing.

    mu is the length of the basis and eta is computed last, from the rest,
    so the object is whole when its constructor returns.  Immutable after
    construction apart from the memo of lattice classes (``_reduce_cache``,
    which only `monomial_class` reads and fills); intended for
    single-threaded construction and read-mostly use.
    """

    __slots__ = (
        "f",
        "mu",
        "basis",
        "degrees",
        "socle",
        "eta",
        "_divider",
        "_basis_index",
        "_reduce_cache",
    )

    def __init__(self, f, basis, degrees, socle, divider):
        self.f = f
        self.basis = tuple(basis)
        self.mu = len(self.basis)
        self.degrees = tuple(degrees)
        self.socle = socle
        self._divider = divider
        self._basis_index = {m: i for i, m in enumerate(self.basis)}
        self._reduce_cache = {}
        self.eta = residue_pairing(self)

    def basis_index(self, mono) -> int:
        return self._basis_index[mono]

    def record_fields(self) -> dict:
        """The fields that every record of f carries, as JSON values:
        variables, weights, central charge, basis and eta."""
        f = self.f
        return {
            "variables": list(f.variables),
            "weights": [format_rational(q) for q in f.weights],
            "central_charge": format_rational(central_charge(f.weights)),
            "basis": [mono_str(m, f.variables) for m in self.basis],
            "eta": [[format_rational(v) for v in row] for row in self.eta],
        }

    def __repr__(self):
        return f"MilnorData({self.f.render()}, mu={self.mu})"


def monomial_class(mono: tuple, data: MilnorData) -> tuple[int, list]:
    """Canonical lattice class of [x^mono d^n x] as (R, [(z_power, index,
    int)]): the class is the sum of int / R * z^z_power phi_index, R > 0 the
    lcm of its reduced denominators.

    For an (n-1)-form with contraction coefficients h_i the quotient
    relation reads

        [sum_i h_i d_i(f) d^n x]  =  -z [sum_i d_i(h_i) d^n x],

    so x^m is split into a basis part plus an ideal part, and the ideal
    part is pushed one z power up, lowering the weighted degree by exactly
    1 each time.  Two witnesses differ by a Koszul syzygy
    h (d_j f e_i - d_i f e_j) of df, an isolated f having no others, whose
    push d_i(h) d_j(f) - d_j(h) d_i(f) is the d of an (n-1)-form: a class
    does not depend on the witness.  It depends on f alone and is memoized
    on `data` for every solve and defect.
    """
    cached = data._reduce_cache.get(mono)
    if cached is not None:
        return cached
    den, basis_part, gen_part = data._divider.solve_monomial(mono)
    # Push -sum_i d_i(quotient_i) to the next z power, over den.
    next_terms: dict = {}
    for (var, qm), qc in gen_part.items():
        e = qm[var]
        if e:
            lowered = list(qm)
            lowered[var] = e - 1
            key = tuple(lowered)
            next_terms[key] = next_terms.get(key, 0) - qc * e
    lower = [(nc, monomial_class(nm, data)) for nm, nc in next_terms.items() if nc]
    scale = den * lcm(*(r for _, (r, _) in lower))
    acc = {(0, data.basis_index(m)): c * (scale // den) for m, c in basis_part.items()}
    for nc, (r, entries) in lower:
        factor = nc * (scale // (den * r))
        for zp, idx, c in entries:
            key = (zp + 1, idx)
            acc[key] = acc.get(key, 0) + factor * c
    g = gcd(scale, *acc.values())
    out = (scale // g, [(zp, idx, c // g) for (zp, idx), c in acc.items() if c])
    data._reduce_cache[mono] = out
    return out


def milnor_basis(f: WeightedPolynomial, basis=None) -> MilnorData:
    """Compute the graded monomial basis of C[x]/(df) and the pairing.

    `basis`, when given, is a full list of monomials (exponent tuples) to use
    instead of the canonical choice; it is validated for independence and for
    matching the graded dimensions.  Rejects non-isolated singularities: the
    quotient must vanish in the band above the socle degree (the central
    charge), the highest degrees it walks.  Every monomial above the band is
    x^a times a band monomial, so a quotient that is zero in the band is
    zero everywhere above it.
    """
    for i, dpoly in enumerate(f.poly.diff(i) for i in range(f.nvars)):
        if not dpoly:
            raise NonIsolatedSingularityError(
                f"f does not depend on {f.variables[i]}; the singularity is not isolated"
            )
    if basis is not None:
        basis = [tuple(int(e) for e in m) for m in basis]
        for m in basis:
            if len(m) != f.nvars:
                raise ValueError(
                    f"designated basis monomial {m} needs {f.nvars} exponents, one per variable"
                )
    divider = _JacobianDivider(f, basis)
    c_hat = central_charge(f.weights)
    band_top = divider.socle_sdeg + max(divider.var_sdegs)

    found = []
    for sdeg in range(band_top + 1):
        sys = divider.system(sdeg)
        if sys.basis_monos and sdeg > divider.socle_sdeg:
            raise NonIsolatedSingularityError(
                "quotient is nonzero at weighted degree "
                f"{format_rational(Fraction(sdeg, divider.scale))}, above the "
                f"socle degree {format_rational(c_hat)}"
            )
        for m in sys.basis_monos:
            found.append((sdeg, m))

    expected = prod(1 / q - 1 for q in f.weights)
    if expected.denominator != 1 or len(found) != expected:
        raise NonIsolatedSingularityError(
            f"quotient dimension {len(found)} does not match the weight "
            f"formula {format_rational(expected)}"
        )

    if basis is None:
        basis = [m for _, m in sorted(found, key=lambda sm: (sm[0], mono_key(sm[1])))]
    elif len(basis) != len(found):
        raise ValueError("designated basis has monomials above the socle degree")
    degrees = [weighted_degree(m, f.weights) for m in basis]

    socle_monos = [m for m, d in zip(basis, degrees) if d == c_hat]
    if len(socle_monos) != 1:
        raise NonIsolatedSingularityError(
            f"expected a one-dimensional socle, found {len(socle_monos)} monomials"
        )
    return MilnorData(f, basis, degrees, socle_monos[0], divider)


def divide_by_jacobian(g: SSeries, data: MilnorData):
    """Write g = sum(coeffs_a * phi_a) + sum(quotients_i * d_i f) exactly.

    Returns (coeffs, quotients): mu rational coefficients and one polynomial
    per variable.  General g is handled weighted-homogeneous component by
    component.
    """
    f = data.f
    if g.nvars != f.nvars:
        raise ValueError("polynomial is over a different variable set")
    coeffs = [Fraction(0)] * data.mu
    quotients: list[dict] = [{} for _ in range(f.nvars)]
    divider = data._divider
    for mono, c in g.terms.items():
        den, basis_part, gen_part = divider.solve_monomial(mono)
        for bm, b in basis_part.items():
            coeffs[data.basis_index(bm)] += c * Fraction(b, den)
        for (var, qm), q in gen_part.items():
            quotients[var][qm] = quotients[var].get(qm, Fraction(0)) + c * Fraction(q, den)
    return coeffs, [SSeries(f.nvars, None, q) for q in quotients]


def hessian_determinant(f: WeightedPolynomial) -> SSeries:
    """det(d_i d_j f) as an exact polynomial: the Leibniz sum over the
    permutations p of prod_i d_i d_p(i) f, signed by the parity of p,
    skipping each p that meets a zero second derivative."""
    n = f.nvars
    second = [[f.poly.diff(i).diff(j) for j in range(n)] for i in range(n)]
    total = SSeries(n, None)
    for perm in permutations(range(n)):
        factors = [second[i][j] for i, j in enumerate(perm)]
        if not all(factors):
            continue
        term = prod(factors[1:], start=factors[0])
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total = total + term.scale((-1) ** inversions)
    return total


def residue_pairing(data: MilnorData):
    """Residue pairing eta on the basis, normalized by Res(hess f) = mu.

    eta[a][b] = r_ab * mu / h, where phi_a*phi_b = r_ab*socle and
    hess(f) = h*socle modulo the Jacobian ideal: h is the socle coefficient
    of divide_by_jacobian(hessian_determinant(f), data).  Returns eta.
    """
    hess = hessian_determinant(data.f)
    socle_idx = data.basis_index(data.socle)
    hess_coeffs, _ = divide_by_jacobian(hess, data)
    h = hess_coeffs[socle_idx]
    if not h:
        raise ArithmeticError("hessian vanishes in the Jacobian algebra; data is inconsistent")
    c_hat = central_charge(data.f.weights)
    scale = Fraction(data.mu) / h
    mu = data.mu
    eta = [[Fraction(0)] * mu for _ in range(mu)]
    for a in range(mu):
        for b in range(a, mu):
            if data.degrees[a] + data.degrees[b] != c_hat:
                continue
            product = mono_mul(data.basis[a], data.basis[b])
            den, basis_part, _ = data._divider.solve_monomial(product)
            r = basis_part.get(data.socle)
            if r:
                eta[a][b] = eta[b][a] = Fraction(r, den) * scale
    if not mat_det(eta):
        raise ArithmeticError("residue pairing is degenerate; data is inconsistent")
    return tuple(tuple(row) for row in eta)
