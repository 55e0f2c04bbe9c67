"""Weighted homogeneous singularity data.

Given f with weights q (normalized so every term of f has weighted degree
exactly 1), this module computes the Jacobian algebra C[x]/(df) with an
explicit graded monomial basis, witnesses for division by the Jacobian
ideal, the socle, and the residue pairing.

Division is organised degree by degree: the weighted grading makes each
degree a finite exact linear solve, and the echelon form of each degree's
system is computed once and cached.  Pivoting always prefers the smallest
monomial in the canonical graded order, so the basis and every division
witness are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import (
    Poly,
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

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class WeightedPolynomial:
    """A polynomial together with weights making it weighted homogeneous.

    Invariants checked at construction: 0 < q_i <= 1/2 for every weight and
    every term of the polynomial has weighted degree exactly 1.
    """

    __slots__ = ("variables", "weights", "poly")

    def __init__(self, variables, weights, poly: Poly):
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


def infer_weights(poly: Poly) -> tuple[Fraction, ...]:
    """Solve for the unique weights giving every term weighted degree 1."""
    monos = list(poly.terms)
    rows = [[Fraction(e) for e in m] for m in monos]
    rhs = [Fraction(1)] * len(monos)
    solution = mat_solve(rows, rhs)
    if solution is None:
        raise ValueError("no weight system makes every term homogeneous of degree 1")
    for m in monos:
        if weighted_degree(m, tuple(solution)) != 1:
            raise ValueError("inconsistent weight system")
    # The solve zeroes free unknowns; a vanishing weight means the system
    # was underdetermined and the caller must pass weights explicitly.
    if any(q <= 0 for q in solution):
        raise ValueError("weights are not determined by the polynomial; pass them explicitly")
    return tuple(solution)


def central_charge(f: WeightedPolynomial) -> Fraction:
    """sum(1 - 2*q_i) over the variables."""
    return sum((1 - 2 * q for q in f.weights), Fraction(0))


class _DegreeSystem:
    """Echelonized division system for one weighted degree."""

    __slots__ = ("monos", "index", "echelon", "basis_monos", "solutions")

    def __init__(self, monos, index, echelon, basis_monos):
        self.monos = monos
        self.index = index
        self.echelon = echelon  # pivot row -> (vector, combination)
        self.basis_monos = basis_monos
        self.solutions = {}


class _JacobianDivider:
    """Per-degree exact solver for g = sum(c_a phi_a) + sum(q_i d_i f)."""

    def __init__(self, f: WeightedPolynomial):
        self.f = f
        self.nvars = f.nvars
        self.scale = lcm(*[q.denominator for q in f.weights])
        self.var_sdegs = tuple(int(q * self.scale) for q in f.weights)
        self.jacobian = tuple(f.poly.diff(i) for i in range(f.nvars))
        self.gen_sdegs = tuple(self.scale - sd for sd in self.var_sdegs)
        self._monos_cache: dict[int, list] = {}
        self._systems: dict[int, _DegreeSystem] = {}
        self.designated: dict[int, list] | None = None  # degree -> basis monos

    def sdeg(self, mono) -> int:
        return sum(e * w for e, w in zip(mono, self.var_sdegs))

    def monomials_at(self, sdeg: int) -> list:
        """All monomials of the given scaled weighted degree, canonical order."""
        cached = self._monos_cache.get(sdeg)
        if cached is not None:
            return cached
        found = []

        def fill(pos, remaining, prefix):
            if pos == self.nvars - 1:
                w = self.var_sdegs[pos]
                if remaining % w == 0:
                    found.append(tuple(prefix + [remaining // w]))
                return
            w = self.var_sdegs[pos]
            for e in range(remaining // w + 1):
                fill(pos + 1, remaining - e * w, prefix + [e])

        if sdeg >= 0:
            fill(0, sdeg, [])
        found.sort(key=mono_key)
        self._monos_cache[sdeg] = found
        return found

    def _eliminate(self, vec, combo, echelon):
        """Reduce (vec, combo) against the echelon.

        Works through the smallest remaining monomial row; each echelon
        vector leads at its pivot row, so the frontier strictly increases.
        Returns the first uncovered row (the pivot for a new column) or
        None when the column eliminates completely.
        """
        while vec:
            r = min(vec)
            hit = echelon.get(r)
            if hit is None:
                return r
            c = vec[r]
            evec, ecombo = hit
            for rr, cc in evec.items():
                updated = vec.get(rr, Fraction(0)) - c * cc
                if updated:
                    vec[rr] = updated
                else:
                    vec.pop(rr, None)
            for key, cc in ecombo.items():
                updated = combo.get(key, Fraction(0)) - c * cc
                if updated:
                    combo[key] = updated
                else:
                    combo.pop(key, None)
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
                for jm, jc in self.jacobian[i].terms.items():
                    row = index[mono_mul(m, jm)]
                    vec[row] = vec.get(row, Fraction(0)) + jc
                vec = {r: c for r, c in vec.items() if c}
                combo = {("g", i, m): Fraction(1)}
                pivot = self._eliminate(vec, combo, echelon)
                if pivot is not None:
                    inv = 1 / vec[pivot]
                    echelon[pivot] = (
                        {r: c * inv for r, c in vec.items()},
                        {k: c * inv for k, c in combo.items()},
                    )
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
            vec = {index[bm]: Fraction(1)}
            combo = {("b", bm): Fraction(1)}
            pivot = self._eliminate(vec, combo, echelon)
            if pivot is None:
                raise ValueError(
                    f"designated basis monomial {bm} is not independent "
                    "modulo the Jacobian ideal"
                )
            inv = 1 / vec[pivot]
            echelon[pivot] = (
                {r: c * inv for r, c in vec.items()},
                {k: c * inv for k, c in combo.items()},
            )
        sys = _DegreeSystem(monos, index, echelon, basis_monos)
        self._systems[sdeg] = sys
        return sys

    def solve_monomial(self, mono) -> tuple[dict, dict]:
        """Express a monomial as basis combination plus Jacobian-ideal part.

        Returns (basis coefficients {mono: c}, generator combination
        {(var, mono): c}); the expression is exact.
        """
        sdeg = self.sdeg(mono)
        sys = self.system(sdeg)
        cached = sys.solutions.get(mono)
        if cached is not None:
            return cached
        vec = {sys.index[mono]: Fraction(1)}
        combo: dict = {}
        leftover = self._eliminate(vec, combo, sys.echelon)
        if leftover is not None:
            raise NonIsolatedSingularityError(
                "Jacobian quotient persists at scaled degree "
                f"{sdeg}/{self.scale}: monomial {mono} is not reachable",
                degree=Fraction(sdeg, self.scale),
            )
        basis_part = {}
        gen_part = {}
        for key, c in combo.items():
            if key[0] == "b":
                basis_part[key[1]] = -c
            else:
                gen_part[(key[1], key[2])] = -c
        result = (basis_part, gen_part)
        sys.solutions[mono] = result
        return result


class MilnorData:
    """Milnor number, graded monomial basis, socle, and residue pairing.

    Immutable after construction apart from internal memoization of division
    witnesses; intended for single-threaded construction and read-mostly use.
    """

    __slots__ = (
        "f",
        "mu",
        "basis",
        "degrees",
        "socle",
        "eta",
        "hessian_socle_factor",
        "_divider",
        "_basis_index",
        "_reduce_cache",
    )

    def __init__(self, f, mu, basis, degrees, socle, eta, hess_factor, divider):
        self.f = f
        self.mu = mu
        self.basis = tuple(basis)
        self.degrees = tuple(degrees)
        self.socle = socle
        self.eta = eta
        self.hessian_socle_factor = hess_factor
        self._divider = divider
        self._basis_index = {m: i for i, m in enumerate(self.basis)}
        self._reduce_cache = {}

    @property
    def central_charge(self) -> Fraction:
        return central_charge(self.f)

    def basis_index(self, mono) -> int:
        return self._basis_index[mono]

    def basis_strings(self) -> list[str]:
        return [mono_str(m, self.f.variables) for m in self.basis]

    def reduce_monomial_class(self, mono) -> dict:
        """Basis coefficients of a monomial's class in the Jacobian algebra."""
        basis_part, _ = self._divider.solve_monomial(mono)
        return {self._basis_index[m]: c for m, c in basis_part.items()}

    def __repr__(self):
        return f"MilnorData({self.f.render()}, mu={self.mu})"


def _expected_milnor_number(f: WeightedPolynomial) -> Fraction:
    mu = Fraction(1)
    for q in f.weights:
        mu *= 1 / q - 1
    return mu


def milnor_basis(f: WeightedPolynomial, basis=None) -> MilnorData:
    """Compute the graded monomial basis of C[x]/(df) and the pairing.

    `basis`, when given, is a full list of monomials (exponent tuples) to use
    instead of the canonical choice; it is validated for independence and for
    matching the graded dimensions.  Rejects non-isolated singularities: the
    quotient must vanish strictly above the socle degree (the central charge).
    """
    for i, dpoly in enumerate(f.poly.diff(i) for i in range(f.nvars)):
        if not dpoly:
            raise NonIsolatedSingularityError(
                f"f does not depend on {f.variables[i]}; the singularity is not isolated"
            )
    divider = _JacobianDivider(f)
    c_hat = central_charge(f)
    socle_sdeg = int(c_hat * divider.scale)
    cap = socle_sdeg + max(divider.gen_sdegs)

    if basis is not None:
        designated: dict[int, list] = {}
        for m in basis:
            m = tuple(int(e) for e in m)
            designated.setdefault(divider.sdeg(m), []).append(m)
        divider.designated = designated

    found = []
    for sdeg in range(cap + 1):
        sys = divider.system(sdeg)
        if sys.basis_monos and sdeg > socle_sdeg:
            raise NonIsolatedSingularityError(
                "quotient is nonzero at weighted degree "
                f"{format_rational(Fraction(sdeg, divider.scale))}, above the "
                f"socle degree {format_rational(c_hat)}",
                degree=Fraction(sdeg, divider.scale),
            )
        for m in sys.basis_monos:
            found.append((sdeg, m))

    expected = _expected_milnor_number(f)
    if expected.denominator != 1 or len(found) != expected:
        raise NonIsolatedSingularityError(
            f"quotient dimension {len(found)} does not match the weight "
            f"formula {format_rational(expected)}"
        )
    mu = int(expected)

    if basis is not None:
        ordered = [tuple(int(e) for e in m) for m in basis]
    else:
        ordered = [m for _, m in sorted(found, key=lambda sm: (sm[0], mono_key(sm[1])))]
    degrees = [weighted_degree(m, f.weights) for m in ordered]

    socle_monos = [m for m in ordered if weighted_degree(m, f.weights) == c_hat]
    if len(socle_monos) != 1:
        raise NonIsolatedSingularityError(
            f"expected a one-dimensional socle, found {len(socle_monos)} monomials"
        )
    socle = socle_monos[0]

    data = MilnorData(f, mu, ordered, degrees, socle, None, None, divider)
    eta, hess_factor = residue_pairing(data, f)
    data.eta = eta
    data.hessian_socle_factor = hess_factor
    return data


def divide_by_jacobian(g: Poly, data: MilnorData):
    """Write g = sum(coeffs_a * phi_a) + sum(quotients_i * d_i f) exactly.

    Returns (coeffs, quotients): mu rational coefficients and one polynomial
    per variable.  General g is handled weighted-homogeneous component by
    component.
    """
    f = data.f
    if g.nvars != f.nvars:
        raise ValueError("polynomial is over a different variable set")
    coeffs = [Fraction(0)] * data.mu
    quotients = [Poly.zero(f.nvars) for _ in range(f.nvars)]
    divider = data._divider
    for mono, c in g.terms.items():
        basis_part, gen_part = divider.solve_monomial(mono)
        for bm, bc in basis_part.items():
            coeffs[data.basis_index(bm)] += c * bc
        for (var, qm), qc in gen_part.items():
            quotients[var].terms[qm] = quotients[var].terms.get(qm, Fraction(0)) + c * qc
    quotients = [Poly(f.nvars, q.terms) for q in quotients]
    return coeffs, quotients


def hessian_determinant(f: WeightedPolynomial) -> Poly:
    """det(d_i d_j f) as an exact polynomial."""
    n = f.nvars
    second = [[f.poly.diff(i).diff(j) for j in range(n)] for i in range(n)]

    def det(rows_idx, cols_idx):
        if len(rows_idx) == 1:
            return second[rows_idx[0]][cols_idx[0]]
        total = Poly.zero(n)
        sign = 1
        for k, col in enumerate(cols_idx):
            minor = det(rows_idx[1:], cols_idx[:k] + cols_idx[k + 1 :])
            term = second[rows_idx[0]][col] * minor
            total = total + term.scale(sign)
            sign = -sign
        return total

    return det(tuple(range(n)), tuple(range(n)))


def residue_pairing(data: MilnorData, f: WeightedPolynomial | None = None):
    """Residue pairing eta on the basis, normalized by Res(hess f) = mu.

    eta[a][b] = r_ab * mu / h, where phi_a*phi_b = r_ab*socle and
    hess(f) = h*socle modulo the Jacobian ideal.  Returns (eta, h).
    """
    f = f or data.f
    hess = hessian_determinant(f)
    socle_idx = data.basis_index(data.socle)
    hess_coeffs, _ = divide_by_jacobian(hess, data)
    h = hess_coeffs[socle_idx]
    if not h:
        raise ArithmeticError("hessian vanishes in the Jacobian algebra; data is inconsistent")
    c_hat = central_charge(f)
    scale = Fraction(data.mu) / h
    mu = data.mu
    eta = [[Fraction(0)] * mu for _ in range(mu)]
    for a in range(mu):
        for b in range(a, mu):
            if data.degrees[a] + data.degrees[b] != c_hat:
                continue
            product = mono_mul(data.basis[a], data.basis[b])
            classes = data.reduce_monomial_class(product)
            r = classes.get(socle_idx, Fraction(0))
            if r:
                eta[a][b] = eta[b][a] = r * scale
    if not mat_det(eta):
        raise ArithmeticError("residue pairing is degenerate; data is inconsistent")
    return tuple(tuple(row) for row in eta), h
