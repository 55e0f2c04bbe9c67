"""Flat structure extraction: flat coordinates, prepotential, and the
associativity / grading / integrability checks.

The flat coordinates t(s) are the z^(-1) components of J, and their inverse
s(t) is the fixed point of s = t - u(s), u the nonlinear part of t(s).  The
prepotential is integrated from the z^(-2) components contracted with the
residue pairing,

    d F0 / d t_a  =  sum_b eta_ab J_(-2)^b (s(t)),

with the constant, linear, and quadratic parts normalized to zero.  Each
pass of the fixed point and J_(-2)(s(t)) itself substitute s(t) directly
into every monomial, u(s(t)) = sum_J u_J s(t)^J, sharing the powers s(t)^J
among the series of one substitution.  The gradient must be exactly
curl-free before integration; a failure signals a convention bug and is
raised, never tolerated.  All series in t are truncated by total degree at
the same order as the s-expansion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add

from .algebra import SSeries, format_rational, mat_inv, mono_key, mono_str
from .milnor import MilnorData
from .primitive import PrimitiveFormResult


class IntegrabilityError(ArithmeticError):
    """The candidate gradient of the prepotential is not curl-free."""


def flat_coordinates(result: PrimitiveFormResult) -> list[SSeries]:
    """t_a(s) = J_(-1)^a; the leading part is s_a itself."""
    return result.j_components(-1)


def substitute(series: list[SSeries], s_of_t: list[SSeries]) -> list[SSeries]:
    """Every u in series evaluated at s = s_of_t(t), as sum_J u_J s(t)^J.

    Each monomial s^J is visited as its sorted word of variable indices
    (s_1^2 s_3 is (0, 0, 2)), and the words are walked in sorted order, so
    consecutive words share their longest common prefix.  A stack holds
    s(t)^w for the prefixes w of the current word only, each entry the one
    below it times one coordinate series; the powers are shared by all the
    series of one call.
    """
    nv = s_of_t[0].nvars
    uses: dict = {}
    for i, u in enumerate(series):
        for mono, coeff in u.terms.items():
            word = tuple(v for v, e in enumerate(mono) for _ in range(e))
            uses.setdefault(word, []).append((i, coeff))
    stack = [SSeries.const(nv, s_of_t[0].order, 1)]  # stack[k] = s(t)^word[:k]
    prev: tuple = ()
    out = [{} for _ in series]
    for word in sorted(uses):
        common = 0
        while common < min(len(prev), len(word)) and prev[common] == word[common]:
            common += 1
        del stack[common + 1:]
        for v in word[common:]:
            stack.append(stack[-1] * s_of_t[v])
        prev = word
        for i, coeff in uses[word]:
            acc = out[i]
            for mono, c in stack[-1].terms.items():
                acc[mono] = acc.get(mono, 0) + coeff * c
    return [SSeries(nv, u.order, acc) for u, acc in zip(series, out)]


def invert_coordinates(t_of_s: list[SSeries], order: int) -> list[SSeries]:
    """Inverse series s(t) of a coordinate change with identity linear part.

    Fixed-point iteration on s = t - u(s) where u is the nonlinear part;
    each pass fixes one more total degree.
    """
    mu = len(t_of_s)
    u = []
    for alpha, t in enumerate(t_of_s):
        linear = t.degree_part(1)
        if linear != SSeries.variable(mu, alpha, t.order):
            raise ValueError("coordinate change does not have identity linear part")
        if t.degree_part(0):
            raise ValueError("coordinate change must vanish at the origin")
        u.append((t - linear).truncate(order))
    s = identity = [SSeries.variable(mu, a, order) for a in range(mu)]
    for _ in range(max(order - 1, 0)):
        s = [t_a - w for t_a, w in zip(identity, substitute(u, s))]
    return s


class FrobeniusData:
    """Flat coordinates, their inverse, the flat metric, and the prepotential."""

    __slots__ = ("t_of_s", "s_of_t", "eta_flat", "prepotential", "order")

    def __init__(self, t_of_s, s_of_t, eta_flat, prepotential, order):
        self.t_of_s = t_of_s
        self.s_of_t = s_of_t
        self.eta_flat = eta_flat
        self.prepotential = prepotential
        self.order = order


def prepotential(result: PrimitiveFormResult, milnor: MilnorData) -> FrobeniusData:
    """Integrate the flat-frame gradient eta * J_(-2) into the prepotential.

    Below order 3 the normalized prepotential is zero.
    """
    mu, order = milnor.mu, result.order
    t_of_s = flat_coordinates(result)
    s_of_t = invert_coordinates(t_of_s, order)
    j_minus2_t = substitute(result.j_components(-2), s_of_t)
    eta = milnor.eta
    gradient = []
    for a in range(mu):
        g = SSeries.zero(mu, order)
        for b in range(mu):
            if eta[a][b]:
                g = g + j_minus2_t[b].scale(eta[a][b])
        gradient.append(g)

    for a in range(mu):
        for b in range(a + 1, mu):
            if gradient[a].diff(b) != gradient[b].diff(a):
                raise IntegrabilityError(
                    f"mixed second derivatives differ for coordinates {a + 1}, {b + 1}"
                )

    euler_sum = SSeries.zero(mu, order)
    for a in range(mu):
        euler_sum = euler_sum + gradient[a].shift_variable(a)
    f0 = SSeries.zero(mu, order)
    for d in range(3, order + 1):
        f0 = f0 + euler_sum.degree_part(d).scale(Fraction(1, d))

    for a in range(mu):
        if f0.diff(a) - gradient[a]:
            raise IntegrabilityError("integrated prepotential does not match its gradient")

    return FrobeniusData(t_of_s, s_of_t, milnor.eta, f0, order)


def four_point_function(f0: SSeries) -> SSeries:
    """The homogeneous degree-4 part of the prepotential."""
    return f0.degree_part(4)


class CheckReport:
    """Outcome of an exact verification pass; violations are data, not errors."""

    __slots__ = ("name", "violations", "checked")

    def __init__(self, name: str, violations: list, checked: int):
        self.name = name
        self.violations = violations
        self.checked = checked

    @property
    def passed(self) -> bool:
        return not self.violations

    def __repr__(self):
        state = "pass" if self.passed else f"{len(self.violations)} violations"
        return f"CheckReport({self.name}: {state}, {self.checked} checks)"


def _third_derivatives(f0: SSeries, check_order: int) -> dict:
    """F_abe for a <= b <= e, straight from the terms of f0.

    Each value maps total degree to the (monomial, coefficient) pairs of
    that degree, ascending; terms above check_order are dropped.
    """
    third: dict = {}
    for mono, coeff in f0.terms.items():
        if sum(mono) - 3 > check_order:
            continue
        support = [i for i, e in enumerate(mono) if e]
        for key in combinations_with_replacement(support, 3):
            lowered = list(mono)
            value = coeff
            for i in key:
                value *= lowered[i]
                lowered[i] -= 1
            if value:
                third.setdefault(key, {})[tuple(lowered)] = value
    return {key: _graded(terms) for key, terms in third.items()}


def _graded(terms: dict) -> list:
    """[(degree, [(monomial, coefficient), ...]), ...] by ascending degree,
    zero coefficients dropped."""
    buckets: dict = {}
    for mono, coeff in terms.items():
        if coeff:
            buckets.setdefault(sum(mono), []).append((mono, coeff))
    return sorted(buckets.items())


def wdvv_check(f0: SSeries, eta, order: int) -> CheckReport:
    """Associativity of the third-derivative tensor, exact modulo truncation.

    For every index quadruple (a, b, c, d) the contraction
    X_abcd = sum_{e,f} F_abe eta^{ef} F_fcd must be symmetric under swapping
    b and c.  Third derivatives of a degree-(<= order) series are exact only
    through total degree order - 3, so the comparison is restricted to that
    range.

    Only products that can be nonzero are formed.  F_abe is built from the
    terms of f0 for a <= b <= e, and graded by total degree.  The index is
    raised through the nonzero entries of eta^-1 only.  For one first index
    a at a time, X_a[(b, c, d)] = sum_f L_ab^f F_fcd (L_ab^f the raised
    F_abe) is formed for c <= d, skipping term pairs whose degrees add up
    past order - 3; X_abcd is compared with X_acbd for every b < c and
    every d, and the slice is dropped before the next a.  ``checked``
    counts every quadruple compared.
    """
    mu = len(eta)
    check_order = order - 3
    if check_order < 0:
        raise ValueError("WDVV needs the prepotential through order >= 3")
    if f0.nvars != mu:
        raise ValueError(f"prepotential has {f0.nvars} variables, pairing has {mu}")
    eta_inv = mat_inv([list(row) for row in eta])
    raising = [[(fi, v) for fi, v in enumerate(row) if v] for row in eta_inv]

    third = _third_derivatives(f0, check_order)
    # For each f, the (c, d) with c <= d and F_fcd nonzero.
    pairs: dict = {}
    for (i, j, k), graded in third.items():
        for fi, pair in {(i, (j, k)), (j, (i, k)), (k, (i, j))}:
            pairs.setdefault(fi, []).append((pair, graded))

    violations = []
    checked = 0
    for a in range(mu):
        x_a: dict = {}
        for b in range(mu):
            raised: dict = {}
            for e in range(mu):
                graded = third.get(tuple(sorted((a, b, e))))
                if graded is None:
                    continue
                for fi, g in raising[e]:
                    acc = raised.setdefault(fi, {})
                    for _, items in graded:
                        for mono, coeff in items:
                            acc[mono] = acc.get(mono, 0) + coeff * g
            for fi, terms in raised.items():
                left = _graded(terms)
                for (c, d), right in pairs.get(fi, ()):
                    acc = x_a.setdefault((b, c, d), {})
                    for dl, litems in left:
                        for dr, ritems in right:
                            if dl + dr > check_order:
                                break
                            for ml, cl in litems:
                                for mr, cr in ritems:
                                    m = tuple(map(add, ml, mr))
                                    acc[m] = acc.get(m, 0) + cl * cr
        for b in range(mu):
            for c in range(b + 1, mu):
                for d in range(mu):
                    checked += 1
                    left = x_a.get((b, min(c, d), max(c, d)), {})
                    right = x_a.get((c, min(b, d), max(b, d)), {})
                    if left == right:
                        continue
                    keys = left.keys() | right.keys()
                    diff = {m: left.get(m, 0) - right.get(m, 0) for m in keys}
                    for mono in sorted((m for m, v in diff.items() if v), key=mono_key):
                        violations.append(
                            {
                                "indices": (a + 1, b + 1, c + 1, d + 1),
                                "monomial": mono,
                                "difference": format_rational(diff[mono]),
                            }
                        )
    return CheckReport("wdvv", violations, checked)


def euler_check(f0: SSeries, flat_degrees, c_hat: Fraction) -> CheckReport:
    """Every prepotential monomial must have flat weighted degree 3 - c_hat."""
    target = 3 - c_hat
    violations = []
    checked = 0
    for mono, coeff in f0.sorted_terms():
        checked += 1
        degree = sum((Fraction(k) * d for k, d in zip(mono, flat_degrees)), Fraction(0))
        if degree != target:
            violations.append(
                {
                    "monomial": mono,
                    "coefficient": format_rational(coeff),
                    "degree": format_rational(degree),
                    "expected": format_rational(target),
                }
            )
    return CheckReport("euler", violations, checked)


def normalization_check(f0: SSeries) -> CheckReport:
    """Record-level integrability: F0 has no terms below total degree 3.

    The substantive curl-free test runs inside prepotential(), which raises
    on failure; a stored record carries only F0 itself, whose third
    derivatives commute for every series, so what remains to check on it is
    the normalization that drops the constant, linear and quadratic parts.
    """
    violations = []
    checked = 0
    for mono, coeff in f0.sorted_terms():
        checked += 1
        if sum(mono) < 3:
            violations.append(
                {"monomial": mono, "coefficient": format_rational(coeff), "reason": "degree < 3"}
            )
    return CheckReport("integrability", violations, checked)


def prepotential_record(
    milnor: MilnorData, frob: FrobeniusData, singularity: str, checks: dict
) -> dict:
    """Assemble the canonical output record for a computed prepotential."""
    f = milnor.f
    return {
        "kind": "prepotential",
        "singularity": singularity,
        "variables": list(f.variables),
        "weights": [format_rational(q) for q in f.weights],
        "order": frob.order,
        "central_charge": format_rational(milnor.central_charge),
        "basis": [mono_str(m, f.variables) for m in milnor.basis],
        "flat_degrees": [format_rational(1 - d) for d in milnor.degrees],
        "eta": [[format_rational(v) for v in row] for row in milnor.eta],
        "terms": frob.prepotential.to_records(),
        "checks": checks,
    }


def verify_record(record: dict) -> dict[str, CheckReport]:
    """Re-run the exact checks on a stored prepotential record."""
    mu = len(record["basis"])
    order = int(record["order"])
    f0 = SSeries.from_records(record["terms"], mu, order)
    eta = tuple(
        tuple(Fraction(v) for v in row) for row in record["eta"]
    )
    flat_degrees = [Fraction(d) for d in record["flat_degrees"]]
    c_hat = Fraction(record["central_charge"])
    return {
        "wdvv": wdvv_check(f0, eta, order),
        "euler": euler_check(f0, flat_degrees, c_hat),
        "integrability": normalization_check(f0),
    }
