"""Universal unfolding and the perturbative primitive-form recursion.

The unfolding is F = f + sum_a s_a phi_a over the Milnor basis, with
parameter degrees deg(s_a) = 1 - deg(phi_a).  The recursion solves

    exp((F - f)/z) * zeta = J

for the unique pair with zeta in B[[z]][[s]] normalized to the volume form
at s = 0 and J in [d^n x] + z^(-1) B[z^(-1)] [[s]].  Order by order in
total s-degree k the equation reads

    zeta_k + K_k = J_k,   K_k = sum_{m=1..k} E_m z^(-m) * zeta_{k-m},

where E_m = sum_{|n|=m} s^n phi^n / n! is the s-degree-m part of
exp(F - f) (a sum over multi-indices n, with phi^n = prod_a phi_a^n_a and
n! = prod_a n_a!), and the product is taken through canonical lattice
reduction.  Since zeta_k lives at z >= 0 and J_k at z <= -1, the split of
the fully reduced K_k determines both: zeta_k is minus its nonnegative
part, J_k its negative part.  Every step is a finite exact computation
because E_m is homogeneous of s-degree m.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

from .algebra import LaurentBlock, SSeries, mono_mul, weighted_degree
from .brieskorn import monomial_class
from .milnor import MilnorData, WeightedPolynomial


class UnfoldingState:
    """The unfolding F, its parameter grading, and the truncation order."""

    __slots__ = ("base", "milnor", "order", "s_degrees", "_parts")

    def __init__(self, base: WeightedPolynomial, milnor: MilnorData, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.base = base
        self.milnor = milnor
        self.order = order
        self.s_degrees = tuple(1 - d for d in milnor.degrees)
        self._parts = None

    @property
    def mu(self) -> int:
        return self.milnor.mu

    def exp_parts(self) -> list[dict]:
        """The s-degree-m parts of exp(F - f) for m = 0..order, each as an
        {x-monomial: s-series} map: sum over |n| = m of s^n phi^n / n!."""
        if self._parts is None:
            mu, order, basis = self.mu, self.order, self.milnor.basis
            unit = (0,) * self.base.nvars
            parts = []
            for m in range(order + 1):
                part: dict = {}
                for word in combinations_with_replacement(range(mu), m):
                    n = [0] * mu
                    for a in word:
                        n[a] += 1
                    x_mono = tuple(map(sum, zip(unit, *(basis[a] for a in word))))
                    coeff = Fraction(1, prod(map(factorial, n)))
                    part.setdefault(x_mono, {})[tuple(n)] = coeff
                parts.append({x: SSeries(mu, order, terms) for x, terms in part.items()})
            self._parts = parts
        return self._parts


def build_unfolding(f: WeightedPolynomial, milnor: MilnorData, order: int) -> UnfoldingState:
    """Attach deformation parameters s_a (one per basis class) to f."""
    return UnfoldingState(f, milnor, order)


class PrimitiveFormResult:
    """The solved pair (zeta, J) at a given s-order."""

    __slots__ = ("zeta", "J", "order", "state")

    def __init__(self, zeta: LaurentBlock, J: LaurentBlock, order: int, state: UnfoldingState):
        self.zeta = zeta
        self.J = J
        self.order = order
        self.state = state

    def j_components(self, m: int) -> list[SSeries]:
        """The mu component series of J at z power m (m <= -1)."""
        if m > -1:
            raise ValueError("z^0 and above of J is the fixed volume-form class")
        mu, order = self.state.mu, self.order
        vec = self.J.component(m)
        return [vec.get(a, SSeries.zero(mu, order)) for a in range(mu)]

    def truncated(self, order: int) -> "PrimitiveFormResult":
        """Restrict to a lower s-order (for truncation-stability checks)."""
        if order > self.order:
            raise ValueError("cannot extend a solved result")

        def cut(block: LaurentBlock) -> LaurentBlock:
            return LaurentBlock(
                {
                    zp: {i: c.truncate(order) for i, c in vec.items()}
                    for zp, vec in block.z_terms.items()
                }
            )

        state = UnfoldingState(self.state.base, self.state.milnor, order)
        return PrimitiveFormResult(cut(self.zeta), cut(self.J), order, state)


def _accumulate_product(
    target: LaurentBlock, part: dict, block: LaurentBlock, data: MilnorData, z_shift: int
) -> None:
    """target += z^z_shift * reduce(part * block), for a block of zeta."""
    basis = data.basis
    for zq, vec in block.z_terms.items():
        for beta, coeff in vec.items():
            for fmono, fcoeff in part.items():
                series = coeff * fcoeff
                if not series:
                    continue
                for zp, cls in monomial_class(mono_mul(fmono, basis[beta]), data).items():
                    for idx, frac in cls.items():
                        target.add_term(zp + zq + z_shift, idx, series * frac)


def solve_star(state: UnfoldingState) -> PrimitiveFormResult:
    """Run the recursion order by order in total s-degree.

    Deterministic: no randomized choices anywhere, so repeated runs produce
    identical objects.
    """
    milnor = state.milnor
    one = SSeries.const(state.mu, state.order, 1)
    parts = state.exp_parts()

    # Both start at the volume form: the monomial 1, wherever the basis puts it.
    unit = milnor.basis_index((0,) * milnor.f.nvars)
    zeta_slices = [LaurentBlock({0: {unit: one}})]
    zeta = LaurentBlock({0: {unit: one}})
    J = LaurentBlock({0: {unit: one}})

    for k in range(1, state.order + 1):
        known = LaurentBlock()
        for m in range(1, k + 1):
            _accumulate_product(known, parts[m], zeta_slices[k - m], milnor, -m)
        nonneg, neg = known.split()
        zeta_k = nonneg.scale(Fraction(-1))
        zeta_slices.append(zeta_k)
        zeta.accumulate(zeta_k)
        J.accumulate(neg)

    return PrimitiveFormResult(zeta, J, state.order, state)


def defect(result: PrimitiveFormResult) -> LaurentBlock:
    """Fully re-reduced exp((F-f)/z) * zeta - J, modulo s-order order+1.

    This is the self-consistency oracle: it recombines the solved zeta with
    the exponential factor through genuine lattice reduction (not the
    order-sliced bookkeeping of the solver) and must come out exactly zero.
    """
    state = result.state
    total = LaurentBlock()
    for m, part in enumerate(state.exp_parts()):
        _accumulate_product(total, part, result.zeta, state.milnor, -m)
    for zp, vec in result.J.z_terms.items():
        for idx, c in vec.items():
            total.add_term(zp, idx, -c)
    return total


def defect_is_zero(result: PrimitiveFormResult) -> bool:
    return not defect(result)


def grading_violations(result: PrimitiveFormResult) -> list[dict]:
    """Terms violating the quasi-homogeneity of the solved pair.

    With deg z = 1 and deg s_a = 1 - d_a, every stored term z^m phi_a s^k
    must satisfy  deg(s^k) + m + d_a = 0.  Returns one record per violating
    term (empty when the grading holds).
    """
    state = result.state
    s_degrees = state.s_degrees
    degrees = state.milnor.degrees
    bad = []
    for name, block in (("zeta", result.zeta), ("J", result.J)):
        for zp, idx, series in block.iter_terms():
            for mono in series.terms:
                total = weighted_degree(mono, s_degrees) + zp + degrees[idx]
                if total != 0:
                    bad.append(
                        {
                            "part": name,
                            "z": zp,
                            "basis_index": idx,
                            "s_exponents": mono,
                            "degree_defect": total,
                        }
                    )
    return bad
