"""Universal unfolding and the perturbative primitive-form recursion.

The unfolding is F = f + sum_a s_a phi_a over the Milnor basis, with
parameter degrees deg(s_a) = 1 - deg(phi_a).  The recursion solves

    exp((F - f)/z) * zeta = J

for the unique pair with zeta in B[[z]][[s]] normalized to the volume form
at s = 0 and J in [d^n x] + z^(-1) B[z^(-1)] [[s]].  Order by order in
total s-degree k the equation reads

    zeta_k + K_k = J_k,   K_k = sum_{m=1..k} (F-f)^m / (m! z^m) * zeta_{k-m},

with the product taken through canonical lattice reduction.  Since zeta_k
lives at z >= 0 and J_k at z <= -1, the split of the fully reduced K_k
determines both: zeta_k is minus its nonnegative part, J_k its negative
part.  Every step is a finite exact computation because (F - f) carries
exactly one s-degree per factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import LaurentBlock, SSeries, mono_mul, weighted_degree
from .brieskorn import monomial_class
from .milnor import MilnorData, WeightedPolynomial


class UnfoldingState:
    """The unfolding F, its parameter grading, and the truncation order."""

    __slots__ = ("base", "milnor", "order", "s_degrees", "F_minus_f", "_powers")

    def __init__(self, base: WeightedPolynomial, milnor: MilnorData, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.base = base
        self.milnor = milnor
        self.order = order
        self.s_degrees = tuple(1 - d for d in milnor.degrees)
        mu = milnor.mu
        self.F_minus_f = {
            mono: SSeries.variable(mu, alpha, order)
            for alpha, mono in enumerate(milnor.basis)
        }
        self._powers = None

    @property
    def mu(self) -> int:
        return self.milnor.mu

    def deformation_powers(self) -> list[dict]:
        """(F - f)^m for m = 0..order, as {x-monomial: s-series} maps."""
        if self._powers is None:
            mu, order = self.mu, self.order
            unit = (0,) * self.base.nvars
            powers = [{unit: SSeries.const(mu, order, 1)}]
            for _ in range(order):
                prev = powers[-1]
                nxt: dict = {}
                for ma, ca in prev.items():
                    for mb, cb in self.F_minus_f.items():
                        m = mono_mul(ma, mb)
                        prod = ca * cb
                        if m in nxt:
                            nxt[m] = nxt[m] + prod
                        else:
                            nxt[m] = prod
                powers.append({m: c for m, c in nxt.items() if c})
            self._powers = powers
        return self._powers


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

    def to_record(self) -> dict:
        """Canonical serialization {order, zeta, J}."""
        mu = self.state.mu
        return {
            "order": self.order,
            "zeta": self.zeta.to_records(mu),
            "J": self.J.to_records(mu),
        }

    @staticmethod
    def parse_record(record: dict) -> tuple[int, LaurentBlock, LaurentBlock]:
        """Read back (order, zeta, J) from a serialized result."""
        order = int(record["order"])
        rows = record["zeta"] or record["J"]
        if not rows:
            raise ValueError("record carries no lattice data")
        mu = len(rows[0]["components"])
        zeta = LaurentBlock.from_records(record["zeta"], nvars=mu, order=order)
        j = LaurentBlock.from_records(record["J"], nvars=mu, order=order)
        return order, zeta, j


def _accumulate_product(
    target: LaurentBlock,
    power: dict,
    basis_mono: tuple,
    coeff: SSeries,
    data: MilnorData,
    z_shift: int,
    scalar: Fraction,
) -> None:
    """target += scalar * z^z_shift * reduce(power * phi * coeff)."""
    for fmono, fcoeff in power.items():
        series = coeff * fcoeff
        if not series:
            continue
        for zp, vec in monomial_class(mono_mul(fmono, basis_mono), data).items():
            for idx, frac in vec.items():
                target.add_term(zp + z_shift, idx, series * (frac * scalar))


def solve_star(state: UnfoldingState) -> PrimitiveFormResult:
    """Run the recursion order by order in total s-degree.

    Deterministic: no randomized choices anywhere, so repeated runs produce
    identical objects.
    """
    milnor = state.milnor
    mu, order = state.mu, state.order
    basis = milnor.basis
    one = SSeries.const(mu, order, 1)
    powers = state.deformation_powers()

    zeta_slices = [LaurentBlock({0: {0: one}})]
    zeta = LaurentBlock({0: {0: one}})
    J = LaurentBlock({0: {0: one}})

    for k in range(1, order + 1):
        known = LaurentBlock()
        for m in range(1, k + 1):
            inv_fact = Fraction(1, factorial(m))
            for zp, vec in zeta_slices[k - m].z_terms.items():
                for beta, coeff in vec.items():
                    _accumulate_product(
                        known, powers[m], basis[beta], coeff, milnor, zp - m, inv_fact
                    )
        nonneg, neg = known.split()
        zeta_k = nonneg.scale(Fraction(-1))
        zeta_slices.append(zeta_k)
        zeta.accumulate(zeta_k)
        J.accumulate(neg)

    return PrimitiveFormResult(zeta, J, order, state)


def defect(result: PrimitiveFormResult) -> LaurentBlock:
    """Fully re-reduced exp((F-f)/z) * zeta - J, modulo s-order order+1.

    This is the self-consistency oracle: it recombines the solved zeta with
    the exponential factor through genuine lattice reduction (not the
    order-sliced bookkeeping of the solver) and must come out exactly zero.
    """
    state = result.state
    milnor = state.milnor
    basis = milnor.basis
    powers = state.deformation_powers()
    total = LaurentBlock()
    for m in range(0, state.order + 1):
        inv_fact = Fraction(1, factorial(m))
        for zp, vec in result.zeta.z_terms.items():
            for beta, coeff in vec.items():
                _accumulate_product(
                    total, powers[m], basis[beta], coeff, milnor, zp - m, inv_fact
                )
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
