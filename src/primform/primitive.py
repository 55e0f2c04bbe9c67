"""Universal unfolding and the perturbative primitive-form recursion.

The unfolding is F = f + sum_a s_a phi_a over the Milnor basis, with
parameter degrees deg(s_a) = 1 - deg(phi_a).  The recursion solves

    exp((F - f)/z) * zeta = J

for the unique pair with zeta in B[[z]][[s]] normalized to the volume form
at s = 0 and J in [d^n x] + z^(-1) B[z^(-1)] [[s]], order by order in the
total s-degree, in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .algebra import (
    LaurentBlock,
    SSeries,
    graded,
    mono_mul,
    pack_monomial,
    unpack_monomial,
)
from .milnor import MilnorData, WeightedPolynomial, monomial_class


class UnfoldingState:
    """The unfolding F of milnor.f, its parameter grading, and the truncation
    order."""

    __slots__ = ("milnor", "order", "s_degrees", "_parts", "_classes", "_x_sdegs")

    def __init__(self, milnor: MilnorData, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.milnor = milnor
        self.order = order
        self.s_degrees = tuple(1 - d for d in milnor.degrees)
        self._parts, self._classes, self._x_sdegs = {}, {}, {}

    def exp_parts(self, floor: int) -> list[dict]:
        """The s-degree-m parts E_m of exp(F - f) for m = 0..order, times
        m!, where a product with zeta can reach z >= floor.

        E_m = sum_{|n|=m} s^n phi^n / n!, a sum over multi-indices n with
        phi^n = prod_a phi_a^n_a and n! = prod_a n_a!.  Every term
        s^n z^p phi_b of zeta and J has p + deg_s(n) + deg(phi_b) = 0, and
        zeta lives at p >= 0, so a term of zeta_j has p + deg(phi_b) <= j nu,
        nu = max(0, -min_a deg s_a).  A product of s^n in E_m with
        zeta_(k-m) thus lands at z <= (order - m) nu - deg_s(n), and only
        the s^n with deg_s(n) <= -floor + (order - m) nu are built: what is
        dropped, the solve would skip.  With floor = -order nothing is.

        Part m maps each x-monomial to its [(packed n, m!/n!)], so that it
        is m! E_m with int coefficients; each s^n is packed in base
        order + 1, as by `pack_monomial`.  Degrees are ints scaled by the
        lcm of the weight denominators, and the parts are cached per floor.
        The words' x-monomials are packed in base order e_max + 1, e_max >= 2
        the largest basis exponent: a word has at most order letters, so no
        digit carries, and each x-monomial is unpacked once, as a part's key.
        """
        parts = self._parts.get(floor)
        if parts is None:
            mu, order, basis = self.milnor.mu, self.order, self.milnor.basis
            scale, nvars = self.milnor._divider.scale, self.milnor.f.nvars
            digits = [(order + 1) ** a for a in range(mu)]
            x_base = order * max(2, *(e for mono in basis for e in mono)) + 1
            x_basis = [pack_monomial(mono, x_base) for mono in basis]
            # Appending a costs deg s_a + nu >= 0 of the slack -floor +
            # order nu: a word that overdraws it is dropped with every word
            # that extends it.  A basis need not be sorted by degree, so the
            # loop over a is not cut short.
            sdegs = [int(d * scale) for d in self.s_degrees]
            nu = max(0, -min(sdegs))
            costs = [sd + nu for sd in sdegs]
            # The words a_1 <= ... <= a_m of part m, each as (a_m, the
            # multiplicity of a_m, packed x-monomial, packed n, m!/n!,
            # slack): appending a to a word of part m - 1 adds digit a to n
            # and multiplies the coefficient by m / n_a.
            words = [(0, 0, 0, 0, 1, -floor * scale + order * nu)]
            parts = []
            for m in range(order + 1):
                if m:
                    longer = []
                    for last, tail, x, packed, coeff, slack in words:
                        for a in range(last, mu):
                            left = slack - costs[a]
                            if left < 0:
                                continue
                            run = tail + 1 if a == last else 1
                            x_a, n_a = x + x_basis[a], packed + digits[a]
                            longer.append((a, run, x_a, n_a, coeff * m // run, left))
                    words = longer
                part: dict = {}
                for _, _, x, packed, coeff, _ in words:
                    part.setdefault(x, []).append((packed, coeff))
                parts.append({unpack_monomial(x, x_base, nvars): t for x, t in part.items()})
            self._parts[floor] = parts
        return parts


def build_unfolding(f: WeightedPolynomial, milnor: MilnorData, order: int) -> UnfoldingState:
    """Attach deformation parameters s_a (one per basis class) to f, which
    must be the polynomial `milnor` was computed for."""
    g = milnor.f
    if (f.variables, f.weights, f.poly) != (g.variables, g.weights, g.poly):
        raise ValueError(f"the Milnor data is not that of {f.render()}")
    return UnfoldingState(milnor, order)


class PrimitiveFormResult:
    """The solved pair (zeta, J) at the unfolding's s-order, J held at z >= floor,
    each as the solve makes it: one (D_k, {(z, idx): [(packed, int)]}) per
    s-degree k = 0..order, its ints D_k times the true coefficients and s^n
    packed in base order + 1.  `J` is a Fraction view, built on each read."""

    __slots__ = ("zeta_slices", "j_slices", "state", "floor")

    def __init__(self, zeta_slices: list, j_slices: list, state: UnfoldingState, floor: int):
        self.zeta_slices = zeta_slices
        self.j_slices = j_slices
        self.state = state
        self.floor = floor

    @property
    def order(self) -> int:
        return self.state.order

    @property
    def J(self) -> LaurentBlock:
        return _block(self.j_slices, self.state.milnor.mu, self.order)

    def j_slices_at(self, m: int) -> list:
        """J at z power m <= -1 as one (D_k, {idx: [(packed, int)]}) per k.

        Below z^-order J is zero by degree, since its z^-j part has s-degree
        >= j; between z^-order and the floor it was not solved.
        """
        if m > -1:
            raise ValueError("z^0 and above of J is the fixed volume-form class")
        if -self.order <= m < self.floor:
            raise ValueError(f"J was solved only down to z^{self.floor}")
        return [
            (den, {idx: series for (zp, idx), series in terms.items() if zp == m})
            for den, terms in self.j_slices
        ]


def _reduced_products(
    state: UnfoldingState, floor: int, slices: list, k: int, first: int, den: int = 1
) -> tuple[int, dict]:
    """L and L * sum_{m=first..k} z^-m reduce(E_m zeta_{k-m}) on ints, at
    z >= floor, E_m from `state.exp_parts(floor)`.

    slices[j] is zeta_j as `PrimitiveFormResult` holds it.  The item
    (m, beta, x-monomial) stands for the product of part m at that
    x-monomial with zeta_{k-m} at beta, reduced through the class c of the
    x-monomial times phi_beta; its numerators are D_{k-m} m! R_c times the
    true ones.  The class of a monomial of weighted degree d lives at
    z <= d, so an item at zeta's z power zq lands at z <= zq - m + d: one
    whose bound is below the floor is skipped before its class is looked
    up, and of the others every class entry below the floor is dropped.
    Degrees are compared as ints scaled by the lcm of the weight
    denominators.  A first pass collects the items and L, the lcm of every
    D_{k-m} m! R_c and of `den`; the second adds each item's term pairs,
    times each class entry scaled up to L, straight into
    {(z, idx): {packed: int}}, left term by left term.  The classes come
    from `monomial_class`, which memoizes them on `state.milnor`, and are
    kept in the state's class table, `state._classes`[beta][x-monomial],
    beside the parts, so each pair is looked up once per state, by the
    first solve step or defect whose degree test it passes; and each
    x-monomial's scaled degree is kept in `state._x_sdegs`.  One dict per
    beta keeps the table smaller than one per x-monomial or one keyed by
    pairs, which matters for the peak memory of the solve.
    """
    parts, data, x_sdegs = state.exp_parts(floor), state.milnor, state._x_sdegs
    basis, divider = data.basis, data._divider
    basis_sdegs = [divider.sdeg(mono) for mono in basis]
    columns = [state._classes.setdefault(beta, {}) for beta in range(len(basis))]
    items, dens = [], {den}
    for m in range(first, k + 1):
        d_slice, zeta_terms = slices[k - m]
        if not zeta_terms:
            continue
        scale = d_slice * factorial(m)
        for x_mono, part in parts[m].items():
            x_sdeg = x_sdegs.get(x_mono)
            if x_sdeg is None:
                x_sdeg = x_sdegs[x_mono] = divider.sdeg(x_mono)
            for (zq, beta), series in zeta_terms.items():
                shift = zq - m
                if (shift - floor) * divider.scale + x_sdeg + basis_sdegs[beta] < 0:
                    continue
                column = columns[beta]
                found = column.get(x_mono)
                if found is None:
                    found = column[x_mono] = monomial_class(mono_mul(x_mono, basis[beta]), data)
                r_c, entries = found
                kept = [(zp + shift, idx, r) for zp, idx, r in entries if zp + shift >= floor]
                if kept:
                    d = scale * r_c
                    dens.add(d)
                    items.append((d, part, series, kept))
    den = lcm(*dens)
    acc: dict = {}
    for d, part, series, entries in items:
        factor = den // d
        for zp, idx, r in entries:
            r *= factor
            slot = acc.setdefault((zp, idx), {})
            for ml, cl in part:
                cl *= r
                for mr, cr in series:
                    key = ml + mr
                    slot[key] = slot.get(key, 0) + cl * cr
    return den, acc


def _block(slices, mu: int, order: int) -> LaurentBlock:
    """The Fraction view of (den, {(z, idx): [(packed, int)]}) slices of
    distinct s-degrees, each packed monomial unpacked where it is read.
    Kept only because perfbench/tracing.py counts J's terms through
    `result.J.iter_terms()`; ROADMAP item 14 removes it."""
    z_terms: dict = {}
    for den, vec in slices:
        for (zp, idx), series in vec.items():
            slot = z_terms.setdefault(zp, {}).setdefault(idx, {})
            for p, v in series:
                slot[unpack_monomial(p, order + 1, mu)] = Fraction(v, den)
    return LaurentBlock({
        zp: {idx: SSeries(mu, order, terms) for idx, terms in vec.items()}
        for zp, vec in z_terms.items()
    })


def solve_star(state: UnfoldingState, floor: int = -2) -> PrimitiveFormResult:
    """Run the recursion order by order in total s-degree, J down to z^floor.

    At s-degree k the equation reads

        zeta_k + K_k = J_k,   K_k = sum_{m=1..k} z^(-m) E_m zeta_{k-m},

    with E_m from `UnfoldingState.exp_parts` and each product reduced in
    the lattice.  Since zeta_k lives at z >= 0 and J_k at z <= -1, the
    split of the reduced K_k gives both: zeta_k is minus its nonnegative
    part, J_k its negative part.  Each step is finite and exact, because
    E_m is homogeneous of s-degree m.

    The flat structure reads J only at z^-1 and z^-2, so by default the
    products below z^-2 are never formed; floor = -state.order gives the
    whole J.  zeta is exact at any floor <= 0, since the recursion reads
    only zeta and zeta lives at z >= 0.  Each zeta_k is kept as int
    numerators over one denominator D_k (the lcm of its reduced
    denominators), and J_k over the L of its order, and the result holds
    these slices as they are.  Deterministic: no randomized choices
    anywhere, so repeated runs produce identical objects.
    """
    if floor > 0:
        raise ValueError("the J floor must be <= 0: zeta lives at z >= 0")
    milnor, order = state.milnor, state.order

    # Both start at the volume form: the monomial 1, wherever the basis puts it.
    volume = {(0, milnor.basis_index[(0,) * milnor.f.nvars]): [(0, 1)]}
    zeta_slices = [(1, volume)]
    j_slices = [(1, volume)]
    for k in range(1, order + 1):
        den, acc = _reduced_products(state, floor, zeta_slices, k, 1)
        known = dict(graded(acc))
        del acc  # not held while the next order's products are formed
        nonneg = {slot: terms for slot, terms in known.items() if slot[0] >= 0}
        g = gcd(den, *(v for terms in nonneg.values() for _, v in terms))
        zeta_k = {slot: [(p, -v // g) for p, v in terms] for slot, terms in nonneg.items()}
        zeta_slices.append((den // g, zeta_k))
        j_slices.append((den, {slot: terms for slot, terms in known.items() if slot[0] < 0}))

    return PrimitiveFormResult(zeta_slices, j_slices, state, floor)


def defect(result: PrimitiveFormResult) -> list:
    """Fully re-reduced exp((F-f)/z) * zeta - J at z >= result.floor,
    modulo s-order order+1, as the (D_k, {(z, idx): [(packed, int)]})
    slices of `PrimitiveFormResult` for the s-degrees k where it is
    nonzero: [] on a fresh result.

    Every product E_m zeta_j with m + j <= order, m = 0 included, is formed
    again from the result's slices through the solve's own kernel,
    `_reduced_products`, with the result's floor, `exp_parts(result.floor)`
    and the solve's table of classes, so only the m = 0 pairs the solve
    never met are looked up: what lands below the floor, and J there, is
    not checked.  The parts rest on the grading of zeta; a zeta perturbed
    off it is still caught at its lowest perturbed s-degree, where every
    other product reads only unperturbed slices.  Slice k runs over D_k,
    the lcm of its products' denominators and of J_k's.  On a fresh result
    every product is the one the solve formed, so the defect catches a
    perturbed zeta or J slice and a fault in the solve's gcd and split
    step, but not one in the kernel or the lattice reduction: the x^n
    oracle, the Fraction reference solve and the exactness of
    df ^ eta + z d(eta) check those in the tests.
    """
    state, floor = result.state, result.floor
    remainder = []
    for k, (d_j, j_k) in enumerate(result.j_slices):
        den, acc = _reduced_products(state, floor, result.zeta_slices, k, 0, d_j)
        factor = den // d_j
        for slot, terms in j_k.items():
            if slot[0] < floor:
                continue
            acc_slot = acc.setdefault(slot, {})
            for p, v in terms:
                acc_slot[p] = acc_slot.get(p, 0) - v * factor
        left = dict(graded(acc))
        del acc  # not held while the next order's products are formed
        if left:
            remainder.append((den, left))
    return remainder


def defect_is_zero(result: PrimitiveFormResult) -> bool:
    return not defect(result)
