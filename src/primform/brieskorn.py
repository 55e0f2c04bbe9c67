"""Reduction of polynomial top-forms to canonical classes in the formal
Brieskorn lattice model.

The lattice is Omega^n[[z]] modulo (df + z d)Omega^(n-1)[[z]].  Writing an
(n-1)-form through its contraction coefficients h_i, the quotient relation
reads

    [sum_i h_i d_i(f) d^n x]  =  -z [sum_i d_i(h_i) d^n x],

so a class [g d^n x] reduces to canonical form by repeatedly splitting g
into basis part plus Jacobian-ideal part and pushing the ideal part one z
power up.  Each step lowers the weighted degree by exactly 1, so the
reduction of a polynomial always terminates.  The canonical class of every
monomial is memoized on the MilnorData, which is what makes the deep
perturbative recursion affordable.

Coefficients ride along linearly: they may be plain Fractions or truncated
deformation series (the exterior derivative only acts on x).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LaurentBlock, SSeries
from .milnor import MilnorData


def monomial_class(mono: tuple, data: MilnorData) -> dict:
    """Canonical lattice class of [x^mono d^n x] as {z_power: {index: Fraction}}."""
    cached = data._reduce_cache.get(mono)
    if cached is not None:
        return cached
    basis_part, gen_part = data._divider.solve_monomial(mono)
    out: dict = {}
    if basis_part:
        out[0] = {data.basis_index(m): c for m, c in basis_part.items()}
    # Push -sum_i d_i(quotient_i) to the next z power.
    next_terms: dict = {}
    for (var, qm), qc in gen_part.items():
        e = qm[var]
        if e:
            lowered = list(qm)
            lowered[var] = e - 1
            key = tuple(lowered)
            updated = next_terms.get(key, Fraction(0)) - qc * e
            if updated:
                next_terms[key] = updated
            else:
                next_terms.pop(key, None)
    for nm, nc in next_terms.items():
        for zp, vec in monomial_class(nm, data).items():
            slot = out.setdefault(zp + 1, {})
            for idx, c in vec.items():
                updated = slot.get(idx, Fraction(0)) + nc * c
                if updated:
                    slot[idx] = updated
                else:
                    slot.pop(idx, None)
    out = {zp: vec for zp, vec in out.items() if vec}
    data._reduce_cache[mono] = out
    return out


def reduce_form(g, data: MilnorData) -> LaurentBlock:
    """Canonical class of [g d^n x] for g with Fraction or SSeries coefficients.

    `g` is a polynomial SSeries in x or a plain {monomial: coefficient}
    mapping.
    """
    terms = g.terms if isinstance(g, SSeries) else g
    block = LaurentBlock()
    for mono, coeff in terms.items():
        if not coeff:
            continue
        for zp, vec in monomial_class(mono, data).items():
            for idx, frac in vec.items():
                block.add_term(zp, idx, coeff * frac)
    return block


def verify_exact_class(h: list[SSeries], data: MilnorData) -> bool:
    """Check that the (n-1)-form with contraction coefficients h reduces to 0.

    For eta = sum_i (-1)^(i-1) h_i dx_1 ^ ... ^ dx_i-hat ^ ... ^ dx_n the
    element df ^ eta + z d(eta) is exact by construction, so its canonical
    class must vanish; returns whether it does.
    """
    f = data.f
    pairing_part = SSeries.zero(f.nvars, None)
    derivative_part = SSeries.zero(f.nvars, None)
    for i, h_i in enumerate(h):
        pairing_part = pairing_part + h_i * f.poly.diff(i)
        derivative_part = derivative_part + h_i.diff(i)
    block = reduce_form(pairing_part, data)
    block.accumulate(reduce_form(derivative_part, data).shift_z(1))
    return not block
