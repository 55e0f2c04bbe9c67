"""Reduction of whole forms through the int `monomial_class`, for tests.

``reduce_form`` sums the canonical classes of a polynomial's monomials into
a ``LaurentBlock``; ``verify_exact_class`` reduces df ^ eta + z d(eta),
which is exact by construction, and reports whether its class vanishes.
That is a check of the int reduction that shares none of its bookkeeping.
"""

from fractions import Fraction

from primform.algebra import LaurentBlock, SSeries
from primform.brieskorn import monomial_class


def reduce_form(g, data) -> LaurentBlock:
    """Canonical class of [g d^n x] for g with Fraction or SSeries
    coefficients, given as a polynomial SSeries or a {monomial: coefficient}
    mapping."""
    terms = g.terms if isinstance(g, SSeries) else g
    block = LaurentBlock()
    for mono, coeff in terms.items():
        if not coeff:
            continue
        den, entries = monomial_class(mono, data)
        for zp, idx, c in entries:
            block.add_term(zp, idx, coeff * Fraction(c, den))
    return block


def verify_exact_class(h: list, data) -> bool:
    """Whether the (n-1)-form with contraction coefficients h reduces to 0.

    For eta = sum_i (-1)^(i-1) h_i dx_1 ^ ... ^ dx_i-hat ^ ... ^ dx_n the
    element df ^ eta + z d(eta) is exact, so its canonical class must vanish.
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
