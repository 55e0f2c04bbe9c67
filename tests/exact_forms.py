"""Reduction of whole forms through the int `monomial_class`, for tests.

``reduce_form`` sums the canonical classes of a polynomial's monomials into
a ``LaurentBlock``; ``verify_exact_class`` reduces df ^ eta + z d(eta),
which is exact by construction, and reports whether its class vanishes.
That is a check of the int reduction that shares none of its bookkeeping.
``add_term`` and ``plus_term`` accumulate into the ``{z: {index: coeff}}``
dicts that a ``LaurentBlock`` is built from; the block drops what cancels.
``const`` is the constant series.  ``result_from_blocks`` builds a solve
result from Fraction blocks of zeta and J, such as a perturbed one.
"""

from fractions import Fraction
from math import lcm

from primform.algebra import LaurentBlock, SSeries, pack_monomial
from primform.milnor import monomial_class
from primform.primitive import PrimitiveFormResult


def const(nvars: int, order: int | None, value) -> SSeries:
    """The constant `value` as a series in nvars variables at `order`."""
    return SSeries(nvars, order, {(0,) * nvars: Fraction(value)})


def add_term(z_terms: dict, zp: int, idx: int, coeff) -> None:
    """z_terms[zp][idx] += coeff, in place; zero sums are left for the
    LaurentBlock constructor to drop."""
    vec = z_terms.setdefault(zp, {})
    vec[idx] = vec[idx] + coeff if idx in vec else coeff


def plus_term(block: LaurentBlock, zp: int, idx: int, coeff) -> LaurentBlock:
    """A new block: `block` with coeff added at (z^zp, basis idx)."""
    z_terms = {z: dict(vec) for z, vec in block.z_terms.items()}
    add_term(z_terms, zp, idx, coeff)
    return LaurentBlock(z_terms)


def _sliced(block: LaurentBlock, order: int) -> list:
    """A block of s-series as one (D_j, {(z, idx): [(packed, int)]}) for
    each s-degree j = 0..order, D_j the lcm of that slice's denominators:
    the slices a solve result holds."""
    slices = [{} for _ in range(order + 1)]
    for zp, idx, series in block.iter_terms():
        for mono, c in series.terms.items():
            terms = slices[sum(mono)].setdefault((zp, idx), [])
            terms.append((pack_monomial(mono, order + 1), c))
    out = []
    for terms in slices:
        den = lcm(*(c.denominator for series in terms.values() for _, c in series))
        scaled = {
            slot: [(p, c.numerator * (den // c.denominator)) for p, c in series]
            for slot, series in terms.items()
        }
        out.append((den, scaled))
    return out


def result_from_blocks(zeta: LaurentBlock, J: LaurentBlock, state, floor: int):
    """The solve result that holds these Fraction blocks of zeta and J."""
    order = state.order
    return PrimitiveFormResult(_sliced(zeta, order), _sliced(J, order), state, floor)


def reduce_form(g, data) -> LaurentBlock:
    """Canonical class of [g d^n x] for g with Fraction or SSeries
    coefficients, given as a polynomial SSeries or a {monomial: coefficient}
    mapping."""
    terms = g.terms if isinstance(g, SSeries) else g
    z_terms: dict = {}
    for mono, coeff in terms.items():
        if not coeff:
            continue
        den, entries = monomial_class(mono, data)
        for zp, idx, c in entries:
            add_term(z_terms, zp, idx, coeff * Fraction(c, den))
    return LaurentBlock(z_terms)


def verify_exact_class(h: list, data) -> bool:
    """Whether the (n-1)-form with contraction coefficients h reduces to 0.

    For eta = sum_i (-1)^(i-1) h_i dx_1 ^ ... ^ dx_i-hat ^ ... ^ dx_n the
    element df ^ eta + z d(eta) is exact, so its canonical class must vanish.
    """
    f = data.f
    pairing_part = SSeries(f.nvars, None)
    derivative_part = SSeries(f.nvars, None)
    for i, h_i in enumerate(h):
        pairing_part = pairing_part + h_i * f.poly.diff(i)
        derivative_part = derivative_part + h_i.diff(i)
    # [df ^ eta] = -z [d(eta)]: the second class shifted one z power up.
    lowered = reduce_form(-derivative_part, data)
    raised = LaurentBlock({zp + 1: vec for zp, vec in lowered.z_terms.items()})
    return reduce_form(pairing_part, data) == raised
