"""Reduction of whole forms through the int `monomial_class`, for tests.

``reduce_form`` sums the canonical classes of a polynomial's monomials into
a ``LaurentBlock``; ``verify_exact_class`` reduces df ^ eta + z d(eta),
which is exact by construction, and reports whether its class vanishes.
That is a check of the int reduction that shares none of its bookkeeping.
``add_term`` and ``plus_term`` accumulate into the ``{z: {index: coeff}}``
dicts that a ``LaurentBlock`` is built from; the block drops what cancels.
``const`` is the constant series.  ``zeta_block``, ``j_block`` and
``defect_block`` are the Fraction views of a solve result's slices and of
its defect, all by ``primitive._block``, and ``j_components`` reads J at
one z power through ``frobenius._j_items``.  ``result_from_blocks`` builds
a solve result from Fraction blocks of zeta and J, such as a perturbed one.
``spell`` and ``unspell`` turn Fraction series into the int words of
``frobenius._j_items`` and back, and ``unpacked`` reads packed int series
as Fraction ones; ``invert`` and ``substitute`` run the int inversion and
fold on Fraction series through them.
"""

from fractions import Fraction
from math import lcm

from primform.algebra import LaurentBlock, SSeries, pack_monomial, unpack_monomial
from primform.frobenius import _j_items, _substitute_ints, invert_coordinates
from primform.milnor import monomial_class
from primform.primitive import PrimitiveFormResult, _block, defect


def const(nvars: int, order: int | None, value) -> SSeries:
    """The constant `value` as a series in nvars variables at `order`."""
    return SSeries(nvars, order, {(0,) * nvars: Fraction(value)})


def zeta_block(result) -> LaurentBlock:
    return _block(result.zeta_slices, result.state.milnor.mu, result.order)


def j_block(result) -> LaurentBlock:
    return _block(result.j_slices, result.state.milnor.mu, result.order)


def defect_block(result) -> LaurentBlock:
    return _block(defect(result), result.state.milnor.mu, result.order)


def j_components(result, m: int) -> list[SSeries]:
    """The mu component series of J at z power m <= -1."""
    return unspell(_j_items(result, m))


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
    return reduce_form(pairing_part, data).z_terms == raised.z_terms


def spell(series: list[SSeries]) -> tuple:
    """The series as (N, E, words), the int words of `frobenius._j_items`:
    N the least order among them, E the lcm of every denominator."""
    e_scale = lcm(*(c.denominator for u in series for c in u.terms.values()))
    words = [
        {
            tuple(v for v, e in enumerate(mono) for _ in range(e)): c.numerator
            * (e_scale // c.denominator)
            for mono, c in u.terms.items()
        }
        for u in series
    ]
    return min((u.order for u in series if u.order is not None), default=None), e_scale, words


def unspell(items: tuple) -> list[SSeries]:
    """(N, E, words) as Fraction series at order N, in one variable per word set."""
    order, e_scale, words = items
    nvars = len(words)
    return [
        SSeries(nvars, order, {
            tuple(word.count(v) for v in range(nvars)): Fraction(c, e_scale)
            for word, c in u_words.items()
        })
        for u_words in words
    ]


def unpacked(scale: int, accs: list, nvars: int, order: int, base: int) -> list[SSeries]:
    """Each {degree: {packed: int}} over `scale` as a series at `order`."""
    return [
        SSeries(nvars, order, {
            unpack_monomial(m, base, nvars): Fraction(v, scale)
            for bucket in acc.values() for m, v in bucket.items()
        })
        for acc in accs
    ]


def invert(t_of_s: list[SSeries], order: int) -> list[SSeries]:
    """`invert_coordinates` on t(s) given as series, s(t) unpacked from base N + 2."""
    items = spell(t_of_s)
    return unpacked(*invert_coordinates(items, order), len(t_of_s), order, items[0] + 2)


def substitute(series: list[SSeries], s_of_t: list[SSeries]) -> list[SSeries]:
    """Every u at s = s_of_t(t) by `_substitute_ints`, in base N + 2 for
    the order N of s(t), each known through the lesser of N and its order."""
    order, nvars = s_of_t[0].order, s_of_t[0].nvars
    base = order + 2
    d_scale = lcm(*(c.denominator for s in s_of_t for c in s.terms.values()))
    factors: list = [{} for _ in s_of_t]
    for s, buckets in zip(s_of_t, factors):
        for mono, c in s.terms.items():
            scaled = c.numerator * (d_scale // c.denominator)
            buckets.setdefault(sum(mono), {})[pack_monomial(mono, base)] = scaled
    scale, accs = _substitute_ints(spell(series), (d_scale, factors), nvars, order, base)
    composed = unpacked(scale, accs, nvars, order, base)
    return [v if u.order is None else v.truncate(min(u.order, order)) for u, v in zip(series, composed)]
