"""The integer solve and defect against the Fraction solve they replaced.

``fraction_solve`` is the recursion as first written: each exp part a map
from x-monomials to ``Fraction`` s-series, each product of a part with a
zeta block formed as an ``SSeries`` product and reduced through
``monomial_class`` term by term into a ``LaurentBlock``.  ``fraction_defect``
recombines a result the same way.  The integer kernel must give the same
zeta and J, and the same defect block on perturbed inputs.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest

from exact_forms import add_term, const, defect_block, j_block, plus_term
from exact_forms import result_from_blocks, zeta_block
from primform.algebra import LaurentBlock, SSeries, mono_mul
from primform.milnor import milnor_basis, monomial_class
from primform.primitive import build_unfolding, defect_is_zero, solve_star

F = Fraction


def fraction_exp_parts(state):
    """Part m of exp(F - f) as {x-monomial: s-series}, sum over |n| = m of
    s^n phi^n / n!."""
    mu, order, basis = state.milnor.mu, state.order, state.milnor.basis
    unit = (0,) * state.milnor.f.nvars
    parts = []
    for m in range(order + 1):
        part = {}
        for word in combinations_with_replacement(range(mu), m):
            n = [0] * mu
            for a in word:
                n[a] += 1
            x_mono = tuple(map(sum, zip(unit, *(basis[a] for a in word))))
            part.setdefault(x_mono, {})[tuple(n)] = F(1, prod(map(factorial, n)))
        parts.append({x: SSeries(mu, order, terms) for x, terms in part.items()})
    return parts


def accumulate_product(target, part, block, data, z_shift):
    """target += z^z_shift * reduce(part * block), for a block of zeta and
    target a {z: {index: series}} dict."""
    for zq, vec in block.z_terms.items():
        for beta, coeff in vec.items():
            for fmono, fcoeff in part.items():
                series = coeff * fcoeff
                if not series:
                    continue
                den, entries = monomial_class(mono_mul(fmono, data.basis[beta]), data)
                for zp, idx, c in entries:
                    add_term(target, zp + zq + z_shift, idx, series * F(c, den))


def fraction_solve(state):
    """(zeta, J) of the recursion on Fraction series."""
    data = state.milnor
    one = const(state.milnor.mu, state.order, 1)
    parts = fraction_exp_parts(state)
    unit = data.basis_index[(0,) * data.f.nvars]
    zeta_slices = [LaurentBlock({0: {unit: one}})]
    zeta, J = {0: {unit: one}}, {0: {unit: one}}
    for k in range(1, state.order + 1):
        known = {}
        for m in range(1, k + 1):
            accumulate_product(known, parts[m], zeta_slices[k - m], data, -m)
        zeta_k = {zp: {i: -c for i, c in vec.items()} for zp, vec in known.items() if zp >= 0}
        zeta_slices.append(LaurentBlock(zeta_k))
        for zp, idx, c in zeta_slices[-1].iter_terms():
            add_term(zeta, zp, idx, c)
        for zp, idx, c in LaurentBlock(known).iter_terms():
            if zp < 0:
                add_term(J, zp, idx, c)
    return LaurentBlock(zeta), LaurentBlock(J)


def fraction_defect(result):
    """exp((F - f)/z) zeta - J on Fraction series."""
    state = result.state
    total = {}
    for m, part in enumerate(fraction_exp_parts(state)):
        accumulate_product(total, part, zeta_block(result), state.milnor, -m)
    for zp, idx, c in j_block(result).iter_terms():
        add_term(total, zp, idx, -c)
    return LaurentBlock(total)


def assert_same_solve(result):
    zeta, J = fraction_solve(result.state)
    assert zeta_block(result).z_terms == zeta.z_terms
    assert j_block(result).z_terms == J.z_terms


def term_at_degree(block, j, mu):
    """The first stored (z, idx, monomial) of s-degree j, or s_1^j at the
    first slot when no term has that degree."""
    for zp, idx, series in block.iter_terms():
        for mono, _ in series.sorted_terms():
            if sum(mono) == j:
                return zp, idx, mono
    zp, idx, _ = next(block.iter_terms())
    return zp, idx, (j,) + (0,) * (mu - 1)


def perturbed(result, part, j):
    """The result with 1/7 added to one coefficient of s-degree j of zeta or J."""
    mu, order = result.state.milnor.mu, result.order
    blocks = {"zeta": zeta_block(result), "J": j_block(result)}
    zp, idx, mono = term_at_degree(blocks[part], j, mu)
    blocks[part] = plus_term(blocks[part], zp, idx, SSeries(mu, order, {mono: F(1, 7)}))
    moved = result_from_blocks(blocks["zeta"], blocks["J"], result.state, result.floor)
    return moved, (zp, idx, mono)


class TestSameSolve:
    @pytest.mark.parametrize("name", ["A1", "A2"])
    def test_order_zero(self, name, catalog, milnor_cache):
        state = build_unfolding(catalog[name].weighted_polynomial(), milnor_cache(name), 0)
        assert_same_solve(solve_star(state, floor=0))

    def test_catalog_order_three(self, catalog, solved_cache):
        for name in sorted(catalog):
            assert_same_solve(solved_cache(name, 3))

    @pytest.mark.parametrize("name", ["E12", "U12"])
    def test_order_five(self, name, solved_cache):
        assert_same_solve(solved_cache(name, 5))

    def test_marginal_parameter(self, solved_cache):
        # P8 has a parameter of degree 0.
        assert_same_solve(solved_cache("P8", 4))

    def test_basis_with_one_not_first(self, catalog):
        f = catalog["E12"].weighted_polynomial()
        basis = list(milnor_basis(f).basis)
        basis[0], basis[1] = basis[1], basis[0]
        data = milnor_basis(f, basis=basis)
        result = solve_star(build_unfolding(f, data, 4), floor=-4)
        assert data.basis_index[(0, 0)] == 1
        assert defect_is_zero(result)
        assert_same_solve(result)


class TestPerturbedDefect:
    CASES = (("A3", 4), ("U12", 4), ("E12", 6))

    @pytest.mark.parametrize("name, order", CASES)
    def test_zeta_perturbed_at_each_degree(self, name, order, solved_cache):
        result = solved_cache(name, order)
        for j in range(1, order + 1):
            moved, _ = perturbed(result, "zeta", j)
            assert not defect_is_zero(moved), (name, j)
            # The Fraction defect costs about a second at order 6.
            if order < 6 or j == order:
                assert defect_block(moved).z_terms == fraction_defect(moved).z_terms, (name, j)

    @pytest.mark.parametrize("name, order", CASES)
    def test_j_perturbed_gives_minus_one_seventh(self, name, order, solved_cache):
        result = solved_cache(name, order)
        mu = result.state.milnor.mu
        moved, (zp, idx, mono) = perturbed(result, "J", order)
        expected = {zp: {idx: SSeries(mu, order, {mono: F(-1, 7)})}}
        assert defect_block(moved).z_terms == expected
        if order < 6:
            assert fraction_defect(moved).z_terms == expected


class TestFlooredDefect:
    """The defect of a result solved down to z^-2 checks z >= -2 only."""

    @pytest.fixture(params=[("U12", 4), ("E12", 6)], ids=["U12-4", "E12-6"])
    def floored(self, request, catalog, milnor_cache):
        name, order = request.param
        state = build_unfolding(catalog[name].weighted_polynomial(), milnor_cache(name), order)
        result = solve_star(state)
        assert result.floor == -2 and defect_is_zero(result)
        return result

    def test_zeta_perturbed_at_each_degree(self, floored):
        for j in range(1, floored.order + 1):
            moved, _ = perturbed(floored, "zeta", j)
            assert not defect_is_zero(moved), j

    @pytest.mark.parametrize("zp", [-1, -2])
    def test_j_perturbed_gives_minus_one_seventh(self, floored, zp):
        mu, order = floored.state.milnor.mu, floored.order
        idx, series = min(j_block(floored).z_terms[zp].items())
        mono = max(series.terms)
        J = plus_term(j_block(floored), zp, idx, SSeries(mu, order, {mono: F(1, 7)}))
        moved = result_from_blocks(zeta_block(floored), J, floored.state, floored.floor)
        assert defect_block(moved).z_terms == {zp: {idx: SSeries(mu, order, {mono: F(-1, 7)})}}

    def test_j_below_floor_unchecked(self, floored):
        # The narrowing itself: a term below the floor is not compared.
        mu, order = floored.state.milnor.mu, floored.order
        mono = (order,) + (0,) * (mu - 1)
        J = plus_term(j_block(floored), -3, 0, SSeries(mu, order, {mono: F(1, 7)}))
        moved = result_from_blocks(zeta_block(floored), J, floored.state, floored.floor)
        assert defect_is_zero(moved)
