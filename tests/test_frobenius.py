import gc
import json
import random
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

from primform import frobenius
from exact_forms import (
    const,
    invert,
    j_block,
    j_components,
    plus_term,
    result_from_blocks,
    substitute,
    unspell,
    zeta_block,
)
from primform.algebra import SSeries, format_rational, mat_inv, mono_mul, unpack_monomial
from primform.frobenius import (
    IntegrabilityError,
    euler_check,
    flat_coordinates,
    invert_coordinates,
    normalization_check,
    prepotential,
    prepotential_record,
    verify_record,
    wdvv_check,
)
from primform.milnor import central_charge, divide_by_jacobian, milnor_basis
from primform.primitive import build_unfolding, solve_star
from test_wdvv_reference import dense_wdvv, perturbed

F = Fraction

# The order-6 golden records of the benchmark, only read.
RECORDS = Path(__file__).resolve().parent.parent / "perfbench" / "records"
ORDER6_RECORDS = [
    RECORDS / "deep-o6" / "E12.json",
    RECORDS / "deep-o6" / "U12.json",
    RECORDS / "verify-o6" / "Q10.json",
]


def pull_back(series, s_of_t, powers=None):
    """Every u in series at s = s_of_t(t), by SSeries products alone, so
    that this shares no code with the engine's fold: each power s^m is one
    product of a lower power and one s_v, memoized in `powers`, which may
    be kept across calls on one s(t).  A result is known through the order
    of s(t), or of u where that is lower."""
    mu, order = s_of_t[0].nvars, s_of_t[0].order
    if powers is None:
        powers = {}
    powers.setdefault((0,) * len(s_of_t), const(mu, order, 1))

    def power(mono):
        if mono not in powers:
            v = next(i for i, e in enumerate(mono) if e)
            lower = mono[:v] + (mono[v] - 1,) + mono[v + 1:]
            powers[mono] = power(lower) * s_of_t[v]
        return powers[mono]

    composed = []
    for u in series:
        terms = {}
        for mono, c in u.terms.items():
            for m, x in power(mono).terms.items():
                terms[m] = terms.get(m, 0) + c * x
        composed.append(SSeries(mu, order if u.order is None else min(u.order, order), terms))
    return composed


def full_order_inverse(t_of_s, order):
    """The fixed point s = t - u(s) as first written: order - 1 passes, each
    at the full order, u(s) composed by `pull_back`."""
    mu = len(t_of_s)
    u = [(t - t.degree_part(1)).truncate(order) for t in t_of_s]
    s = identity = [SSeries.variable(mu, a, order) for a in range(mu)]
    for _ in range(max(order - 1, 0)):
        s = [t_a - w for t_a, w in zip(identity, pull_back(u, s))]
    return s


# s(t) and the powers of it that `two_pass_prepotential` has formed, per
# order and J_(-1): a perturbed J_(-2) reuses both.
INVERSES: dict = {}


def two_pass_prepotential(result, milnor, inverses=INVERSES):
    """The integrability check as first written: a curl pass over every pair
    of coordinates, then F0 integrated through the order by the Euler
    relation and its gradient compared with eta * J_(-2).  Returns F0, or
    raises IntegrabilityError where either pass fails.  It reads J off the
    Fraction view and inverts and composes by `full_order_inverse` and
    `pull_back`, so no fault in the engine's int fold reaches it."""
    mu, order = milnor.mu, result.order
    t_of_s = j_components(result, -1)
    key = (order, tuple(frozenset(t.terms.items()) for t in t_of_s))
    if key not in inverses:
        inverses[key] = full_order_inverse(t_of_s, order), {}
    j_minus2_t = pull_back(j_components(result, -2), *inverses[key])
    gradient = []
    for row in milnor.eta:
        g = SSeries(mu, order)
        for eta_ab, j in zip(row, j_minus2_t):
            g = g + j.scale(eta_ab)
        gradient.append(g)
    for a in range(mu):
        for b in range(a + 1, mu):
            if gradient[a].diff(b) != gradient[b].diff(a):
                raise IntegrabilityError(f"mixed second derivatives differ for {a + 1}, {b + 1}")
    euler_sum = SSeries(mu, order)
    for a, g in enumerate(gradient):
        euler_sum = euler_sum + g * SSeries.variable(mu, a, order)
    f0 = SSeries(mu, order)
    for d in range(3, order + 1):
        f0 = f0 + euler_sum.degree_part(d).scale(F(1, d))
    for a, g in enumerate(gradient):
        if f0.diff(a) - g:
            raise IntegrabilityError("integrated prepotential does not match its gradient")
    return f0


def misspelled_j_components(result):
    """The (z power, component) pairs of J at z^-1 and z^-2 whose
    `_j_items` words or values differ from the sorted letters of each
    packed monomial's `unpack_monomial` digits, over the same scale."""
    mu, order, wrong = result.state.milnor.mu, result.order, []
    for m in (-1, -2):
        items_order, e_scale, items = frobenius._j_items(result, m)
        assert items_order == order
        expected = [{} for _ in range(mu)]
        for den, vec in result.j_slices_at(m):
            for b, series in vec.items():
                for p, v in series:
                    exps = unpack_monomial(p, order + 1, mu)
                    word = tuple(a for a, e in enumerate(exps) for _ in range(e))
                    expected[b][word] = v * (e_scale // den)
        wrong += [(m, b) for b, item in enumerate(items) if item != expected[b]]
    return wrong


def with_j_minus2_added(result, extras):
    """The solved result with extras[b] added to component b of J_(-2)."""
    J = j_block(result)
    for b, extra in enumerate(extras):
        J = plus_term(J, -2, b, extra)
    return result_from_blocks(zeta_block(result), J, result.state, result.floor)


class TestFlatCoordinates:
    def test_leading_part_is_identity(self, solved_cache, catalog):
        for name in ("A3", "Q12"):
            result = solved_cache(name, 3)
            mu = result.state.milnor.mu
            for alpha, t in enumerate(unspell(flat_coordinates(result))):
                assert t.degree_part(1) == SSeries.variable(mu, alpha, result.order)

    def test_a3_correction(self, solved_cache):
        # t_1 = s_1 - (1/8) s_3^2 for f = x^4 (hand computation).
        t = unspell(flat_coordinates(solved_cache("A3", 4)))
        assert t[0] == SSeries(3, 4, {(1, 0, 0): F(1), (0, 0, 2): F(-1, 8)})
        assert t[1] == SSeries.variable(3, 1, 4)
        assert t[2] == SSeries.variable(3, 2, 4)

    def test_j_items_spell_the_packed_digits(self, catalog, solved_cache):
        # Each word is spelled from its highest letter down, by bisection on
        # the powers of order + 1; it must equal the sorted letters of the
        # digits.
        cases = [(name, 4) for name in catalog] + [("E12", 6), ("U12", 6)]
        assert len(cases) == 22
        for name, order in cases:
            assert misspelled_j_components(solved_cache(name, order)) == [], (name, order)

    def test_j_items_check_catches_a_wrong_letter(self, solved_cache, monkeypatch):
        # Negative control: one bisection that reports a letter one too low
        # misspells one word, and the comparison above fails.
        wrong = []

        def once_too_low(powers, q):
            index = bisect_right(powers, q)
            if not wrong and index > 1:
                wrong.append(q)
                return index - 1
            return index

        monkeypatch.setattr(frobenius, "bisect_right", once_too_low)
        assert misspelled_j_components(solved_cache("E12", 4))
        assert len(wrong) == 1


class TestInvertCoordinates:
    def test_identity(self):
        t = [SSeries.variable(2, 0, 3), SSeries.variable(2, 1, 3)]
        assert invert(t, 3) == t

    def test_triangular(self):
        # t1 = s1 + s2^2, t2 = s2  =>  s1 = t1 - t2^2, s2 = t2.
        s2 = SSeries.variable(2, 1, 3)
        t = [SSeries.variable(2, 0, 3) + s2 * s2, s2]
        s = invert(t, 3)
        assert s[0] == SSeries(2, 3, {(1, 0): F(1), (0, 2): F(-1)})
        assert s[1] == s2

    def test_rejects_non_identity_linear_part(self):
        # At order 0 the inverse is empty, but t at order 3 still has the
        # linear part (s_2, s_1): the check reads the order of t, not that
        # of the inversion.
        t = [SSeries.variable(2, 1, 3), SSeries.variable(2, 0, 3)]
        for order in (3, 0):
            with pytest.raises(ValueError, match="identity linear part"):
                invert(t, order)

    def test_rejects_constant_term(self):
        # The linear part is the identity, so only the constant can fail.
        t = [SSeries.variable(2, 0, 3) + const(2, 3, F(1, 5)), SSeries.variable(2, 1, 3)]
        with pytest.raises(ValueError, match="must vanish at the origin"):
            invert(t, 3)

    def test_rejects_a_letter_beyond_the_components(self):
        # s_3 in a t(s) of two components once reached graded_dot as a bare
        # IndexError.
        with pytest.raises(ValueError, match="the letter 2"):
            invert_coordinates((3, 1, [{(0,): 1, (2, 2): 1}, {(1,): 1}]), 2)

    def test_substitute_matches_direct_substitution(self):
        # Denominators with the primes 7, 11 and 13 in u and in s(t), and u
        # at orders below, at and above that of s(t), or a polynomial.
        rng = random.Random(55)
        order = 4
        mu = 3
        denominators = (1, 2, 3, 7, 11, 13, 77, 143)

        def rand_series(min_deg, series_order, max_deg=order):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = [0] * mu
                for _ in range(rng.randint(min_deg, max_deg)):
                    exps[rng.randrange(mu)] += 1
                if sum(exps) >= min_deg:
                    terms[tuple(exps)] = F(rng.randint(-5, 5), rng.choice(denominators))
            return SSeries(mu, series_order, terms)

        cases = []
        for _ in range(60):
            us = [rand_series(0, u_order, order + 1) for u_order in (2, 3, order, order + 1, None)]
            us.append(SSeries(mu, order, {(order, 0, 0): F(3, 7), (0, 1, order - 1): F(-2, 13)}))
            shift = [rand_series(2, order) for _ in range(mu)]
            cases.append((us, [SSeries.variable(mu, i, order) + shift[i] for i in range(mu)]))
        # A sum that cancels: s_2(t) = s_0(t) - s_1(t)^2/11 - s_1(t)^3/13, so
        # u vanishes at s(t), from words of lengths 1, 2 and 3.
        t0, t1 = SSeries.variable(mu, 0, order), SSeries.variable(mu, 1, order)
        cancelling = SSeries(
            mu,
            order,
            {(1, 0, 0): F(1, 7), (0, 2, 0): F(-1, 77), (0, 3, 0): F(-1, 91), (0, 0, 1): F(-1, 7)},
        )
        s0 = t0 + (t1 * t1).scale(F(1, 11)) + (t1 * t1 * t1).scale(F(1, 13))
        cases.append(([cancelling], [s0, t1, t0]))
        # A prefix of length k is formed through order - k, since every term
        # of s(t) has degree >= 1; an s(t) with no linear part keeps degrees
        # that the root drops.
        for _ in range(20):
            truncated = rand_series(0, order, order + 1)
            polynomial = rand_series(0, None, order + 1)
            quadratic = [rand_series(2, order) for _ in range(mu)]
            quadratic[0] = quadratic[0] + (t0 * t1).scale(F(1, 3))
            cases.append(([truncated, polynomial], quadratic))

        for us, substituted in cases:
            composed = substitute(us, substituted)
            # brute force: substitute s(t) into every monomial
            for u, got in zip(us, composed):
                direct = SSeries(mu, order)
                for mono, coeff in u.terms.items():
                    term = const(mu, order, coeff)
                    for var, e in enumerate(mono):
                        for _ in range(e):
                            term = term * substituted[var]
                    direct = direct + term
                u_order = order if u.order is None else min(u.order, order)
                assert got == SSeries(mu, u_order, direct.terms)
        assert substitute([cancelling], [s0, t1, t0]) == [SSeries(mu, order)]

    def test_substitute_is_known_through_the_order_of_s(self):
        # s(t) = (t0 + t1^2, t1) at order 3 fixes x0^2 at s(t) through
        # degree 3 only: its t1^4 term is unknown, whatever the order of u.
        t0, t1 = SSeries.variable(2, 0, 3), SSeries.variable(2, 1, 3)
        s_of_t = [t0 + t1 * t1, t1]
        expected = SSeries(2, 3, {(2, 0): F(1), (1, 2): F(2)})
        for u_order in (5, None):
            assert substitute([SSeries(2, u_order, {(2, 0): F(1)})], s_of_t) == [expected]
        assert substitute([SSeries(2, 2, {(2, 0): F(1)})], s_of_t) == [
            SSeries(2, 2, {(2, 0): F(1)})
        ]

    def test_growing_order_equals_full_order_fixed_point(self, solved_cache):
        cases = [
            (j_components(solved_cache(name, order), -1), order)
            for name, order in (("E12", 6), ("U12", 6), ("W13", 5))
        ]
        rng = random.Random(91)
        mu = 3
        for order in range(6):
            t = []
            for alpha in range(mu):
                terms = {}
                for _ in range(rng.randint(0, 4)):
                    exps = [0] * mu
                    for _ in range(rng.randint(2, max(order, 2))):
                        exps[rng.randrange(mu)] += 1
                    terms[tuple(exps)] = F(rng.randint(-4, 4), rng.choice((1, 2, 7, 11)))
                t.append(SSeries.variable(mu, alpha, order) + SSeries(mu, order, terms))
            cases.append((t, order))
        for t_of_s, order in cases:
            assert invert(t_of_s, order) == full_order_inverse(t_of_s, order)

    def test_full_order_oracle_catches_a_faulty_fold(self, solved_cache, monkeypatch):
        # Negative control of the oracle: a kernel that drops the top degree
        # of every product breaks the engine's inverse but not the oracle.
        t_of_s = j_components(solved_cache("E12", 4), -1)
        expected = full_order_inverse(t_of_s, 4)
        kernel = frobenius.graded_dot

        def short(lefts, rights, bound):
            return {d: b for d, b in kernel(lefts, rights, bound).items() if d < bound}

        monkeypatch.setattr(frobenius, "graded_dot", short)
        assert full_order_inverse(t_of_s, 4) == expected
        assert invert(t_of_s, 4) != expected

    def test_prepotential_checks_the_flat_frame(self, solved_cache, milnor_cache):
        # The checks of the inversion run on the solve's slices too: J_(-1)
        # must be the identity at s-degree 1 and have no term at s-degree 0.
        result, data = solved_cache("E12", 4), milnor_cache("E12")
        mu = data.mu
        cases = [
            (SSeries.variable(mu, 0, 4).scale(F(1, 3)), "identity linear part"),
            (SSeries.variable(mu, 1, 4), "identity linear part"),
            (const(mu, 4, F(1, 5)), "must vanish at the origin"),
        ]
        for extra, message in cases:
            J = plus_term(j_block(result), -1, 0, extra)
            bad = result_from_blocks(zeta_block(result), J, result.state, result.floor)
            with pytest.raises(ValueError, match=message):
                prepotential(bad, data)

    def test_rejects_order_above_that_of_t(self, solved_cache):
        t_of_s = flat_coordinates(solved_cache("E12", 3))
        with pytest.raises(ValueError, match="known through order 3, not 5"):
            invert_coordinates(t_of_s, 5)

    def test_random_roundtrip(self):
        rng = random.Random(77)
        order = 4
        mu = 3
        for _ in range(40):
            t = []
            for alpha in range(mu):
                series = SSeries.variable(mu, alpha, order)
                for _ in range(rng.randint(0, 3)):
                    exps = [0] * mu
                    for _ in range(rng.randint(2, order)):
                        exps[rng.randrange(mu)] += 1
                    series = series + SSeries(
                        mu, order, {tuple(exps): F(rng.randint(-4, 4), rng.randint(1, 3))}
                    )
                t.append(series)
            s = invert(t, order)
            for alpha, composed in enumerate(substitute(t, s)):
                assert composed == SSeries.variable(mu, alpha, order), "t(s(t)) != t"


class TestPrepotential:
    def test_a2_hand_values(self, frobenius_cache):
        frob = frobenius_cache("A2")
        assert frob.prepotential == SSeries(
            2, 4, {(2, 1): F(1, 6), (0, 4): F(-1, 216)}
        )

    def test_a3_hand_values(self, frobenius_cache):
        frob = frobenius_cache("A3")
        assert frob.prepotential == SSeries(
            3, 4, {(2, 0, 1): F(1, 8), (1, 2, 0): F(1, 8), (0, 2, 2): F(-1, 64)}
        )

    def test_a1_is_single_cubic_term(self, frobenius_cache):
        frob = frobenius_cache("A1")
        assert frob.prepotential == SSeries(1, 4, {(3,): F(1, 12)})

    def test_cubic_part_is_ring_structure(self, frobenius_cache, milnor_cache):
        # d^3 F0 at the origin equals the eta-contracted multiplication table
        # of the Jacobian algebra, computed independently via division.
        for name in ("D4", "Q10", "U12"):
            data = milnor_cache(name)
            frob = frobenius_cache(name)
            mu = data.mu
            cubic = frob.prepotential.degree_part(3)
            for a in range(mu):
                for b in range(a, mu):
                    product_mono = mono_mul(data.basis[a], data.basis[b])
                    product = SSeries(data.f.nvars, None, {product_mono: F(1)})
                    coeffs, _ = divide_by_jacobian(product, data)
                    for c in range(b, mu):
                        expected = sum(
                            (coeffs[e] * data.eta[e][c] for e in range(mu)), F(0)
                        )
                        exps = [0] * mu
                        for idx in (a, b, c):
                            exps[idx] += 1
                        # multinomial: d^3/dt_a dt_b dt_c of t^exps
                        mult = 1
                        for k in set((a, b, c)):
                            from math import factorial

                            mult *= factorial((a, b, c).count(k))
                        got = cubic.terms.get(tuple(exps), F(0)) * mult
                        assert got == expected, (name, a, b, c)

    def test_prepotential_requires_order_three(self, solved_cache, milnor_cache):
        # Below order 3 the prepotential is zero, at the result's order.
        for order in range(3):
            frob = prepotential(solved_cache("A2", order), milnor_cache("A2"))
            assert frob.prepotential == SSeries(2, order)
            assert frob.prepotential.order == order

    def test_rejects_milnor_data_of_another_result(self, catalog, solved_cache, milnor_cache):
        # mu and eta are the result's own: U12's, of the same mu, turned the
        # E12 result into a 103-term F0 that is not E12's.  Milnor data
        # computed afresh for E12 is another object, and rejected too.
        result = solved_cache("E12", 5)
        for data in (milnor_cache("U12"), milnor_basis(catalog["E12"].weighted_polynomial())):
            with pytest.raises(ValueError, match="not that of the solved unfolding"):
                prepotential(result, data)

    def test_series_products_pinned(self, solved_cache, milnor_cache, monkeypatch):
        # Work counter: the substitutions multiply no SSeries, and fold the
        # word trie with one product per prefix that has children, shared by
        # all the series of a call, plus one per child of the root; folding
        # each series on its own, or inverting s(t) through the order rather
        # than one below it, raises these counts.
        cases = {name: (solved_cache(name, 4), milnor_cache(name)) for name in ("E12", "U12")}
        products, series_products = [], []
        power_product = frobenius.graded_dot
        series_product = SSeries.__mul__

        def counting_power(*args):
            products.append(None)
            return power_product(*args)

        def counting_series(a, b):
            series_products.append(None)
            return series_product(a, b)

        monkeypatch.setattr(frobenius, "graded_dot", counting_power)
        monkeypatch.setattr(SSeries, "__mul__", counting_series)
        monkeypatch.setattr(SSeries, "__rmul__", counting_series)
        counts = {}
        for name, (result, data) in cases.items():
            products.clear()
            prepotential(result, data)
            counts[name] = len(products)
        assert counts == {"E12": 259, "U12": 196}
        assert series_products == []

    def test_substitution_pairs_pinned(self, solved_cache, milnor_cache, monkeypatch):
        # Work counter: the term pairs that the products of `prepotential`
        # form, counted with the kernel's own degree cut.  Forming a prefix
        # of the word trie past order - |prefix| raises these counts.
        kernel = frobenius.graded_dot
        pairs = []

        def counting(lefts, rights, bound):
            for f, left in lefts:
                for dl, litems in left:
                    for dr, ritems in rights[f] or ():
                        if dl + dr > bound:
                            break
                        pairs.append(len(litems) * len(ritems))
            return kernel(lefts, rights, bound)

        monkeypatch.setattr(frobenius, "graded_dot", counting)
        counts = {}
        for name in ("E12", "U12"):
            pairs.clear()
            prepotential(solved_cache(name, 6), milnor_cache(name))
            counts[name] = sum(pairs)
        assert counts == {"E12": 25731, "U12": 16894}


class TestIntegrability:
    CASES = (("A3", 4), ("U12", 4), ("E12", 6))

    def test_j_terms_start_at_their_z_degree(self, solved_cache):
        # prepotential inverts s(t) only through order - 1: with every term
        # of J_(-2) of s-degree >= 2, the top degree of one factor s(t) in a
        # word of J_(-2) lands above the order.
        for name, order in self.CASES:
            result = solved_cache(name, order)
            for m in (-2, -1):
                components = j_components(result, m)
                assert any(components), (name, m)
                for series in components:
                    assert min(map(sum, series.terms), default=-m) >= -m, (name, m)

    @pytest.mark.parametrize(
        "name, order, reverse",
        [
            ("W13", 5, False),
            ("Q10", 6, False),
            ("P8", 6, False),
            ("E14", 5, False),
            ("Q10", 6, True),
            ("E12", 5, True),
        ],
    )
    def test_matches_fraction_reference(self, catalog, milnor_cache, name, order, reverse):
        # The reversed basis puts the monomial 1 last.
        f = catalog[name].weighted_polynomial()
        data = milnor_cache(name)
        if reverse:
            data = milnor_basis(f, basis=data.basis[::-1])
            assert not any(data.basis[-1])
        result = solve_star(build_unfolding(f, data, order))
        assert prepotential(result, data).prepotential == two_pass_prepotential(result, data)

    def test_fraction_reference_catches_a_faulty_fold(
        self, solved_cache, milnor_cache, monkeypatch
    ):
        # Negative control of the reference: a kernel that drops the top
        # degree of every product it returns makes `prepotential` disagree
        # or raise, while the reference, formed afresh, does not move.
        # Dropping only the degree at the bound would not do: all of it
        # lands at degree N of the gradient, which F0 does not read.
        result, data = solved_cache("E12", 4), milnor_cache("E12")
        expected = two_pass_prepotential(result, data, {})
        kernel = frobenius.graded_dot

        def short(lefts, rights, bound):
            products = kernel(lefts, rights, bound)
            if products:
                del products[max(products)]
            return products

        monkeypatch.setattr(frobenius, "graded_dot", short)
        assert two_pass_prepotential(result, data, {}) == expected
        try:
            assert prepotential(result, data).prepotential != expected
        except IntegrabilityError:
            pass

    def test_raises_where_two_pass_check_raises(self, solved_cache, milnor_cache):
        # Negative controls: 1/7 added to one s-monomial of one J_(-2)
        # component, at every s-degree through the order, the top one too.
        rng = random.Random(7)
        for name, order in self.CASES:
            result, data = solved_cache(name, order), milnor_cache(name)
            mu = data.mu
            for degree in range(order + 1):
                exps = [0] * mu
                for _ in range(degree):
                    exps[rng.randrange(mu)] += 1
                extras = [SSeries(mu, order)] * mu
                extras[rng.randrange(mu)] = SSeries(mu, order, {tuple(exps): F(1, 7)})
                bad = with_j_minus2_added(result, extras)
                for check in (prepotential, two_pass_prepotential):
                    with pytest.raises(IntegrabilityError):
                        check(bad, data)

    def test_raises_at_orders_one_and_two(self, solved_cache, milnor_cache):
        # s(t) is inverted through max(order - 1, 1): at order 1 its linear
        # part is still what carries a degree-1 term of J_(-2) into g.
        data = milnor_cache("A3")
        for order in (1, 2):
            result = solved_cache("A3", order)
            for exps in ((0, 0, 0), (0, 1, 0)):
                extras = [SSeries(3, order)] * 3
                extras[0] = SSeries(3, order, {exps: F(1, 7)})
                with pytest.raises(IntegrabilityError):
                    prepotential(with_j_minus2_added(result, extras), data)

    def test_gradient_added_moves_prepotential_by_its_potential(
        self, solved_cache, milnor_cache
    ):
        # eta^-1 grad P for P = (2/11) t^J, pulled back to the s-coordinates
        # and added to J_(-2), must move F0 by exactly P.  Below degree 3 it
        # is still a gradient, but of a part that F0 is normalized not to
        # have, so both checks must raise.
        rng = random.Random(11)
        for name, order in self.CASES:
            result, data = solved_cache(name, order), milnor_cache(name)
            mu = data.mu
            eta_inv = mat_inv([list(row) for row in data.eta])
            base = prepotential(result, data).prepotential
            assert two_pass_prepotential(result, data) == base
            for degree in (1, 2, 3, order):
                exps = [0] * mu
                for _ in range(degree):
                    exps[rng.randrange(mu)] += 1
                potential = SSeries(mu, None, {tuple(exps): F(2, 11)})
                field = []
                for row in eta_inv:
                    component = SSeries(mu, None)
                    for a, entry in enumerate(row):
                        component = component + potential.diff(a).scale(entry)
                    field.append(component)
                moved = with_j_minus2_added(result, pull_back(field, j_components(result, -1)))
                if degree < 3:
                    for check in (prepotential, two_pass_prepotential):
                        with pytest.raises(IntegrabilityError):
                            check(moved, data)
                    continue
                expected = base + potential
                assert prepotential(moved, data).prepotential == expected, (name, exps)
                assert two_pass_prepotential(moved, data) == expected, (name, exps)


class TestFourPointFunction:
    def test_cubic_only_gives_zero(self):
        f0 = SSeries(2, 4, {(2, 1): F(1, 6)})
        assert not f0.degree_part(4)

    def test_a3_degree_four(self, frobenius_cache):
        f4 = frobenius_cache("A3").prepotential.degree_part(4)
        assert f4 == SSeries(3, 4, {(0, 2, 2): F(-1, 64)})


def spy_generating_set(monkeypatch) -> list:
    """The lists that `wdvv_check` gets from `_generating_set` from now on."""
    chosen, choose = [], frobenius._generating_set

    def spy(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    monkeypatch.setattr(frobenius, "_generating_set", spy)
    return chosen


class TestWdvv:
    def test_generating_set_of_every_catalog_entry(
        self, catalog, frobenius_cache, milnor_cache, monkeypatch
    ):
        # S is read off the cubic terms and eta alone; for E12 index 2 (y^2)
        # is skipped, since y^2 = y * y.
        expected = {
            "A1": [0], "A2": [0, 1], "A3": [0, 1], "A4": [0, 1], "D4": [0, 1, 2],
            "E12": [0, 1, 3], "E13": [0, 1, 3], "E14": [0, 1, 3],
            "P8": [0, 1, 2, 3], "Q10": [0, 1, 2, 3], "Q11": [0, 1, 2, 3], "Q12": [0, 1, 2, 3],
            "S11": [0, 1, 2, 3], "S12": [0, 1, 2, 3], "U12": [0, 1, 2, 3],
            "W12": [0, 1, 2], "W13": [0, 1, 2],
            "Z11": [0, 1, 2], "Z12": [0, 1, 2], "Z13": [0, 1, 2],
        }
        assert sorted(catalog) == sorted(expected)
        f0s = {name: frobenius_cache(name).prepotential for name in expected}
        chosen = spy_generating_set(monkeypatch)
        for name, f0 in f0s.items():
            assert wdvv_check(f0, milnor_cache(name).eta).passed, name
        assert dict(zip(f0s, chosen)) == expected

    def test_generator_past_the_leading_indices(self, monkeypatch):
        # A_0 = Q[x]/(x^3) x Q[y]/(y^2) on the basis 1, x, x^2, g, y with
        # g = 1' + y, so g g = g + y: 1 and x generate only the first factor,
        # and g joins S past the generated x^2.  t5^4 breaks associativity
        # in {g, g, y, y} alone, which the multisets of 1 and x never see.
        rows = ([0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 2, 1], [0, 0, 0, 1, 0])
        eta = [[F(v) for v in row] for row in rows]
        cubic = {
            (2, 0, 1, 0, 0): F(1, 2),
            (1, 2, 0, 0, 0): F(1, 2),
            (0, 0, 0, 3, 0): F(1, 2),
            (0, 0, 0, 2, 1): F(1, 2),
        }
        chosen = spy_generating_set(monkeypatch)
        assert wdvv_check(SSeries(5, 4, cubic), eta).passed
        f0 = SSeries(5, 4, cubic | {(0, 0, 0, 0, 4): F(1)})
        report = wdvv_check(f0, eta)
        assert chosen == [[0, 1, 3]] * 2
        assert {tuple(sorted(v["indices"])) for v in report.violations} == {(4, 4, 5, 5)}
        assert (report.violations, report.checked) == dense_wdvv(f0, eta, 4)

    def test_work_pinned(self, frobenius_cache, milnor_cache, monkeypatch):
        # Work counter: graded_dot calls and term pairs of the check, with
        # the kernel's own degree cut.  A passing check walks only the
        # multisets that hold an index of S; a failing one (the perturbed
        # Q10) walks the rest too, and forms each X and each L_ab once.
        cases = {
            "E12": (frobenius_cache("E12", 6).prepotential, milnor_cache("E12").eta),
            "U12": (frobenius_cache("U12", 6).prepotential, milnor_cache("U12").eta),
            "Q10": (perturbed(frobenius_cache("Q10", 6).prepotential, 5), milnor_cache("Q10").eta),
        }
        kernel = frobenius.graded_dot
        pairs = []

        def counting(lefts, rights, bound):
            pairs.append(0)
            for f, left in lefts:
                for dl, litems in left:
                    for dr, ritems in rights[f] or ():
                        if dl + dr > bound:
                            break
                        pairs[-1] += len(litems) * len(ritems)
            return kernel(lefts, rights, bound)

        monkeypatch.setattr(frobenius, "graded_dot", counting)
        counts = {}
        for name, (f0, eta) in cases.items():
            pairs.clear()
            report = wdvv_check(f0, eta)
            counts[name] = (report.passed, len(pairs), sum(pairs))
        assert counts == {
            "E12": (True, 2550, 25916),
            "U12": (True, 2919, 13355),
            "Q10": (False, 2090, 10309),
        }

    def test_passes_on_computed_prepotentials(self, frobenius_cache, milnor_cache):
        for name in ("A3", "D4", "W12"):
            frob = frobenius_cache(name)
            report = wdvv_check(frob.prepotential, milnor_cache(name).eta)
            assert report.passed
            assert report.checked > 0

    def test_corrupted_coefficient_is_caught(self, frobenius_cache, milnor_cache):
        data = milnor_cache("U12")
        frob = frobenius_cache("U12")
        terms = dict(frob.prepotential.terms)
        mono = next(m for m in terms if sum(m) == 4)
        terms[mono] = terms[mono] + 1
        corrupted = SSeries(data.mu, 4, terms)
        report = wdvv_check(corrupted, data.eta)
        assert not report.passed
        assert report.violations[0]["monomial"] is not None

    def test_cubic_only_reduces_to_ring_associativity(self, frobenius_cache, milnor_cache):
        # At order 3 the check sees only the constant tensor, i.e. the
        # associativity of the Jacobian algebra, which always holds.
        data = milnor_cache("U12")
        cubic = frobenius_cache("U12").prepotential.degree_part(3).truncate(3)
        report = wdvv_check(cubic, data.eta)
        assert report.passed and report.checked > 0

    @pytest.mark.parametrize("order", [None, 2])
    def test_order_below_three_rejected(self, frobenius_cache, milnor_cache, order):
        # The degrees compared run through F0's own order minus 3: a
        # polynomial (order None) sets no range, and below 3 it is empty.
        f0 = frobenius_cache("A3").prepotential.truncate(order)
        with pytest.raises(ValueError, match="order >= 3"):
            wdvv_check(f0, milnor_cache("A3").eta)

    def test_variable_count_mismatch_rejected(self):
        f0 = SSeries(3, 3, {(0, 0, 3): F(1), (1, 1, 1): F(1, 2)})
        with pytest.raises(ValueError, match="prepotential has 3 variables"):
            wdvv_check(f0, [[F(0), F(1)], [F(1), F(0)]])

    def test_non_symmetric_pairing_rejected(self, frobenius_cache, milnor_cache):
        # The check reads X_{ab|cd} = X_{cd|ab}, which needs eta = eta^T; an
        # invertible non-symmetric eta once got WDVV violations instead.
        eta = [list(row) for row in milnor_cache("A3").eta]
        eta[0][0], eta[0][1] = F(1, 5), F(1, 3)
        with pytest.raises(ValueError, match="not symmetric"):
            wdvv_check(frobenius_cache("A3").prepotential, eta)


class TestEuler:
    def test_u12_boxed_term_degree(self, milnor_cache):
        # t_3^3 t_12 has flat degree 3(2/3) + (-1/6) = 11/6 = 3 - 7/6.
        data = milnor_cache("U12")
        flat = [1 - d for d in data.degrees]
        exps = [0] * 12
        exps[2] = 3
        exps[11] = 1
        degree = sum(F(k) * d for k, d in zip(exps, flat))
        assert degree == 3 - central_charge(data.f.weights) == F(11, 6)

    def test_passes_on_computed_prepotentials(self, frobenius_cache, milnor_cache):
        for name in ("A2", "S12", "P8"):
            data = milnor_cache(name)
            frob = frobenius_cache(name)
            report = euler_check(
                frob.prepotential, [1 - d for d in data.degrees], central_charge(data.f.weights)
            )
            assert report.passed

    def test_violation_reported(self, milnor_cache):
        data = milnor_cache("A2")
        bad = SSeries(2, 4, {(3, 0): F(1)})  # t1^3 has degree 3 != 3 - 1/3
        report = euler_check(bad, [1 - d for d in data.degrees], central_charge(data.f.weights))
        assert not report.passed
        assert report.violations[0]["degree"] == "3"

    @pytest.mark.parametrize("record_path", ORDER6_RECORDS, ids=lambda p: p.stem)
    @pytest.mark.parametrize(
        "flat_shift, c_hat_shift", [(F(0), F(0)), (F(1, 7), F(0)), (F(0), F(1, 5))]
    )
    def test_int_degrees_match_fraction_sums(self, record_path, flat_shift, c_hat_shift):
        # The check compares int numerators over one denominator; the
        # reference is the Fraction sum it replaced.  A shifted flat degree
        # or central charge must give the same violations in the same order.
        record = json.loads(record_path.read_text())
        mu = len(record["basis"])
        f0 = SSeries.from_records(record["terms"], mu, record["order"])
        flat = [F(d) for d in record["flat_degrees"]]
        flat[1] += flat_shift
        c_hat = F(record["central_charge"]) + c_hat_shift
        target = 3 - c_hat
        expected = []
        for mono, coeff in f0.sorted_terms():
            degree = sum((F(k) * d for k, d in zip(mono, flat)), F(0))
            if degree != target:
                expected.append(
                    {
                        "monomial": mono,
                        "coefficient": format_rational(coeff),
                        "degree": format_rational(degree),
                        "expected": format_rational(target),
                    }
                )
        report = euler_check(f0, flat, c_hat)
        assert report.violations == expected
        assert report.checked == len(f0.terms)
        assert bool(expected) == bool(flat_shift or c_hat_shift)


class TestSymmetry:
    def test_rejects_low_degree_terms(self):
        f0 = SSeries(2, 4, {(1, 1): F(1)})
        assert not normalization_check(f0, ((F(1), F(0)), (F(0), F(1))), 0).passed

    def test_passes_on_computed(self, milnor_cache, frobenius_cache):
        data = milnor_cache("A3")
        unit = data.basis_index((0,) * data.f.nvars)
        assert normalization_check(frobenius_cache("A3").prepotential, data.eta, unit).passed


class TestNoCyclicGarbage:
    def test_library_path(self, catalog):
        # Cyclic garbage lives until the collector happens to run, so the
        # peak memory of the next case would depend on when that is.
        f = catalog["E12"].weighted_polynomial()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            data = milnor_basis(f)
            result = solve_star(build_unfolding(f, data, 4))
            record = prepotential_record(data, prepotential(result, data), "E12", {})
            verify_record(record)
            del data, result, record
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
