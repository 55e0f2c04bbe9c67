import random
from fractions import Fraction

import pytest

from primform.algebra import SSeries, mono_mul
from primform.frobenius import (
    euler_check,
    flat_coordinates,
    invert_coordinates,
    normalization_check,
    prepotential,
    substitute,
    wdvv_check,
)
from primform.milnor import central_charge, divide_by_jacobian

F = Fraction


class TestFlatCoordinates:
    def test_leading_part_is_identity(self, solved_cache, catalog):
        for name in ("A3", "Q12"):
            result = solved_cache(name, 3)
            mu = result.state.mu
            for alpha, t in enumerate(flat_coordinates(result)):
                assert t.degree_part(1) == SSeries.variable(mu, alpha, result.order)

    def test_a3_correction(self, solved_cache):
        # t_1 = s_1 - (1/8) s_3^2 for f = x^4 (hand computation).
        t = flat_coordinates(solved_cache("A3", 4))
        assert t[0] == SSeries(3, 4, {(1, 0, 0): F(1), (0, 0, 2): F(-1, 8)})
        assert t[1] == SSeries.variable(3, 1, 4)
        assert t[2] == SSeries.variable(3, 2, 4)


class TestInvertCoordinates:
    def test_identity(self):
        t = [SSeries.variable(2, 0, 3), SSeries.variable(2, 1, 3)]
        assert invert_coordinates(t, 3) == t

    def test_triangular(self):
        # t1 = s1 + s2^2, t2 = s2  =>  s1 = t1 - t2^2, s2 = t2.
        s2 = SSeries.variable(2, 1, 3)
        t = [SSeries.variable(2, 0, 3) + s2 * s2, s2]
        s = invert_coordinates(t, 3)
        assert s[0] == SSeries(2, 3, {(1, 0): F(1), (0, 2): F(-1)})
        assert s[1] == s2

    def test_rejects_non_identity_linear_part(self):
        t = [SSeries.variable(2, 1, 3), SSeries.variable(2, 0, 3)]
        with pytest.raises(ValueError):
            invert_coordinates(t, 3)

    def test_substitute_matches_direct_substitution(self):
        rng = random.Random(55)
        order = 4
        mu = 3
        for _ in range(30):
            def rand_series(min_deg):
                terms = {}
                for _ in range(rng.randint(0, 4)):
                    exps = [0] * mu
                    for _ in range(rng.randint(min_deg, order)):
                        exps[rng.randrange(mu)] += 1
                    if sum(exps) >= min_deg:
                        terms[tuple(exps)] = F(rng.randint(-5, 5), rng.randint(1, 3))
                return SSeries(mu, order, terms)

            us = [rand_series(0) for _ in range(3)]
            shift = [rand_series(2) for _ in range(mu)]
            substituted = [SSeries.variable(mu, i, order) + shift[i] for i in range(mu)]
            composed = substitute(us, substituted)
            # brute force: substitute t_i + shift_i into every monomial
            for u, got in zip(us, composed):
                direct = SSeries.zero(mu, order)
                for mono, coeff in u.terms.items():
                    term = SSeries.const(mu, order, coeff)
                    for var, e in enumerate(mono):
                        for _ in range(e):
                            term = term * substituted[var]
                    direct = direct + term
                assert got == direct

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
            s = invert_coordinates(t, order)
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
                        got = cubic.coefficient(tuple(exps)) * mult
                        assert got == expected, (name, a, b, c)

    def test_prepotential_requires_order_three(self, solved_cache, milnor_cache):
        # Below order 3 the prepotential is zero, at the result's order.
        for order in range(3):
            frob = prepotential(solved_cache("A2", order), milnor_cache("A2"))
            assert frob.prepotential == SSeries.zero(2, order)
            assert frob.order == order

    def test_series_products_pinned(self, solved_cache, milnor_cache, monkeypatch):
        # Work counter: the powers s(t)^J are built once per substitution
        # and shared by its series; building them per series raises these.
        cases = {name: (solved_cache(name, 4), milnor_cache(name)) for name in ("E12", "U12")}
        calls = []
        original = SSeries.__mul__

        def counting(a, b):
            calls.append(None)
            return original(a, b)

        monkeypatch.setattr(SSeries, "__mul__", counting)
        monkeypatch.setattr(SSeries, "__rmul__", counting)
        counts = {}
        for name, (result, data) in cases.items():
            calls.clear()
            prepotential(result, data)
            counts[name] = len(calls)
        assert counts == {"E12": 1292, "U12": 1086}


class TestFourPointFunction:
    def test_cubic_only_gives_zero(self):
        f0 = SSeries(2, 4, {(2, 1): F(1, 6)})
        assert not f0.degree_part(4)

    def test_a3_degree_four(self, frobenius_cache):
        f4 = frobenius_cache("A3").prepotential.degree_part(4)
        assert f4 == SSeries(3, 4, {(0, 2, 2): F(-1, 64)})


class TestWdvv:
    def test_passes_on_computed_prepotentials(self, frobenius_cache, milnor_cache):
        for name in ("A3", "D4", "W12"):
            frob = frobenius_cache(name)
            report = wdvv_check(frob.prepotential, milnor_cache(name).eta, 4)
            assert report.passed
            assert report.checked > 0

    def test_corrupted_coefficient_is_caught(self, frobenius_cache, milnor_cache):
        data = milnor_cache("U12")
        frob = frobenius_cache("U12")
        terms = dict(frob.prepotential.terms)
        mono = next(m for m in terms if sum(m) == 4)
        terms[mono] = terms[mono] + 1
        corrupted = SSeries(data.mu, 4, terms)
        report = wdvv_check(corrupted, data.eta, 4)
        assert not report.passed
        assert report.violations[0]["monomial"] is not None

    def test_cubic_only_reduces_to_ring_associativity(self, frobenius_cache, milnor_cache):
        # At order 3 the check sees only the constant tensor, i.e. the
        # associativity of the Jacobian algebra, which always holds.
        data = milnor_cache("U12")
        cubic = frobenius_cache("U12").prepotential.degree_part(3).truncate(3)
        report = wdvv_check(cubic, data.eta, 3)
        assert report.passed and report.checked > 0


class TestEuler:
    def test_u12_boxed_term_degree(self, milnor_cache):
        # t_3^3 t_12 has flat degree 3(2/3) + (-1/6) = 11/6 = 3 - 7/6.
        data = milnor_cache("U12")
        flat = [1 - d for d in data.degrees]
        exps = [0] * 12
        exps[2] = 3
        exps[11] = 1
        degree = sum(F(k) * d for k, d in zip(exps, flat))
        assert degree == 3 - central_charge(data.f) == F(11, 6)

    def test_passes_on_computed_prepotentials(self, frobenius_cache, milnor_cache):
        for name in ("A2", "S12", "P8"):
            data = milnor_cache(name)
            frob = frobenius_cache(name)
            report = euler_check(
                frob.prepotential, [1 - d for d in data.degrees], central_charge(data.f)
            )
            assert report.passed

    def test_violation_reported(self, milnor_cache):
        data = milnor_cache("A2")
        bad = SSeries(2, 4, {(3, 0): F(1)})  # t1^3 has degree 3 != 3 - 1/3
        report = euler_check(bad, [1 - d for d in data.degrees], central_charge(data.f))
        assert not report.passed
        assert report.violations[0]["degree"] == "3"


class TestSymmetry:
    def test_rejects_low_degree_terms(self):
        f0 = SSeries(2, 4, {(1, 1): F(1)})
        assert not normalization_check(f0).passed

    def test_passes_on_computed(self, frobenius_cache):
        assert normalization_check(frobenius_cache("A3").prepotential).passed
