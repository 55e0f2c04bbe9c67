import random
from fractions import Fraction

import pytest

from primform.algebra import (
    LaurentBlock,
    Poly,
    SSeries,
    format_rational,
    mat_det,
    mat_inv,
    mat_solve,
    parse_monomial,
    parse_polynomial,
    parse_rational,
)


def P(text, variables):
    return parse_polynomial(text, variables)


class TestRational:
    def test_parse_format_round_trip(self):
        for text in ["3/4", "-7/2", "5", "0", "-12"]:
            assert format_rational(parse_rational(text)) == text

    def test_lowest_terms(self):
        assert parse_rational("6/4") == Fraction(3, 2)
        assert format_rational(parse_rational("6/4")) == "3/2"

    def test_arithmetic_round_trip_fuzz(self):
        rng = random.Random(101)
        for _ in range(200):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert (a + c) - c == a


class TestPoly:
    def test_difference_of_squares(self):
        xy = ["x", "y"]
        assert P("x+y", xy) * P("x-y", xy) == P("x^2-y^2", xy)

    def test_monomial_product(self):
        xy = ["x", "y"]
        assert P("x^3", xy) * P("y^7", xy) == P("x^3*y^7", xy)

    def test_e12_jacobian_product(self):
        # f = x^3 + y^7 by hand: d_x(f) * d_y(f) = 3x^2 * 7y^6 = 21 x^2 y^6
        xy = ["x", "y"]
        f = P("x^3+y^7", xy)
        assert f.diff(0) * f.diff(1) == P("21*x^2*y^6", xy)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            Poly.variable(2, 0) * Poly.variable(3, 0)

    def _random_poly(self, rng, nvars, max_deg=6, max_terms=5):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return Poly(nvars, terms)

    def test_ring_axioms_fuzz(self):
        rng = random.Random(7)
        for _ in range(150):
            nvars = rng.randint(1, 3)
            a = self._random_poly(rng, nvars)
            b = self._random_poly(rng, nvars)
            c = self._random_poly(rng, nvars)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_serialization_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            a = self._random_poly(rng, 3)
            again = Poly.from_records(a.to_records(), 3)
            assert again == a
            assert again.to_records() == a.to_records()

    def test_render(self):
        xy = ["x", "y"]
        assert P("x^2 - y^2", xy).render(xy) == "x^2 - y^2"
        assert Poly.zero(2).render(xy) == "0"


class TestSSeries:
    def test_difference_of_squares_truncated(self):
        one = SSeries.const(1, 2, 1)
        s1 = SSeries.variable(1, 0, 2)
        assert (one + s1) * (one - s1) == one - s1 * s1

    def test_truncation_drops_order_two(self):
        s1 = SSeries.variable(2, 0, 1)
        s2 = SSeries.variable(2, 1, 1)
        total = s1 + s2
        assert not total * total

    def test_hand_expansion(self):
        # (1 + s + s^2)(1 + s) at order 2 -> 1 + 2s + 2s^2
        one = SSeries.const(1, 2, 1)
        s = SSeries.variable(1, 0, 2)
        product = (one + s + s * s) * (one + s)
        assert product == SSeries(1, 2, {(0,): Fraction(1), (1,): Fraction(2), (2,): Fraction(2)})

    def _random_series(self, rng, nvars, order):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, order)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return SSeries(nvars, order, terms)

    def test_truncation_is_ring_homomorphism_fuzz(self):
        rng = random.Random(23)
        for _ in range(200):
            nvars = rng.randint(1, 3)
            order = rng.randint(0, 6)
            cut = rng.randint(0, order)
            a = self._random_series(rng, nvars, order)
            b = self._random_series(rng, nvars, order)
            lhs = (a * b).truncate(cut)
            rhs = (a.truncate(cut) * b.truncate(cut)).truncate(cut)
            assert lhs == rhs

    def test_serialization_round_trip(self):
        rng = random.Random(29)
        for _ in range(50):
            a = self._random_series(rng, 2, 5)
            again = SSeries.from_records(a.to_records(), 2, 5)
            assert again == a
            assert again.to_records() == a.to_records()

    def test_ring_axioms_up_to_truncation(self):
        rng = random.Random(37)
        for _ in range(100):
            order = rng.randint(0, 5)
            a = self._random_series(rng, 2, order)
            b = self._random_series(rng, 2, order)
            c = self._random_series(rng, 2, order)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_degree_part_and_diff(self):
        s = SSeries(2, 3, {(1, 0): Fraction(2), (1, 1): Fraction(3), (0, 3): Fraction(1)})
        assert s.degree_part(2) == SSeries(2, 3, {(1, 1): Fraction(3)})
        assert s.diff(1) == SSeries(2, 2, {(1, 0): Fraction(3), (0, 2): Fraction(3)})


class TestLaurentBlock:
    def _vec(self, order=2):
        return {0: SSeries.const(2, order, 1), 1: SSeries.variable(2, 0, order)}

    def test_shift_basics(self):
        b = LaurentBlock({0: self._vec()})
        assert b.shift_z(-1).z_powers() == [-1]
        assert b.shift_z(0) == b
        assert b.shift_z(-1).shift_z(-1) == b.shift_z(-2)

    def test_split(self):
        b = LaurentBlock({-1: self._vec(), 2: self._vec()})
        nonneg, neg = b.split()
        assert nonneg.z_powers() == [2]
        assert neg.z_powers() == [-1]

    def test_add_term_prunes_zeros(self):
        b = LaurentBlock()
        s = SSeries.variable(2, 0, 2)
        b.add_term(0, 1, s)
        b.add_term(0, 1, -s)
        assert not b

    def test_serialization_round_trip(self):
        b = LaurentBlock({-2: self._vec(), 0: {0: SSeries.const(2, 2, Fraction(1, 3))}})
        rows = b.to_records(width=2)
        again = LaurentBlock.from_records(rows, nvars=2, order=2)
        assert again == b
        assert again.to_records(width=2) == rows


class TestMatrixHelpers:
    def test_det_and_inv(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(4)]]
        assert mat_det(m) == 7
        inv = mat_inv(m)
        assert inv == [[Fraction(4, 7), Fraction(-1, 7)], [Fraction(-1, 7), Fraction(2, 7)]]

    def test_solve(self):
        m = [[Fraction(3), Fraction(0)], [Fraction(1), Fraction(5)]]
        sol = mat_solve(m, [Fraction(1), Fraction(1)])
        assert sol == [Fraction(1, 3), Fraction(2, 15)]

    def test_solve_inconsistent(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert mat_solve(m, [Fraction(1), Fraction(3)]) is None


class TestParsing:
    def test_signs_and_coefficients(self):
        xyz = ["x", "y", "z"]
        p = parse_polynomial("-x^2 + 3/2*y*z - z", xyz)
        assert p.terms == {
            (2, 0, 0): Fraction(-1),
            (0, 1, 1): Fraction(3, 2),
            (0, 0, 1): Fraction(-1),
        }

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_polynomial("x+w", ["x", "y"])

    @pytest.mark.parametrize("text", ["x^-1", "x^", "x^+2", "x^1.5", "y*x^"])
    def test_rejects_negative_or_missing_exponent(self, text):
        # "x^-1" once parsed as x - 1 and "x^" as x.
        with pytest.raises(ValueError, match="exponent"):
            parse_polynomial(text, ["x", "y"])
        with pytest.raises(ValueError, match="exponent"):
            parse_monomial(text, ["x", "y"])
