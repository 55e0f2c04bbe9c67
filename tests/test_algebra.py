import random
from fractions import Fraction

import pytest

from exact_forms import const
from primform.algebra import (
    LaurentBlock,
    SSeries,
    format_rational,
    graded,
    graded_dot,
    mat_det,
    mat_inv,
    mat_solve,
    mono_mul,
    pack_monomial,
    parse_monomial,
    parse_polynomial,
    parse_rational,
    unpack_monomial,
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
            SSeries.variable(2, 0, None) * SSeries.variable(3, 0, None)

    def _random_poly(self, rng, nvars, max_deg=6, max_terms=5):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return SSeries(nvars, None, terms)

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
            again = SSeries.from_records(a.to_records(), 3)
            assert again == a
            assert again.to_records() == a.to_records()

    def test_render(self):
        xy = ["x", "y"]
        assert P("x^2 - y^2", xy).render(xy) == "x^2 - y^2"
        assert SSeries(2, None).render(xy) == "0"


class TestSSeries:
    def test_difference_of_squares_truncated(self):
        one = const(1, 2, 1)
        s1 = SSeries.variable(1, 0, 2)
        assert (one + s1) * (one - s1) == one - s1 * s1

    def test_truncation_drops_order_two(self):
        s1 = SSeries.variable(2, 0, 1)
        s2 = SSeries.variable(2, 1, 1)
        total = s1 + s2
        assert not total * total

    def test_hand_expansion(self):
        # (1 + s + s^2)(1 + s) at order 2 -> 1 + 2s + 2s^2
        one = const(1, 2, 1)
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

    def test_order_rule_mixed_orders_fuzz(self):
        # Operands whose orders differ, None among them, against a
        # term-by-term reference of the rule: no zero coefficient, nothing
        # above the smaller integer order, None only when both are None.
        rng = random.Random(41)

        def kept(terms, order):
            return {m: c for m, c in terms.items() if c and (order is None or sum(m) <= order)}

        def raw_terms(nvars):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = [0] * nvars
                for _ in range(rng.randint(0, 7)):
                    exps[rng.randrange(nvars)] += 1
                terms[tuple(exps)] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            return terms

        orders = [None, 0, 1, 2, 3, 4, 5]
        for _ in range(300):
            nvars = rng.randint(1, 3)
            oa, ob = rng.choice(orders), rng.choice(orders)
            ta, tb = raw_terms(nvars), raw_terms(nvars)
            a, b = SSeries(nvars, oa, ta), SSeries(nvars, ob, tb)
            assert a.order == oa and a.terms == kept(ta, oa)
            joint = ob if oa is None else oa if ob is None else min(oa, ob)

            sums, diffs, products = {}, {}, {}
            for m in set(a.terms) | set(b.terms):
                ca, cb = a.terms.get(m, 0), b.terms.get(m, 0)
                sums[m], diffs[m] = ca + cb, ca - cb
            for ma, ca in a.terms.items():
                for mb, cb in b.terms.items():
                    m = tuple(x + y for x, y in zip(ma, mb))
                    products[m] = products.get(m, 0) + ca * cb
            for got, want in ((a + b, sums), (a - b, diffs), (a * b, products), (b * a, products)):
                assert got.order == joint and got.nvars == nvars
                assert got.terms == kept(want, joint)
            for d in range(-1, 9):
                part = a.degree_part(d)
                assert part.order == oa
                assert part.terms == {m: c for m, c in a.terms.items() if sum(m) == d}
        with pytest.raises(ValueError, match="variable-count mismatch"):
            SSeries(2, 3) + SSeries(3, None)
        with pytest.raises(ValueError, match="truncation order"):
            SSeries(2, -1)
        assert SSeries(2, None, {(9, 9): Fraction(1)}).terms == {(9, 9): Fraction(1)}

    def test_degree_part_and_diff(self):
        s = SSeries(2, 3, {(1, 0): Fraction(2), (1, 1): Fraction(3), (0, 3): Fraction(1)})
        assert s.degree_part(2) == SSeries(2, 3, {(1, 1): Fraction(3)})
        assert s.diff(1) == SSeries(2, 2, {(1, 0): Fraction(3), (0, 2): Fraction(3)})


class TestPackedMonomials:
    def test_roundtrip_and_product(self):
        rng = random.Random(7)
        for _ in range(50):
            nvars, order = rng.randint(1, 6), rng.randint(0, 8)
            a = [rng.randint(0, order) for _ in range(nvars)]
            b = [rng.randint(0, order - e) for e in a]
            pa, pb = pack_monomial(a, order + 1), pack_monomial(b, order + 1)
            assert unpack_monomial(pa, order + 1, nvars) == tuple(a)
            # Below the base no digit carries: the product is the sum.
            assert unpack_monomial(pa + pb, order + 1, nvars) == mono_mul(a, b)

    @staticmethod
    def _random_polynomial(rng, nvars, top):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, top)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
        return SSeries(nvars, None, terms)

    @staticmethod
    def _by_degree(series):
        return {degree: dict(items) for degree, items in series}

    @staticmethod
    def _packed(series, base, bound):
        buckets = {}
        for mono, c in series.terms.items():
            if sum(mono) <= bound:
                assert c.denominator == 1
                buckets.setdefault(sum(mono), {})[pack_monomial(mono, base)] = c.numerator
        return graded(buckets)

    def test_graded_dot_matches_series_product(self):
        # The reference is SSeries.__mul__, which multiplies Fractions over
        # exponent tuples and shares no code with the kernel.
        rng = random.Random(11)
        top = 4
        base = 2 * top + 1
        for _ in range(60):
            nvars = rng.randint(2, 4)
            lefts = [self._random_polynomial(rng, nvars, top) for _ in range(2)]
            rights = [self._random_polynomial(rng, nvars, top) for _ in range(2)]
            full = lefts[0] * rights[0] + lefts[1] * rights[1]
            lowest = min((sum(m) for m in full.terms), default=0)
            highest = max((sum(m) for m in full.terms), default=0)
            packed_lefts = [(f, self._packed(s, base, 2 * top)) for f, s in enumerate(lefts)]
            packed_rights = [self._packed(s, base, 2 * top) for s in rights]
            for bound in (lowest - 1, lowest, highest - 1, highest, 2 * top):
                got = graded(graded_dot(packed_lefts, packed_rights, bound))
                want = self._packed(full, base, bound)
                assert self._by_degree(got) == self._by_degree(want)
                # One term of the sum alone, and a zero right operand.
                one = graded(graded_dot(packed_lefts[:1], packed_rights, bound))
                want = self._packed(lefts[0] * rights[0], base, bound)
                assert self._by_degree(one) == self._by_degree(want)
                for zero in ([], None):
                    assert graded_dot(packed_lefts[:1], [zero], bound) == {}

    def test_graded_dot_below_lowest_degree_is_empty(self):
        x, y = (pack_monomial(m, 3) for m in ((1, 0), (0, 1)))
        left, right = [(1, [(x, 2)])], [(1, [(y, 3)])]
        assert graded_dot([(0, left)], [right], 1) == {}
        assert graded_dot([(0, left)], [right], 2) == {2: {x + y: 6}}


class TestLaurentBlock:
    def test_constructor_drops_zeros(self):
        s = SSeries.variable(2, 0, 2)
        block = LaurentBlock({0: {0: s, 1: s - s}, -1: {0: SSeries(2, 2)}})
        assert block.z_terms == {0: {0: s}}
        assert sorted(block.z_terms) == [0]
        assert not LaurentBlock({0: {1: s - s}})


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

    def test_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert mat_det(m) == 0
        with pytest.raises(ValueError, match="singular"):
            mat_inv(m)

    def test_row_swap_sign(self):
        assert mat_det([[0, 1], [1, 0]]) == -1

    def test_s12_exponent_matrix(self):
        # x^2*y + y^2*z + x*z^3: |det| is the order of the symmetry group.
        det = mat_det([[2, 1, 0], [0, 2, 1], [1, 0, 3]])
        assert det == 13 and det.denominator == 1

    def test_solve_overdetermined_consistent(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert mat_solve(rows, [Fraction(2), Fraction(3), Fraction(5)]) == [2, 3]

    def test_solve_underdetermined_raises(self):
        # Free unknowns were once set to zero.
        with pytest.raises(ValueError, match="many solutions"):
            mat_solve([[Fraction(1), Fraction(1)]], [Fraction(1)])


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

    def test_rejects_blank_polynomial(self):
        with pytest.raises(ValueError, match="empty polynomial"):
            parse_polynomial("  ", ["x"])

    def test_rejects_empty_factor(self):
        with pytest.raises(ValueError, match="malformed monomial"):
            parse_monomial("x**y", ["x", "y"])

    def test_rejects_short_exponent_record(self):
        with pytest.raises(ValueError, match="expected 2 exponents, got 1"):
            SSeries.from_records([{"exponents": [1], "coeff": "1"}], 2)

    @pytest.mark.parametrize("text", ["x^-1", "x^", "x^+2", "x^1.5", "y*x^"])
    def test_rejects_negative_or_missing_exponent(self, text):
        # "x^-1" once parsed as x - 1 and "x^" as x.
        with pytest.raises(ValueError, match="exponent"):
            parse_polynomial(text, ["x", "y"])
        with pytest.raises(ValueError, match="exponent"):
            parse_monomial(text, ["x", "y"])
