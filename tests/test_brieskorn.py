import random
from fractions import Fraction

from primform.algebra import LaurentBlock, SSeries, weighted_degree
from exact_forms import add_term, reduce_form, verify_exact_class
from primform.milnor import central_charge

F = Fraction


class TestReduce:
    def test_basis_class_is_itself(self, milnor_cache):
        data = milnor_cache("U12")
        for idx, mono in enumerate(data.basis):
            block = reduce_form(SSeries(len(mono), None, {mono: F(1)}), data)
            assert block.z_terms == {0: {idx: F(1)}}

    def test_cubic_x_squared_vanishes(self, milnor_cache):
        # x^2 = (1/3) d(x^3) with constant quotient: the class is zero.
        data = milnor_cache("A2")
        assert not reduce_form(SSeries(1, None, {(2,): F(1)}), data)

    def test_cubic_x_cubed(self, milnor_cache):
        # x^3 = (x/3) d(x^3) and -z d(x/3) = -z/3, so [x^3 dx] = -(1/3) z [dx].
        data = milnor_cache("A2")
        block = reduce_form(SSeries(1, None, {(3,): F(1)}), data)
        assert block.z_terms == {1: {0: F(-1, 3)}}

    def test_linearity(self, milnor_cache):
        data = milnor_cache("W12")
        rng = random.Random(3)
        monos = data._divider.monomials_at(int(F(3, 2) * data._divider.scale))
        g1 = SSeries(2, None, {m: F(rng.randint(-4, 4)) for m in monos[:3]})
        g2 = SSeries(2, None, {m: F(rng.randint(-4, 4)) for m in monos[2:5]})
        a, b = F(2, 3), F(-5, 7)
        lhs = reduce_form(g1.scale(a) + g2.scale(b), data)
        rhs: dict = {}
        for g, c in ((g1, a), (g2, b)):
            for zp, idx, v in reduce_form(g, data).iter_terms():
                add_term(rhs, zp, idx, v * c)
        assert lhs == LaurentBlock(rhs)

    def test_z_positivity(self, catalog, milnor_cache):
        rng = random.Random(17)
        for name in ("E12", "Q11", "U12"):
            data = milnor_cache(name)
            divider = data._divider
            for _ in range(20):
                sdeg = rng.randint(0, 3 * divider.scale)
                monos = divider.monomials_at(sdeg)
                if not monos:
                    continue
                g = SSeries(data.f.nvars, None, {rng.choice(monos): F(rng.randint(1, 5))})
                block = reduce_form(g, data)
                assert all(zp >= 0 for zp in sorted(block.z_terms))

    def test_grading_of_reduction(self, milnor_cache):
        # For homogeneous g of degree d, the z^m component sits on basis
        # elements of degree d - m.
        data = milnor_cache("U12")
        divider = data._divider
        for sdeg in range(0, 4 * divider.scale):
            for mono in divider.monomials_at(sdeg):
                d = weighted_degree(mono, data.f.weights)
                block = reduce_form(SSeries(len(mono), None, {mono: F(1)}), data)
                for zp, idx, _ in block.iter_terms():
                    assert data.degrees[idx] == d - zp


class TestExactness:
    def test_zero_form(self, milnor_cache):
        data = milnor_cache("E12")
        assert verify_exact_class([SSeries(2, None), SSeries(2, None)], data)

    def test_one_variable_hand_case(self, milnor_cache):
        # h = (x) for f = x^3: df ^ eta + z d(eta) = 3x^3 + z, both reductions
        # cancel through [x^3 dx] = -(1/3) z [dx].
        data = milnor_cache("A2")
        assert verify_exact_class([SSeries.variable(1, 0, None)], data)

    def test_random_forms_annihilate(self, catalog, milnor_cache):
        rng = random.Random(99)
        for name in ("A3", "D4", "W12", "U12", "S12"):
            data = milnor_cache(name)
            divider = data._divider
            n = data.f.nvars
            bound = int(central_charge(data.f) * divider.scale)
            for _ in range(25):
                h = []
                for _ in range(n):
                    terms = {}
                    for _ in range(rng.randint(0, 3)):
                        sdeg = rng.randint(0, bound)
                        monos = divider.monomials_at(sdeg)
                        if monos:
                            terms[rng.choice(monos)] = F(rng.randint(-6, 6), rng.randint(1, 3))
                    h.append(SSeries(n, None, terms))
                assert verify_exact_class(h, data)


class TestSSeriesCoefficients:
    def test_series_coefficients_ride_along(self, milnor_cache):
        data = milnor_cache("A2")
        s = SSeries.variable(2, 0, 3)
        block = reduce_form({(3,): s}, data)
        assert block.z_terms == {1: {0: s.scale(F(-1, 3))}}

    def test_empty_input(self, milnor_cache):
        data = milnor_cache("A2")
        assert reduce_form({}, data) == LaurentBlock()
