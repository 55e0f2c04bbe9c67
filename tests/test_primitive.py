import random
from fractions import Fraction

import pytest

from primform.algebra import SSeries
from primform.primitive import (
    build_unfolding,
    defect_is_zero,
    grading_violations,
    solve_star,
)

F = Fraction


class TestBuildUnfolding:
    def test_a1(self, catalog, milnor_cache):
        state = build_unfolding(
            catalog["A1"].weighted_polynomial(), milnor_cache("A1"), 2
        )
        assert state.s_degrees == (F(1),)
        assert state.F_minus_f == {(0,): SSeries.variable(1, 0, 2)}

    def test_u12_parameter_degrees(self, catalog, milnor_cache):
        state = build_unfolding(
            catalog["U12"].weighted_polynomial(), milnor_cache("U12"), 1
        )
        assert len(state.s_degrees) == 12
        assert state.s_degrees[0] == 1
        assert state.s_degrees[11] == F(-1, 6)

    def test_exceptional_sign_pattern(self, catalog, milnor_cache):
        # Exactly one negative-degree parameter and no zero-degree one.
        from primform.catalog import EXCEPTIONAL_NAMES

        for name in EXCEPTIONAL_NAMES:
            state = build_unfolding(
                catalog[name].weighted_polynomial(), milnor_cache(name), 0
            )
            negative = [d for d in state.s_degrees if d < 0]
            zero = [d for d in state.s_degrees if d == 0]
            assert len(negative) == 1, name
            assert not zero, name

    def test_simple_elliptic_has_marginal_parameter(self, catalog, milnor_cache):
        state = build_unfolding(
            catalog["P8"].weighted_polynomial(), milnor_cache("P8"), 0
        )
        assert state.s_degrees.count(F(0)) == 1


class TestSolveStar:
    def test_order_zero_is_volume_class(self, catalog, milnor_cache):
        for name in ("A2", "U12"):
            state = build_unfolding(
                catalog[name].weighted_polynomial(), milnor_cache(name), 0
            )
            result = solve_star(state)
            mu = state.mu
            one = SSeries.const(mu, 0, 1)
            assert result.zeta.z_terms == {0: {0: one}}
            assert result.J.z_terms == {0: {0: one}}

    def test_a2_order_one(self, catalog, milnor_cache):
        state = build_unfolding(
            catalog["A2"].weighted_polynomial(), milnor_cache("A2"), 1
        )
        result = solve_star(state)
        # zeta gets no correction; J_(-1) = s_1 phi_1 + s_2 phi_2.
        assert result.zeta.z_terms == {0: {0: SSeries.const(2, 1, 1)}}
        jm1 = result.j_components(-1)
        assert jm1[0] == SSeries.variable(2, 0, 1)
        assert jm1[1] == SSeries.variable(2, 1, 1)

    def test_volume_normalization(self, solved_cache, catalog):
        for name in ("A3", "E12", "U12"):
            result = solved_cache(name, 3)
            mu = result.state.mu
            # zeta's s-degree-0 part is exactly the volume class.
            constant = result.zeta.component(0).get(0)
            assert constant.degree_part(0) == SSeries.const(mu, 3, 1)
            for zp in result.zeta.z_powers():
                assert zp >= 0
            # J's nonnegative part is the bare volume class.
            for zp in result.J.z_powers():
                assert zp <= 0
            assert result.J.component(0) == {0: SSeries.const(mu, 3, 1)}

    def test_determinism(self, catalog, milnor_cache):
        data = milnor_cache("Q10")
        f = catalog["Q10"].weighted_polynomial()
        r1 = solve_star(build_unfolding(f, data, 3))
        r2 = solve_star(build_unfolding(f, data, 3))
        assert r1.zeta == r2.zeta and r1.J == r2.J
        assert r1.zeta.to_records(data.mu) == r2.zeta.to_records(data.mu)

    def test_truncation_stability(self, catalog, milnor_cache):
        data = milnor_cache("W12")
        f = catalog["W12"].weighted_polynomial()
        full = solve_star(build_unfolding(f, data, 4))
        cut = full.truncated(3)
        fresh = solve_star(build_unfolding(f, data, 3))
        assert cut.zeta == fresh.zeta
        assert cut.J == fresh.J

    def test_record_round_trip(self, solved_cache):
        import json

        result = solved_cache("E12", 3)
        record = result.to_record()
        # survives a JSON round trip byte-for-byte
        again = json.loads(json.dumps(record))
        order, zeta, j = type(result).parse_record(again)
        assert order == result.order
        assert zeta == result.zeta
        assert j == result.J


class TestJComponents:
    def test_rejects_nonnegative_power(self, solved_cache):
        result = solved_cache("A2", 2)
        with pytest.raises(ValueError):
            result.j_components(0)

    def test_z_powers_bounded_below_by_order(self, solved_cache, catalog):
        # Each z^(-1) is produced only together with at least one s factor.
        for name in ("E12", "U12", "P8"):
            for order in (2, 4):
                result = solved_cache(name, order)
                assert min(result.J.z_powers()) >= -order
                for zp, _, series in result.J.iter_terms():
                    if zp < 0:
                        for mono in series.terms:
                            assert sum(mono) >= -zp

    def test_order_one_part_is_linear(self, solved_cache, catalog):
        for name in ("D4", "S11"):
            result = solved_cache(name, 2)
            mu = result.state.mu
            jm1 = result.j_components(-1)
            for alpha in range(mu):
                linear = jm1[alpha].degree_part(1)
                assert linear == SSeries.variable(mu, alpha, result.order).truncate(
                    result.order
                )
                assert not jm1[alpha].degree_part(0)

    def test_minus_two_vanishes_at_first_order(self, solved_cache, catalog):
        from primform.catalog import EXCEPTIONAL_NAMES

        for name in EXCEPTIONAL_NAMES:
            result = solved_cache(name, 2)
            for series in result.j_components(-2):
                assert not series.degree_part(1)
                assert not series.degree_part(0)


class TestDefectIdentity:
    def test_small_entries(self, solved_cache):
        for name in ("A2", "A3", "D4", "E12"):
            assert defect_is_zero(solved_cache(name, 4)), name


class TestGrading:
    def test_no_violations_catalogwide_sample(self, solved_cache):
        for name in ("A4", "Z12", "U12", "P8"):
            assert grading_violations(solved_cache(name, 4)) == [], name

    def test_randomized_term_sampling(self, solved_cache, catalog):
        from primform.algebra import weighted_degree

        rng = random.Random(4242)
        names = sorted(catalog)
        checked = 0
        for _ in range(40):
            name = names[rng.randrange(len(names))]
            result = solved_cache(name, 3)
            state = result.state
            terms = [
                (zp, idx, mono)
                for block in (result.zeta, result.J)
                for zp, idx, series in block.iter_terms()
                for mono in series.terms
            ]
            for zp, idx, mono in rng.sample(terms, min(len(terms), 30)):
                degree = weighted_degree(mono, state.s_degrees)
                assert degree + zp + state.milnor.degrees[idx] == 0
                checked += 1
        assert checked >= 500
