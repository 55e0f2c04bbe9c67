import random
from fractions import Fraction
from math import factorial

import pytest

from exact_forms import const, j_block, j_components, zeta_block
from primform import milnor, primitive
from primform.algebra import LaurentBlock, SSeries, mono_mul, unpack_monomial, weighted_degree
from primform.frobenius import prepotential
from primform.milnor import milnor_basis
from primform.primitive import (
    UnfoldingState,
    build_unfolding,
    defect,
    defect_is_zero,
    solve_star,
)

F = Fraction


def as_series(state, m, floor):
    """Part m of exp(F - f) at the floor as {x-monomial: s-series}: each
    packed s^n unpacked, each int coefficient divided by m!."""
    mu, order = state.milnor.mu, state.order
    return {
        x: SSeries(
            mu,
            order,
            {unpack_monomial(n, order + 1, mu): F(c, factorial(m)) for n, c in terms},
        )
        for x, terms in state.exp_parts(floor)[m].items()
    }


def exp_terms(parts):
    return sum(len(terms) for part in parts for terms in part.values())


class TestBuildUnfolding:
    def test_a1(self, catalog, milnor_cache):
        state = build_unfolding(
            catalog["A1"].weighted_polynomial(), milnor_cache("A1"), 2
        )
        assert state.s_degrees == (F(1),)
        # phi_0 = 1, so every part sits at x^0: 1, s and s^2/2, each times
        # m! and with s^n packed as n.
        assert state.exp_parts(-2) == [{(0,): [(0, 1)]}, {(0,): [(1, 1)]}, {(0,): [(2, 1)]}]
        # deg s = 1 and nu = 0: at floor -1 the part of s-degree 2 is empty.
        assert state.exp_parts(-1) == [{(0,): [(0, 1)]}, {(0,): [(1, 1)]}, {}]
        assert [as_series(state, m, -2) for m in range(3)] == [
            {(0,): const(1, 2, 1)},
            {(0,): SSeries.variable(1, 0, 2)},
            {(0,): SSeries(1, 2, {(2,): F(1, 2)})},
        ]

    def test_rejects_a_polynomial_of_other_milnor_data(self, catalog, milnor_cache):
        # The unfolding holds f only as milnor.f, so an f that differs from
        # it is an error; a value-equal f, built afresh, is accepted.
        data = milnor_cache("E12")
        with pytest.raises(ValueError, match="Milnor data is not that of"):
            build_unfolding(catalog["W13"].weighted_polynomial(), data, 4)
        f = catalog["E12"].weighted_polynomial()
        assert f is not data.f
        state = build_unfolding(f, data, 4)
        assert (state.milnor, state.order) == (data, 4)

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

    @pytest.mark.parametrize("name", ["A1", "A3", "D4", "P8", "U12", "E13"])
    def test_exp_parts_match_repeated_products(self, name, catalog, milnor_cache, monkeypatch):
        # Reference: (F - f)^m / m!, each power the one below it times F - f;
        # whole at floor -order, and at floor -2 only its s^n in part m with
        # deg_s(n) <= 2 + (order - m) nu, nu = max(0, -min deg s_a).  The
        # x-monomials are packed in base order e_max + 1 while the words
        # grow: A1's basis is 1 alone (e_max 0), and E13's holds y^8, the
        # largest basis exponent in the catalog, whose fourth power reaches
        # 32 = base - 1, so a carry between digits would show here.
        order = 4
        data = milnor_cache(name)
        state = build_unfolding(catalog[name].weighted_polynomial(), data, order)
        mu = data.mu
        calls = []
        original = SSeries.__mul__

        def counting(a, b):
            calls.append(None)
            return original(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(SSeries, "__mul__", counting)
            parts = [state.exp_parts(-order), state.exp_parts(-2)]
        assert not calls  # built term by term, with no series product
        assert [len(p) for p in parts] == [order + 1] * 2
        s_degrees = state.s_degrees
        nu = max(0, -min(s_degrees))
        linear = {mono: SSeries.variable(mu, a, order) for a, mono in enumerate(data.basis)}
        power = {(0,) * state.milnor.f.nvars: const(mu, order, 1)}
        for m in range(order + 1):
            expected = {x: c * F(1, factorial(m)) for x, c in power.items() if c}
            assert as_series(state, m, -order) == expected, m
            bound = 2 + (order - m) * nu
            cut = {}
            for x, c in expected.items():
                kept = {n: v for n, v in c.terms.items() if weighted_degree(n, s_degrees) <= bound}
                if kept:
                    cut[x] = SSeries(mu, order, kept)
            assert as_series(state, m, -2) == cut, m
            raised = {}
            for xa, ca in power.items():
                for xb, cb in linear.items():
                    x = mono_mul(xa, xb)
                    raised[x] = raised.get(x, SSeries(mu, order)) + ca * cb
            power = raised


class TestSolveStar:
    def test_order_zero_is_volume_class(self, catalog, milnor_cache):
        for name in ("A2", "U12"):
            state = build_unfolding(
                catalog[name].weighted_polynomial(), milnor_cache(name), 0
            )
            result = solve_star(state)
            mu = state.milnor.mu
            one = const(mu, 0, 1)
            assert zeta_block(result).z_terms == {0: {0: one}}
            assert j_block(result).z_terms == {0: {0: one}}

    def test_a2_order_one(self, catalog, milnor_cache):
        state = build_unfolding(
            catalog["A2"].weighted_polynomial(), milnor_cache("A2"), 1
        )
        result = solve_star(state)
        # zeta gets no correction; J_(-1) = s_1 phi_1 + s_2 phi_2.
        assert zeta_block(result).z_terms == {0: {0: const(2, 1, 1)}}
        jm1 = j_components(result, -1)
        assert jm1[0] == SSeries.variable(2, 0, 1)
        assert jm1[1] == SSeries.variable(2, 1, 1)

    def test_volume_normalization(self, solved_cache, catalog):
        for name in ("A3", "E12", "U12"):
            result = solved_cache(name, 3)
            mu, zeta, J = result.state.milnor.mu, zeta_block(result), j_block(result)
            # zeta's s-degree-0 part is exactly the volume class.
            constant = zeta.z_terms[0].get(0)
            assert constant.degree_part(0) == const(mu, 3, 1)
            for zp in sorted(zeta.z_terms):
                assert zp >= 0
            # J's nonnegative part is the bare volume class.
            for zp in sorted(J.z_terms):
                assert zp <= 0
            assert J.z_terms[0] == {0: const(mu, 3, 1)}

    def test_determinism(self, catalog, milnor_cache):
        data = milnor_cache("Q10")
        f = catalog["Q10"].weighted_polynomial()
        r1 = solve_star(build_unfolding(f, data, 3))
        r2 = solve_star(build_unfolding(f, data, 3))
        assert zeta_block(r1).z_terms == zeta_block(r2).z_terms
        assert j_block(r1).z_terms == j_block(r2).z_terms

    def test_work_counters_pinned(self, catalog, monkeypatch):
        # Series products, J terms, reduction-cache entries, the total
        # echelon size of the Jacobian division and the monomial_class
        # calls answered from the cache, in a cold order-4 solve; the
        # generator columns eliminated in milnor_basis and that solve; and
        # the monomial_class calls of a defect right after it.  A rise in
        # any of them is more work for the same J.  The solve gets every
        # class through monomial_class, so the hits are every memo hit:
        # products x-monomial * phi_beta of distinct pairs that meet, and
        # those inside the recursion.
        calls, hits, columns, lookups = [], [], [], []
        original = SSeries.__mul__
        original_class = milnor.monomial_class
        original_eliminate = milnor.eliminate

        def counting(a, b):
            calls.append(None)
            return original(a, b)

        def counting_class(mono, data):
            lookups.append(None)
            if mono in data._reduce_cache:
                hits.append(None)
            return original_class(mono, data)

        def counting_eliminate(vec, combo, echelon):
            if any(key[0] == "g" for key in combo):
                columns.append(None)
            return original_eliminate(vec, combo, echelon)

        counts, eliminated, defect_lookups = {}, {}, {}
        for name in ("E12", "U12"):
            f = catalog[name].weighted_polynomial()
            columns.clear()
            with monkeypatch.context() as patch:
                patch.setattr(milnor, "eliminate", counting_eliminate)
                data = milnor_basis(f)
                state = build_unfolding(f, data, 4)
                calls.clear()
                hits.clear()
                patch.setattr(SSeries, "__mul__", counting)
                patch.setattr(SSeries, "__rmul__", counting)
                patch.setattr(milnor, "monomial_class", counting_class)
                patch.setattr(primitive, "monomial_class", counting_class)
                result = solve_star(state, floor=-4)
                solve_hits = len(hits)
                lookups.clear()
                assert defect(result) == []
                defect_lookups[name] = len(lookups)
            j_terms = sum(len(series.terms) for _, _, series in j_block(result).iter_terms())
            echelon = sum(len(system.echelon) for system in data._divider._systems.values())
            counts[name] = (len(calls), j_terms, len(data._reduce_cache), echelon, solve_hits)
            eliminated[name] = len(columns)
        # The solve forms no series product: it runs on ints, and takes the
        # class of each (x-monomial, beta) pair once per unfolding state, so
        # the defect looks up only the pairs of its m = 0 items that are new.
        assert counts == {"E12": (0, 1054, 105, 28, 82), "U12": (0, 643, 225, 46, 170)}
        assert eliminated == {"E12": 16, "U12": 37}
        assert defect_lookups == {"E12": 0, "U12": 3}

    def test_no_system_above_the_band(self, catalog):
        # milnor_basis builds the systems of every degree through the top
        # of the band above the socle, socle + max w_j, and no higher; the
        # solve and the defect divide above it by shifted band witnesses
        # and build none.
        built = {}
        for name in ("U12", "W13"):
            f = catalog[name].weighted_polynomial()
            data = milnor_basis(f)
            divider = data._divider
            band_top = divider.socle_sdeg + max(divider.var_sdegs)
            built[name] = len(divider._systems)
            assert built[name] == band_top + 1, name
            assert defect_is_zero(solve_star(build_unfolding(f, data, 6)))
            assert len(divider._systems) == band_top + 1, name
        assert built == {"U12": 19, "W13": 27}

    def test_floored_work_counters_pinned(self, catalog):
        # J terms and reduction-cache entries of a cold order-4 solve at the
        # default floor z^-2; the full J above has 1054/105 and 643/225.
        counts = {}
        for name in ("E12", "U12"):
            f = catalog[name].weighted_polynomial()
            data = milnor_basis(f)
            result = solve_star(build_unfolding(f, data, 4))
            j_terms = sum(len(series.terms) for _, _, series in j_block(result).iter_terms())
            counts[name] = (j_terms, len(data._reduce_cache))
        assert counts == {"E12": (635, 100), "U12": (419, 220)}

    def test_exp_terms_pinned(self, catalog, milnor_cache):
        # The (packed, coefficient) pairs of exp(F - f) at floor -2 and at
        # -order, where the whole of degree <= order is C(mu + order, order).
        counts = {}
        for name in ("E12", "U12"):
            for order in (4, 6):
                f = catalog[name].weighted_polynomial()
                state = build_unfolding(f, milnor_cache(name), order)
                counts[name, order] = tuple(exp_terms(state.exp_parts(fl)) for fl in (-2, -order))
        assert counts == {
            ("E12", 4): (1184, 1820),
            ("U12", 4): (1409, 1820),
            ("E12", 6): (4809, 18564),
            ("U12", 6): (7847, 18564),
        }

    def test_truncation_stability(self, catalog, milnor_cache):
        data = milnor_cache("W12")
        f = catalog["W12"].weighted_polynomial()
        full = solve_star(build_unfolding(f, data, 4), floor=-4)
        fresh = solve_star(build_unfolding(f, data, 3), floor=-3)

        def cut(block):
            return LaurentBlock(
                {zp: {i: c.truncate(3) for i, c in vec.items()} for zp, vec in block.z_terms.items()}
            )

        assert cut(zeta_block(full)).z_terms == zeta_block(fresh).z_terms
        assert cut(j_block(full)).z_terms == j_block(fresh).z_terms


class TestFloor:
    @pytest.fixture
    def agrees(self, catalog, milnor_cache, solved_cache, frobenius_cache):
        # The floored solve is the full one cut at z^-2, with the same F0.
        def check(name, order):
            data = milnor_cache(name)
            full = solved_cache(name, order)
            state = build_unfolding(catalog[name].weighted_polynomial(), data, order)
            floored = solve_star(state)
            assert floored.floor == -2 and full.floor == -order
            assert zeta_block(floored).z_terms == zeta_block(full).z_terms, name
            cut = {zp: vec for zp, vec in j_block(full).z_terms.items() if zp >= -2}
            assert j_block(floored).z_terms == cut, name
            f0 = prepotential(floored, data).prepotential
            assert f0 == frobenius_cache(name, order).prepotential, name

        return check

    def test_catalog_order_four(self, catalog, agrees):
        for name in sorted(catalog):
            agrees(name, 4)

    @pytest.mark.parametrize("name", ["E12", "U12"])
    def test_order_six(self, name, agrees):
        agrees(name, 6)

    @pytest.mark.parametrize(
        "name, order", [("E12", 6), ("U12", 6), ("A4", 4), ("P8", 4), ("W13", 4)]
    )
    def test_parts_one_floor_too_high_change_j(
        self, name, order, catalog, milnor_cache, monkeypatch
    ):
        # Negative control: parts built for floor + 1 lack s-monomials whose
        # products reach z^-2, so the bound has no room to spare.
        state = build_unfolding(catalog[name].weighted_polynomial(), milnor_cache(name), order)
        right = solve_star(state)
        original = UnfoldingState.exp_parts
        monkeypatch.setattr(UnfoldingState, "exp_parts", lambda st, floor: original(st, floor + 1))
        strict = solve_star(state)
        assert zeta_block(strict).z_terms == zeta_block(right).z_terms
        strict_j, right_j = j_block(strict).z_terms, j_block(right).z_terms
        assert strict_j.get(-1) == right_j.get(-1)
        assert strict_j.get(-2) != right_j.get(-2)

    @pytest.mark.parametrize("name, terms", [("E12", 2636), ("U12", 3599), ("W13", 4464)])
    def test_reversed_basis(self, name, terms, catalog):
        # The pruning does not assume a basis sorted by degree.
        f = catalog[name].weighted_polynomial()
        data = milnor_basis(f, basis=list(reversed(milnor_basis(f).basis)))
        state = build_unfolding(f, data, 5)
        full, floored = solve_star(state, floor=-5), solve_star(state)
        assert zeta_block(floored).z_terms == zeta_block(full).z_terms
        cut = {zp: vec for zp, vec in j_block(full).z_terms.items() if zp >= -2}
        assert j_block(floored).z_terms == cut
        assert defect_is_zero(floored)
        assert exp_terms(state.exp_parts(-2)) == terms

    def test_below_floor_raises(self, catalog, milnor_cache, solved_cache):
        state = build_unfolding(catalog["E12"].weighted_polynomial(), milnor_cache("E12"), 4)
        result = solve_star(state)
        assert any(j_components(result, -2))
        with pytest.raises(ValueError, match="only down to z\\^-2"):
            j_components(result, -3)
        # Below z^-order J is zero by degree, whatever the floor.
        full = solved_cache("E12", 4)
        assert j_components(full, -5) == [SSeries(full.state.milnor.mu, 4)] * full.state.milnor.mu
        with pytest.raises(ValueError, match="floor must be <= 0"):
            solve_star(state, floor=1)


class TestJComponents:
    def test_rejects_nonnegative_power(self, solved_cache):
        result = solved_cache("A2", 2)
        with pytest.raises(ValueError):
            j_components(result, 0)

    def test_z_powers_bounded_below_by_order(self, solved_cache, catalog):
        # Each z^(-1) is produced only together with at least one s factor.
        for name in ("E12", "U12", "P8"):
            for order in (2, 4):
                result = solved_cache(name, order)
                J = j_block(result)
                assert min(sorted(J.z_terms)) >= -order
                for zp, _, series in J.iter_terms():
                    if zp < 0:
                        for mono in series.terms:
                            assert sum(mono) >= -zp

    def test_order_one_part_is_linear(self, solved_cache, catalog):
        for name in ("D4", "S11"):
            result = solved_cache(name, 2)
            mu = result.state.milnor.mu
            jm1 = j_components(result, -1)
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
            for series in j_components(result, -2):
                assert not series.degree_part(1)
                assert not series.degree_part(0)


class TestDefectIdentity:
    def test_small_entries(self, solved_cache):
        for name in ("A2", "A3", "D4", "E12"):
            assert defect_is_zero(solved_cache(name, 4)), name


class TestGrading:
    def test_no_violations_catalogwide_sample(self, solved_cache):
        # With deg z = 1 and deg s_a = 1 - d_a, every stored term
        # z^m phi_a s^k of zeta and the full J has deg(s^k) + m + d_a = 0.
        for name in ("A4", "Z12", "U12", "P8"):
            result = solved_cache(name, 4)
            s_degrees, degrees = result.state.s_degrees, result.state.milnor.degrees
            for block in (zeta_block(result), j_block(result)):
                for zp, idx, series in block.iter_terms():
                    for mono in series.terms:
                        assert weighted_degree(mono, s_degrees) + zp + degrees[idx] == 0, name

    def test_randomized_term_sampling(self, solved_cache, catalog):
        rng = random.Random(4242)
        names = sorted(catalog)
        checked = 0
        for _ in range(40):
            name = names[rng.randrange(len(names))]
            result = solved_cache(name, 3)
            state = result.state
            terms = [
                (zp, idx, mono)
                for block in (zeta_block(result), j_block(result))
                for zp, idx, series in block.iter_terms()
                for mono in series.terms
            ]
            for zp, idx, mono in rng.sample(terms, min(len(terms), 30)):
                degree = weighted_degree(mono, state.s_degrees)
                assert degree + zp + state.milnor.degrees[idx] == 0
                checked += 1
        assert checked >= 500
