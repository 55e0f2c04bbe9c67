import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from exact_forms import const
from fraction_reference import det, rank
from primform import milnor
from primform.algebra import (
    SSeries,
    mono_mul,
    parse_polynomial,
    weighted_degree,
)
from primform.milnor import (
    MilnorData,
    NonIsolatedSingularityError,
    WeightedPolynomial,
    central_charge,
    divide_by_jacobian,
    hessian_determinant,
    infer_weights,
    milnor_basis,
    monomial_class,
    _JacobianDivider,
)
from primform.primitive import build_unfolding, solve_star

F = Fraction


def wp(text, variables, weights):
    return WeightedPolynomial(variables, weights, parse_polynomial(text, list(variables)))


class TestWeightedPolynomial:
    def test_rejects_inhomogeneous_terms(self):
        with pytest.raises(ValueError, match="weighted degree"):
            wp("x^3+x^2", ["x"], [F(1, 3)])

    def test_rejects_weights_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            wp("x", ["x"], [F(1)])

    @pytest.mark.parametrize(
        "variables, poly, message",
        [
            (["x", "y"], SSeries(2, None, {(3, 0): F(1)}), "one weight per variable"),
            (["x"], SSeries(2, None, {(3, 0): F(1)}), "variable count does not match"),
            (["x"], SSeries(1, None), "zero polynomial"),
        ],
        ids=["weight count", "variable count", "zero polynomial"],
    )
    def test_rejects_malformed_shape(self, variables, poly, message):
        with pytest.raises(ValueError, match=message):
            WeightedPolynomial(variables, [F(1, 3)], poly)

    def test_infer_weights(self):
        poly = parse_polynomial("x^2*y+y^3*z+z^3", ["x", "y", "z"])
        assert infer_weights(poly) == (F(7, 18), F(2, 9), F(1, 3))

    def test_infer_weights_inconsistent(self):
        with pytest.raises(ValueError):
            infer_weights(parse_polynomial("x^3+x^2", ["x"]))


class TestCentralCharge:
    def test_e12(self):
        assert central_charge(wp("x^3+y^7", ["x", "y"], [F(1, 3), F(1, 7)]).weights) == F(22, 21)

    def test_u12(self):
        f = wp("x^3+y^3+z^4", ["x", "y", "z"], [F(1, 3), F(1, 3), F(1, 4)])
        assert central_charge(f.weights) == F(7, 6)

    def test_a1(self):
        assert central_charge(wp("x^2", ["x"], [F(1, 2)]).weights) == 0


class TestMilnorBasis:
    def test_u12_matches_published_list(self, milnor_cache):
        data = milnor_cache("U12")
        assert data.mu == 12
        assert data.record_fields()["basis"] == [
            "1", "z", "x", "y", "z^2", "x*z", "y*z", "x*y",
            "x*z^2", "y*z^2", "x*y*z", "x*y*z^2",
        ]
        assert data.socle == (1, 1, 2)

    def test_a1(self, milnor_cache):
        data = milnor_cache("A1")
        assert data.mu == 1
        assert data.basis == ((0,),)

    def test_e12_mu(self, milnor_cache):
        # brute-force expectation: (3-1)*(7-1) = 12
        assert milnor_cache("E12").mu == 12

    def test_socle_degree_is_central_charge(self, catalog, milnor_cache):
        for name in catalog:
            data = milnor_cache(name)
            assert max(data.degrees) == central_charge(data.f.weights)
            assert weighted_degree(data.socle, data.f.weights) == central_charge(data.f.weights)
            divider = data._divider
            assert divider.socle_sdeg == central_charge(data.f.weights) * divider.scale

    def test_rejects_non_isolated(self):
        f = wp("x^2*y^2", ["x", "y"], [F(1, 4), F(1, 4)])
        with pytest.raises(NonIsolatedSingularityError, match="weighted degree 5/4, above"):
            milnor_basis(f)

    def test_rejects_missing_variable(self):
        f = wp("x^2", ["x", "y"], [F(1, 2), F(1, 3)])
        with pytest.raises(NonIsolatedSingularityError):
            milnor_basis(f)

    def test_poincare_polynomial(self, catalog, milnor_cache):
        # The multiset of basis degrees must expand prod (1-t^(1-q))/(1-t^q).
        for name in catalog:
            data = milnor_cache(name)
            scale = data._divider.scale
            numer = [1]
            denom = [1]
            for q in data.f.weights:
                numer = _poly1_mul(numer, _one_minus_power(int((1 - q) * scale)))
                denom = _poly1_mul(denom, _one_minus_power(int(q * scale)))
            quotient = _poly1_divide_exact(numer, denom)
            expected = {}
            for power, c in enumerate(quotient):
                if c:
                    expected[power] = c
            got = {}
            for mono in data.basis:
                sdeg = data._divider.sdeg(mono)
                got[sdeg] = got.get(sdeg, 0) + 1
            assert got == expected, name

    def test_division_rank_matches_elimination(self, catalog):
        # The quotient dimension the division leaves at each degree, against
        # the rank of every generator column from a dense elimination, at
        # every degree through socle + max(1 - q_j), above the band that
        # milnor_basis walks; above the socle it is 0.  A fresh milnor_basis
        # per entry, so the shared MilnorData keep only the systems the
        # engine built.
        for name, entry in catalog.items():
            f = entry.weighted_polynomial()
            divider = milnor_basis(f)._divider
            cap = divider.socle_sdeg + max(divider.gen_sdegs)
            partials = [f.poly.diff(i) for i in range(f.nvars)]
            for sdeg in range(cap + 1):
                monos = divider.monomials_at(sdeg)
                index = {m: r for r, m in enumerate(monos)}
                rows = []
                for i, g in enumerate(divider.gen_sdegs):
                    for m in divider.monomials_at(sdeg - g) if sdeg >= g else []:
                        row = [F(0)] * len(monos)
                        for jm, jc in partials[i].terms.items():
                            row[index[mono_mul(m, jm)]] += jc
                        rows.append(row)
                dim = len(monos) - rank(rows)
                assert dim == len(divider.system(sdeg).basis_monos), (name, sdeg)
                if sdeg > divider.socle_sdeg:
                    assert dim == 0, (name, sdeg)

    def test_user_basis_roundtrip(self, catalog):
        # D4 = x^3 + x*y^2 admits x^2 instead of y^2 as the top basis element.
        entry = catalog["D4"]
        f = entry.weighted_polynomial()
        data = milnor_basis(f, basis=[(0, 0), (1, 0), (0, 1), (2, 0)])
        assert data.basis == ((0, 0), (1, 0), (0, 1), (2, 0))
        assert data.socle == (2, 0)
        coeffs, quotients = divide_by_jacobian(SSeries(2, None, {(2, 0): F(1)}), data)
        assert coeffs == [0, 0, 0, 1]
        assert all(not q for q in quotients)

    def test_user_basis_dependent_rejected(self, catalog):
        entry = catalog["D4"]
        f = entry.weighted_polynomial()
        # x*y is in the ideal (2xy appears in d_y f), so it cannot be a basis element.
        with pytest.raises(ValueError):
            milnor_basis(f, basis=[(0, 0), (1, 0), (1, 1), (0, 2)])

    def test_user_basis_wrong_count_rejected(self, catalog):
        entry = catalog["D4"]
        with pytest.raises(ValueError):
            milnor_basis(entry.weighted_polynomial(), basis=[(0, 0), (1, 0), (0, 1)])

    def test_user_basis_exponent_count_rejected(self, catalog):
        # Each designated monomial spells one exponent per variable; (0,)
        # for D4 in x, y would reach the divider as an unknown monomial.
        f = catalog["D4"].weighted_polynomial()
        with pytest.raises(ValueError, match=r"monomial \(0,\) needs 2 exponents"):
            milnor_basis(f, basis=[(0,), (1,), (0, 1, 0), (2,)])
        with pytest.raises(ValueError, match=r"monomial \(0, 1, 0\) needs 2 exponents"):
            milnor_basis(f, basis=[(0, 0), (1, 0), (0, 1, 0), (2, 0)])

    def test_freed_without_the_cycle_collector(self, catalog):
        # The Jacobian divider holds every degree's echelon.  A reference
        # cycle through it would keep them alive until the cyclic collector
        # happened to run, so the peak memory of the next case would depend
        # on when that is.
        enabled = gc.isenabled()
        gc.disable()
        try:
            data = milnor_basis(catalog["E12"].weighted_polynomial())
            divider = weakref.ref(data._divider)
            del data
            assert divider() is None
        finally:
            if enabled:
                gc.enable()


def _one_minus_power(k):
    coeffs = [0] * (k + 1)
    coeffs[0] = 1
    coeffs[k] -= 1
    return coeffs


def _poly1_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly1_divide_exact(numer, denom):
    numer = list(numer)
    lead = max(i for i, c in enumerate(denom) if c)
    out = [0] * (len(numer) - lead)
    for i in range(len(numer) - 1, lead - 1, -1):
        c = numer[i]
        if not c:
            continue
        q, r = divmod(c, denom[lead])
        assert r == 0
        out[i - lead] = q
        for j in range(lead + 1):
            numer[i - lead + j] -= q * denom[j]
    assert not any(numer)
    return out


class TestConsistencyChecks:
    """Each check that the Milnor data is consistent, forced to fire by a
    fault in one of its inputs."""

    def test_hessian_in_the_ideal(self, catalog, monkeypatch):
        # d_x f lies in the Jacobian ideal, so its socle coefficient is 0.
        monkeypatch.setattr(milnor, "hessian_determinant", lambda f: f.poly.diff(0))
        with pytest.raises(ArithmeticError, match="hessian vanishes in the Jacobian algebra"):
            milnor_basis(catalog["E12"].weighted_polynomial())

    def test_dimension_off_the_weight_formula(self, catalog, monkeypatch):
        # The division drops the generator column d_x f = 3x^2 of x^3 + y^7,
        # so x^2 joins the basis.
        original = milnor.eliminate

        def dropping(vec, combo, echelon):
            if ("g", 0, (0, 0)) in combo:
                return None
            return original(vec, combo, echelon)

        monkeypatch.setattr(milnor, "eliminate", dropping)
        with pytest.raises(
            NonIsolatedSingularityError,
            match="quotient dimension 13 does not match the weight formula 12",
        ):
            milnor_basis(catalog["E12"].weighted_polynomial())

    def test_socle_off_the_central_charge(self, catalog, monkeypatch):
        # 1/100 more leaves the divider's socle degree, read off the
        # weights, where it was, but no basis degree equals it.
        original = milnor.central_charge
        monkeypatch.setattr(milnor, "central_charge", lambda f: original(f) + F(1, 100))
        with pytest.raises(
            NonIsolatedSingularityError, match="expected a one-dimensional socle, found 0"
        ):
            milnor_basis(catalog["E12"].weighted_polynomial())

    def test_unreachable_monomial(self, catalog):
        # An echelon without its row for the monomial 1 no longer spans degree 0.
        divider = milnor_basis(catalog["A2"].weighted_polynomial())._divider
        divider.system(0).echelon.clear()
        with pytest.raises(NonIsolatedSingularityError, match=r"monomial \(0,\) is not reachable"):
            divider.solve_monomial((0,))

    def test_degenerate_pairing(self, catalog):
        # With every degree 0, no two basis degrees add up to the central charge.
        data = milnor_basis(catalog["E12"].weighted_polynomial())
        with pytest.raises(ArithmeticError, match="residue pairing is degenerate"):
            MilnorData(data.f, data.basis, [F(0)] * data.mu, data.socle, data._divider)

    def test_degenerate_pairing_with_no_zero_row(self, catalog):
        # A basis of A3 = x^4 that holds x twice: eta has two equal nonzero
        # rows, so only the rank, not a zero row, shows it degenerate.
        data = milnor_basis(catalog["A3"].weighted_polynomial())
        basis, degrees = [(0,), (1,), (1,), (2,)], [F(0), F(1, 4), F(1, 4), F(1, 2)]
        with pytest.raises(ArithmeticError, match="residue pairing is degenerate"):
            MilnorData(data.f, basis, degrees, data.socle, data._divider)


class TestDivision:
    def test_basis_element_is_unit_vector(self, milnor_cache):
        data = milnor_cache("U12")
        for idx, mono in enumerate(data.basis):
            coeffs, quotients = divide_by_jacobian(SSeries(len(mono), None, {mono: F(1)}), data)
            expected = [F(0)] * data.mu
            expected[idx] = F(1)
            assert coeffs == expected
            assert all(not q for q in quotients)

    def test_x_squared_in_cubic(self, milnor_cache):
        # x^2 = (1/3) d_x(x^3): zero class, quotient 1/3.
        data = milnor_cache("A2")
        coeffs, quotients = divide_by_jacobian(SSeries(1, None, {(2,): F(1)}), data)
        assert coeffs == [0, 0]
        assert quotients[0] == const(1, None, F(1, 3))

    def test_e12_socle_partner_product(self, milnor_cache):
        # x^2 y^6 lies in (3x^2, 7y^6); hand solve gives a valid witness.
        data = milnor_cache("E12")
        g = SSeries(2, None, {(2, 6): F(1)})
        coeffs, quotients = divide_by_jacobian(g, data)
        assert all(not c for c in coeffs)
        rebuilt = SSeries(2, None)
        for i, q in enumerate(quotients):
            rebuilt = rebuilt + q * data.f.poly.diff(i)
        assert rebuilt == g

    def test_reconstruction_fuzz(self, catalog, milnor_cache):
        rng = random.Random(41)
        names = sorted(catalog)
        for _ in range(120):
            name = names[rng.randrange(len(names))]
            data = milnor_cache(name)
            divider = data._divider
            bound = int((central_charge(data.f.weights) + 2) * divider.scale)
            sdeg = rng.randint(0, bound)
            monos = divider.monomials_at(sdeg)
            if not monos:
                continue
            g = SSeries(data.f.nvars, None, {
                m: F(rng.randint(-5, 5), rng.randint(1, 4))
                for m in rng.sample(monos, min(len(monos), 3))
            })
            if not g:
                continue
            coeffs, quotients = divide_by_jacobian(g, data)
            rebuilt = SSeries(data.f.nvars, None, dict(zip(data.basis, coeffs)))
            for i, q in enumerate(quotients):
                rebuilt = rebuilt + q * data.f.poly.diff(i)
            assert rebuilt == g
            # Homogeneity of the witnesses.
            for i, q in enumerate(quotients):
                for mono in q.terms:
                    assert divider.sdeg(mono) == sdeg - divider.gen_sdegs[i]

    def test_rational_coefficients_reconstruct(self):
        # The division scales the partials of f to ints by the lcm of f's
        # denominators (420 here) and must scale the witnesses back.
        f = wp(
            "2/3*x^3+3/4*y^3+1/5*z^4+1/7*x^2*y",
            ["x", "y", "z"],
            [F(1, 3), F(1, 3), F(1, 4)],
        )
        data = milnor_basis(f)
        divider = data._divider
        assert divider.jacobian_den == 420
        for sdeg in range(int((central_charge(f.weights) + 1) * divider.scale) + 1):
            for mono in divider.monomials_at(sdeg):
                g = SSeries(3, None, {mono: F(1)})
                coeffs, quotients = divide_by_jacobian(g, data)
                rebuilt = SSeries(3, None, dict(zip(data.basis, coeffs)))
                for i, q in enumerate(quotients):
                    rebuilt = rebuilt + q * f.poly.diff(i)
                assert rebuilt == g, mono

    def test_idempotence(self, milnor_cache):
        data = milnor_cache("Q10")
        combo = SSeries(3, None, {mono: F(idx + 1, 3) for idx, mono in enumerate(data.basis)})
        coeffs, quotients = divide_by_jacobian(combo, data)
        assert coeffs == [F(idx + 1, 3) for idx in range(data.mu)]
        assert all(not q for q in quotients)


def _shed(divider, mono):
    """The power x^a a monomial sheds above the socle: variables last to
    first, the largest power of each that keeps x^(mono - a) above it."""
    low, shed = divider.sdeg(mono), [0] * len(mono)
    for j in reversed(range(len(mono))):
        shed[j] = max(0, min(mono[j], (low - divider.socle_sdeg - 1) // divider.var_sdegs[j]))
        low -= shed[j] * divider.var_sdegs[j]
    return tuple(shed)


def _rebuilt(partials, gen_part, shift):
    """sum_i q_i d_i f over the generator numerators, each quotient monomial
    multiplied by x^shift."""
    n = len(partials)
    quotients: list[dict] = [{} for _ in range(n)]
    for (i, qm), c in gen_part.items():
        quotients[i][mono_mul(qm, shift)] = F(c)
    total = SSeries(n, None)
    for q, partial in zip(quotients, partials):
        total = total + SSeries(n, None, q) * partial
    return total


def _reference_class(mono, data, memo):
    """The lattice class of x^mono as {(z power, index): Fraction}, every
    witness taken from the full system of the monomial's own degree."""
    if mono in memo:
        return memo[mono]
    divider = data._divider
    sys = divider.system(divider.sdeg(mono))
    vec, combo = {sys.index[mono]: 1}, {("t",): 1}
    assert milnor.eliminate(vec, combo, sys.echelon) is None
    den = combo.pop(("t",))
    out: dict = {}
    for key, c in combo.items():
        if key[0] == "b":
            out[0, data.basis_index[key[1]]] = -F(c, den)
            continue
        # x^mono carries -c * jacobian_den / den * x^qm * d_i f, which the
        # lattice relation trades for +z * that times d_i(x^qm).
        _, i, qm = key
        if qm[i]:
            factor = F(c * divider.jacobian_den * qm[i], den)
            lowered = qm[:i] + (qm[i] - 1,) + qm[i + 1:]
            for (zp, idx), v in _reference_class(lowered, data, memo).items():
                out[zp + 1, idx] = out.get((zp + 1, idx), 0) + factor * v
    memo[mono] = {k: v for k, v in out.items() if v}
    return memo[mono]


class TestAboveTheSocle:
    """Above the socle degree a monomial's witness is the band witness of
    what it keeps, shifted by the power it sheds."""

    CASES = [
        ("U12", None),
        ("W13", None),
        ("S12", None),
        ("E14", None),
        ("D4", [(0, 0), (1, 0), (0, 1), (2, 0)]),
    ]

    def test_shifted_witnesses(self, catalog, monkeypatch):
        wrong = 0
        for name, basis in self.CASES:
            f = catalog[name].weighted_polynomial()
            data = milnor_basis(f, basis)
            divider = data._divider
            partials = [f.poly.diff(i) for i in range(f.nvars)]
            divided = []
            original = _JacobianDivider.solve_monomial
            with monkeypatch.context() as patch:
                patch.setattr(
                    _JacobianDivider,
                    "solve_monomial",
                    lambda self, mono: divided.append(self.sdeg(mono)) or original(self, mono),
                )
                solve_star(build_unfolding(f, data, 6))
            for sdeg in range(divider.socle_sdeg + 1, max(divided) + 1):
                for mono in divider.monomials_at(sdeg):
                    den, basis_part, gen_part = divider.solve_monomial(mono)
                    assert basis_part == {}, (name, mono)
                    for i, qm in gen_part:
                        assert divider.sdeg(qm) == sdeg - divider.gen_sdegs[i], (name, mono)
                    target = SSeries(f.nvars, None, {mono: F(den)})
                    assert _rebuilt(partials, gen_part, (0,) * f.nvars) == target, (name, mono)
                    # The witness is the band witness of the rest, shifted.
                    shed = _shed(divider, mono)
                    rest = tuple(e - a for e, a in zip(mono, shed))
                    band = divider.sdeg(rest) - divider.socle_sdeg
                    assert 0 < band <= max(divider.var_sdegs), (name, mono)
                    rest_den, _, rest_part = divider.solve_monomial(rest)
                    assert rest_den == den
                    shifted = {(i, mono_mul(qm, shed)): c for (i, qm), c in rest_part.items()}
                    assert gen_part == shifted, (name, mono)
                    # Negative control: the shift on the wrong variable.
                    misplaced = shed[1:] + shed[:1]
                    if misplaced != shed:
                        wrong += 1
                        assert _rebuilt(partials, rest_part, misplaced) != target, (name, mono)
        assert wrong

    def test_classes_match_the_full_systems(self, catalog):
        memo_sizes = {}
        for name, reverse in (("W13", False), ("S12", False), ("U12", True)):
            f = catalog[name].weighted_polynomial()
            basis = list(reversed(milnor_basis(f).basis)) if reverse else None
            data = milnor_basis(f, basis)
            solve_star(build_unfolding(f, data, 6))
            memo_sizes[name] = len(data._reduce_cache)
            reference: dict = {}
            for mono in list(data._reduce_cache):
                r, entries = monomial_class(mono, data)
                got = {(zp, idx): F(c, r) for zp, idx, c in entries}
                assert got == _reference_class(mono, data, reference), (name, mono)
        # Cold floor -2 memo sizes at order 6.
        assert memo_sizes["W13"] == 412 and memo_sizes["S12"] == 456


class TestResiduePairing:
    def test_a1_normalization(self, milnor_cache):
        # hess(x^2) = 2, socle = 1, so eta_11 = mu/h = 1/2.
        data = milnor_cache("A1")
        hess_coeffs, _ = divide_by_jacobian(hessian_determinant(data.f), data)
        assert hess_coeffs[data.basis_index[data.socle]] == 2
        assert data.eta == ((F(1, 2),),)

    def test_grading_zeros(self, catalog, milnor_cache):
        for name in ("E12", "S12", "U12", "D4"):
            data = milnor_cache(name)
            c_hat = central_charge(data.f.weights)
            for a in range(data.mu):
                for b in range(data.mu):
                    if data.degrees[a] + data.degrees[b] != c_hat:
                        assert data.eta[a][b] == 0

    def test_nondegenerate(self, catalog, milnor_cache):
        for name in catalog:
            data = milnor_cache(name)
            assert det(data.eta) != 0

    def test_u12_pairing_against_socle(self, milnor_cache):
        data = milnor_cache("U12")
        socle_idx = data.basis_index[data.socle]
        assert data.eta[0][socle_idx] == F(1, 36)
        for b in range(data.mu):
            if b != socle_idx:
                assert data.eta[0][b] == 0

    def test_u12_full_matrix(self, milnor_cache):
        # All complementary pairs of the monomial basis multiply to the socle.
        data = milnor_cache("U12")
        pairs = {(0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6)}
        for a in range(12):
            for b in range(12):
                expected = F(1, 36) if (min(a, b), max(a, b)) in pairs else F(0)
                assert data.eta[a][b] == expected

    def test_hessian_degree(self, milnor_cache):
        data = milnor_cache("S12")
        hess = hessian_determinant(data.f)
        for mono in hess.terms:
            assert weighted_degree(mono, data.f.weights) == central_charge(data.f.weights)


def leibniz_hessian(f):
    """det(d_i d_j f) as the signed sum over all n! permutations."""
    n = f.nvars
    second = [[f.poly.diff(i).diff(j) for j in range(n)] for i in range(n)]
    total = SSeries(n, None)
    for perm in permutations(range(n)):
        term = SSeries(n, None, {(0,) * n: F(1)})
        for i, j in enumerate(perm):
            term = term * second[i][j]
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total = total + term.scale((-1) ** inversions)
    return total


class TestHessianDeterminant:
    def test_against_the_leibniz_sum(self, catalog):
        # The catalog entries, and 120 seeded sparse homogeneous polynomials
        # of degree d = 2-4 in 1-5 variables, with weights 1/d.
        rng = random.Random(35)
        cases = [entry.weighted_polynomial() for entry in catalog.values()]
        for _ in range(120):
            n, d = rng.randint(1, 5), rng.randint(2, 4)
            variables = "xyzuv"[:n]
            monos = [
                tuple(c.count(i) for i in range(n))
                for c in combinations_with_replacement(range(n), d)
            ]
            chosen = rng.sample(monos, min(len(monos), rng.randint(1, 6)))
            terms = {m: F(rng.choice([-3, -2, -1, 1, 2, 3])) for m in chosen}
            cases.append(WeightedPolynomial(variables, [F(1, d)] * n, SSeries(n, None, terms)))
        for f in cases:
            assert hessian_determinant(f) == leibniz_hessian(f), f

    def test_a_diagonal_hessian_is_not_expanded_over_permutations(self, monkeypatch):
        # The sum of x_i^2 in 8 variables: a Leibniz sum asks the factors of
        # all 8! permutations whether they are zero, 46 233 calls, though
        # only one permutation meets no zero; a row-by-row expansion over
        # the nonzero entries asks each of the 64 entries once.
        n = 8
        f = WeightedPolynomial(
            [f"x{i}" for i in range(n)],
            [F(1, 2)] * n,
            SSeries(n, None, {tuple(int(i == j) * 2 for j in range(n)): F(1) for i in range(n)}),
        )
        calls = []
        plain = SSeries.__bool__

        def counted(self):
            calls.append(None)
            return plain(self)

        monkeypatch.setattr(SSeries, "__bool__", counted)
        hess = hessian_determinant(f)
        monkeypatch.undo()
        assert hess.terms == {(0,) * n: F(2**n)}
        assert len(calls) < 1000
