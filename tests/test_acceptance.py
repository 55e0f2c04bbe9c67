"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact rational arithmetic; "tolerance" always means
exact equality.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines and timings.
"""

import random
import time
from fractions import Fraction
from itertools import product

from exact_forms import const, verify_exact_class
from primform.algebra import SSeries, mat_det, parse_rational
from primform.catalog import EXCEPTIONAL_NAMES, load_catalog
from primform.frobenius import (
    euler_check,
    flat_coordinates,
    normalization_check,
    prepotential,
    wdvv_check,
)
from primform.milnor import (
    central_charge,
    divide_by_jacobian,
    hessian_determinant,
    milnor_basis,
)
from primform.mirror import InvertiblePolynomial, diagonal_symmetries, transpose
from primform.primitive import build_unfolding, defect_is_zero, solve_star

F = Fraction

# Central charges of the fourteen exceptional unimodular singularities.
CENTRAL_CHARGES = {
    "E12": "22/21", "E13": "16/15", "E14": "13/12", "Z11": "16/15",
    "Z12": "12/11", "Z13": "10/9", "W12": "11/10", "W13": "9/8",
    "Q10": "13/12", "Q11": "10/9", "Q12": "17/15", "S11": "9/8",
    "S12": "15/13", "U12": "7/6",
}

# How transposition permutes the exceptional family.
TRANSPOSE_PAIRS = {
    "E12": "E12", "E13": "Z11", "E14": "Q10", "Z11": "E13", "Z12": "Z12",
    "Z13": "Q11", "W12": "W12", "W13": "S11", "Q10": "E14", "Q11": "Z13",
    "Q12": "Q12", "S11": "W13", "S12": "S12", "U12": "U12",
}

# The published degree-4 part for U12 (components of minus the prepotential)
# in flat coordinates t_1..t_12 over the basis
# {1, z, x, y, z^2, xz, yz, xy, xz^2, yz^2, xyz, xyz^2}.
U12_NEGATED_FOUR_POINT = {
    (0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 0): "1/8",   # t5^2 t6 t7
    (0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 0, 0): "1/6",   # t3 t6^2 t8
    (0, 0, 0, 1, 0, 0, 2, 1, 0, 0, 0, 0): "1/6",   # t4 t7^2 t8
    (0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0): "1/4",   # t2 t5 t7 t9
    (0, 0, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0): "1/6",   # t3^2 t8 t9
    (0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0): "1/4",   # t2 t5 t6 t10
    (0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 0, 0): "1/6",   # t4^2 t8 t10
    (0, 2, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0): "1/8",   # t2^2 t9 t10
    (0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0): "1/8",   # t2 t5^2 t11
    (0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 1, 0): "1/6",   # t3^2 t6 t11
    (0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 1, 0): "1/6",   # t4^2 t7 t11
    (0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 1): "1/18",  # t3^3 t12
    (0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1): "1/18",  # t4^3 t12
    (0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1): "1/8",   # t2^2 t5 t12
}

U12_BASIS = [
    (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1),
    (0, 1, 1), (1, 1, 0), (1, 0, 2), (0, 1, 2), (1, 1, 1), (1, 1, 2),
]

CHECKED_ENTRIES = list(EXCEPTIONAL_NAMES) + ["A2", "A3", "A4", "D4", "P8"]


def test_criterion_1_central_charges():
    start = time.monotonic()
    catalog = load_catalog()
    for name, expected in CENTRAL_CHARGES.items():
        f = catalog[name].weighted_polynomial()
        assert central_charge(f.weights) == parse_rational(expected), name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"central charges took {elapsed:.2f}s (budget 1s)"
    print(f"ACCEPTANCE 1 [central charges, 14 entries]: PASS ({elapsed:.3f}s)")


def test_criterion_2_milnor_numbers():
    start = time.monotonic()
    catalog = load_catalog()
    for name in EXCEPTIONAL_NAMES:
        data = milnor_basis(catalog[name].weighted_polynomial())
        assert data.mu == int(name[1:]), name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"milnor numbers took {elapsed:.2f}s (budget 10s)"
    print(f"ACCEPTANCE 2 [milnor numbers = type subscripts]: PASS ({elapsed:.3f}s)")


def test_criterion_3_u12_four_point_function():
    start = time.monotonic()
    catalog = load_catalog()
    f = catalog["U12"].weighted_polynomial()
    data = milnor_basis(f, basis=U12_BASIS)
    result = solve_star(build_unfolding(f, data, 4))

    # Normalization zeta = dx dy dz + O(s).
    mu = data.mu
    assert result.zeta.component(0)[0].degree_part(0) == const(mu, 4, 1)

    frob = prepotential(result, data)
    degree4 = frob.prepotential.degree_part(4)

    # Single recorded convention constant: the published table normalizes the
    # flat pairing so that <1, socle> = 1 while the engine fixes
    # Res(hess f) = mu; the prepotential rescales by h / mu = 36, h the
    # socle coefficient of the hessian modulo the Jacobian ideal.
    hess_coeffs, _ = divide_by_jacobian(hessian_determinant(f), data)
    convention = hess_coeffs[data.basis_index(data.socle)] / data.mu
    assert convention == 36

    scaled = {mono: -coeff * convention for mono, coeff in degree4.terms.items()}
    expected = {mono: parse_rational(c) for mono, c in U12_NEGATED_FOUR_POINT.items()}
    assert scaled == expected, "four-point function differs from the published table"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"U12 run took {elapsed:.2f}s (budget 10min)"
    print(
        "ACCEPTANCE 3 [U12 four-point function, 14 terms, convention 36]: "
        f"PASS ({elapsed:.3f}s)"
    )


def test_criterion_4_defect_identity(catalog, solved_cache):
    start = time.monotonic()
    for name in catalog:
        assert defect_is_zero(solved_cache(name, 4)), name
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 4 [exp((F-f)/z) zeta = J, {len(catalog)} entries, order 4]: "
        f"PASS ({elapsed:.3f}s)"
    )


def test_criterion_5_wdvv_euler_integrability(catalog, milnor_cache, solved_cache):
    start = time.monotonic()
    for name in CHECKED_ENTRIES:
        data = milnor_cache(name)
        result = solved_cache(name, 4)
        frob = prepotential(result, data)  # raises if integrability fails
        f0 = frob.prepotential
        assert wdvv_check(f0, data.eta).passed, name
        flat_degrees = [1 - d for d in data.degrees]
        assert euler_check(f0, flat_degrees, central_charge(data.f.weights)).passed, name
        unit = data.basis_index((0,) * data.f.nvars)
        assert normalization_check(f0, data.eta, unit).passed, name

    # Negative controls on U12: a perturbed coefficient must be flagged.
    data = milnor_cache("U12")
    f0 = prepotential(solved_cache("U12", 4), data).prepotential
    terms = dict(f0.terms)
    mono = next(m for m in sorted(terms) if sum(m) == 4)
    terms[mono] = terms[mono] + 1
    assert not wdvv_check(SSeries(data.mu, 4, terms), data.eta).passed
    terms2 = dict(f0.terms)
    terms2[(4,) + (0,) * (data.mu - 1)] = F(1)  # t1^4 has flat degree 4 != 3 - c_hat
    assert not euler_check(
        SSeries(data.mu, 4, terms2), [1 - d for d in data.degrees], central_charge(data.f.weights)
    ).passed
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 5 [WDVV+Euler+integrability, {len(CHECKED_ENTRIES)} entries "
        f"+ negative controls]: PASS ({elapsed:.3f}s)"
    )


def test_criterion_6_independent_small_oracle(catalog, milnor_cache):
    from a_series_oracle import oracle_run

    start = time.monotonic()
    for name, n in (("A2", 3), ("A3", 4)):
        oracle = oracle_run(n, 4)
        data = milnor_cache(name)
        assert data.basis == tuple((k,) for k in range(n - 1))
        result = solve_star(build_unfolding(catalog[name].weighted_polynomial(), data, 4), floor=-4)

        engine_zeta = {
            (zp, idx): series.terms for zp, idx, series in result.zeta.iter_terms()
        }
        assert engine_zeta == {k: v for k, v in oracle["zeta"].items() if v}, name

        engine_j_neg = {
            (zp, idx): series.terms
            for zp, idx, series in result.J.iter_terms()
            if zp <= -1
        }
        assert engine_j_neg == oracle["J"], name

        engine_t = [t.terms for t in flat_coordinates(result)]
        assert engine_t == oracle["t_of_s"], name

        frob = prepotential(result, data)
        assert frob.prepotential.terms == oracle["prepotential"], name
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 6 [engine = independent oracle on A2, A3]: PASS ({elapsed:.3f}s)")


def test_criterion_7_transpose_closure_and_symmetry_orders(catalog):
    start = time.monotonic()
    keys = {}
    for name in EXCEPTIONAL_NAMES:
        entry = catalog[name]
        keys[InvertiblePolynomial.from_poly(entry.poly, entry.variables).canonical_key()] = name
    for name in EXCEPTIONAL_NAMES:
        entry = catalog[name]
        w = InvertiblePolynomial.from_poly(entry.poly, entry.variables)
        partner = keys.get(transpose(w).canonical_key())
        assert partner == TRANSPOSE_PAIRS[name], (name, partner)

        group = diagonal_symmetries(w)
        det = abs(int(mat_det(w.exponent_matrix)))
        assert group.order == det, name
        if det <= 100:
            count = _brute_force_symmetry_count(w, det)
            assert count == det, (name, count)
    elapsed = time.monotonic() - start
    print(
        "ACCEPTANCE 7 [transpose closure + symmetry orders vs brute force]: "
        f"PASS ({elapsed:.3f}s)"
    )


def _brute_force_symmetry_count(w, det):
    # Every element's order divides det, so phases live in (1/det)Z^n mod 1.
    n = w.nvars
    rows = [list(r) for r in w.exponent_matrix]
    count = 0
    for combo in product(range(det), repeat=n):
        if all(sum(e * k for e, k in zip(row, combo)) % det == 0 for row in rows):
            count += 1
    return count


def test_criterion_8_property_suites(catalog, milnor_cache, solved_cache):
    start = time.monotonic()

    # (a) exactness annihilation across the fourteen exceptional entries
    rng = random.Random(2024)
    cases = 0
    while cases < 1000:
        name = EXCEPTIONAL_NAMES[rng.randrange(len(EXCEPTIONAL_NAMES))]
        data = milnor_cache(name)
        divider = data._divider
        n = data.f.nvars
        bound = int(central_charge(data.f.weights) * divider.scale)
        h = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                monos = divider.monomials_at(rng.randint(0, bound))
                if monos:
                    terms[rng.choice(monos)] = F(rng.randint(-6, 6), rng.randint(1, 4))
            h.append(SSeries(n, None, terms))
        assert verify_exact_class(h, data)
        cases += 1

    # (b) division reconstruction over the whole catalog
    rng = random.Random(31337)
    names = sorted(catalog)
    cases = 0
    while cases < 1000:
        name = names[rng.randrange(len(names))]
        data = milnor_cache(name)
        divider = data._divider
        bound = int((central_charge(data.f.weights) + 2) * divider.scale)
        monos = divider.monomials_at(rng.randint(0, bound))
        if not monos:
            continue
        g = SSeries(
            data.f.nvars,
            None,
            {m: F(rng.randint(-9, 9), rng.randint(1, 5)) for m in rng.sample(monos, min(3, len(monos)))},
        )
        coeffs, quotients = divide_by_jacobian(g, data)
        rebuilt = SSeries(data.f.nvars, None, dict(zip(data.basis, coeffs)))
        for i, q in enumerate(quotients):
            rebuilt = rebuilt + q * data.f.poly.diff(i)
        assert rebuilt == g
        cases += 1

    # (c) truncation is a ring homomorphism
    rng = random.Random(271828)
    for _ in range(1000):
        nvars = rng.randint(1, 3)
        order = rng.randint(0, 6)
        cut = rng.randint(0, order)

        def rand_series():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = [0] * nvars
                for _ in range(rng.randint(0, order)):
                    exps[rng.randrange(nvars)] += 1
                terms[tuple(exps)] = F(rng.randint(-9, 9), rng.randint(1, 5))
            return SSeries(nvars, order, terms)

        a, b = rand_series(), rand_series()
        assert (a * b).truncate(cut) == (a.truncate(cut) * b.truncate(cut)).truncate(cut)

    # (d) grading predicate over stored solver terms
    from primform.algebra import weighted_degree

    rng = random.Random(1618)
    cases = 0
    while cases < 1000:
        name = names[rng.randrange(len(names))]
        result = solved_cache(name, 4)
        state = result.state
        stored = [
            (zp, idx, mono)
            for block in (result.zeta, result.J)
            for zp, idx, series in block.iter_terms()
            for mono in series.terms
        ]
        for zp, idx, mono in rng.sample(stored, min(len(stored), 50)):
            assert weighted_degree(mono, state.s_degrees) + zp + state.milnor.degrees[idx] == 0
            cases += 1

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"property suites took {elapsed:.2f}s (budget 5min)"
    print(
        "ACCEPTANCE 8 [4 property suites, >= 1000 seeded cases each]: "
        f"PASS ({elapsed:.3f}s)"
    )
