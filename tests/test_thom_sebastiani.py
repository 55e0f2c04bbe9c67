"""A Thom-Sebastiani oracle: x_1^n_1 + ... + x_k^n_k against closed forms.

For one variable, x^n has the Milnor basis x^i for 0 <= i <= n - 2, x^i of
degree i/n, and the residue pairing eta(x^i, x^j) = 1/n when i + j = n - 2
and 0 otherwise.  A sum of polynomials in separate variables has the tensor
product of their Milnor algebras: the basis is the products of the factors'
bases, a degree is the sum of the factors' degrees, and the pairing is the
product of theirs.  The cubic part of F0 is (1/6) sum_abc C_abc t_a t_b t_c
with C_abc = eta(phi_a phi_b, phi_c) = prod_k (1/n_k)[i_k + j_k + l_k = n_k - 2],
so the monomial t^m of degree 3 has the coefficient C / prod_a m_a!.

The quartic part follows the tensor-product rule of cohomological field
theories on M-bar_{0,4}: with <...> the 4-point function d^4 F0 at 0 and
Res_n(x^m) = 1/n at m = n - 2 and 0 otherwise,

    <phi_1 .. phi_4> = sum_k <x_k^(i_1k) .. x_k^(i_4k)>
                       prod_{j != k} Res_n_j(x_j^(i_1j + .. + i_4j)),

phi_l being prod_k x_k^(i_lk): one summand per variable carries its
one-variable 4-point function, read from the x^n oracle of
`a_series_oracle`.  Leaving one summand out is the negative control.

D4 + z^3 = x^3 + x*y^2 + z^3 has a factor that is not of the form x^n, so
it is checked against a residue table instead: eta(phi_a, phi_b) =
Res(phi_a phi_b) and C_abc = Res(phi_a phi_b phi_c), evaluated on the
engine's own basis monomials (D4's socle may be x^2 or y^2).

Nothing here is computed by the engine: it is read only for the values
that are compared.
"""

from fractions import Fraction
from functools import cache, partial
from itertools import combinations_with_replacement, product
from math import factorial, prod

import pytest

from a_series_oracle import oracle_run
from primform import (
    WeightedPolynomial,
    build_unfolding,
    infer_weights,
    load_catalog,
    milnor_basis,
    parse_polynomial,
    prepotential,
    solve_star,
)

ORDER = 3
CASES = {"A4": (5,), "E12": (3, 7), "P8": (3, 3, 3), "U12": (3, 3, 4)}
D4_Z3 = "x^3 + x*y^2 + z^3"


def closed_forms(exponents, pairing_scale=1, swap_degrees=False):
    """(basis, degrees, eta, cubic) of the sum of the x_k^n_k.

    basis is a set of exponent tuples, degrees and eta are keyed by basis
    elements and pairs of them, cubic by sorted triples.  pairing_scale
    multiplies the first factor's pairing; swap_degrees exchanges the
    degrees of the first two basis elements of different degree.  Both are
    for negative controls.
    """
    basis = list(product(*(range(n - 1) for n in exponents)))
    degrees = {b: sum(Fraction(i, n) for i, n in zip(b, exponents)) for b in basis}
    if swap_degrees:
        first = basis[0]
        other = next(b for b in basis if degrees[b] != degrees[first])
        degrees[first], degrees[other] = degrees[other], degrees[first]

    def pairing(*monos):
        value = Fraction(pairing_scale)
        for k, n in enumerate(exponents):
            if sum(m[k] for m in monos) != n - 2:
                return Fraction(0)
            value /= n
        return value

    eta = {(a, b): pairing(a, b) for a in basis for b in basis}
    cubic = {}
    for triple in combinations_with_replacement(sorted(basis), 3):
        c = pairing(*triple)
        if c:
            cubic[triple] = c / prod(factorial(triple.count(m)) for m in set(triple))
    return set(basis), degrees, eta, cubic


def d4_z3_residue(mono, flip=False):
    """Res(x^a y^b z^c) on D4 + z^3: R(a, b) [c = 1] / 3.

    For D4, J = (3x^2 + y^2, 2xy), so y^2 = -3x^2, x*y = 0 and hess =
    12x^2 - 4y^2 = 24x^2 modulo J: Res(x^2) = mu / 24 = 1/6, R(1, 1) = 0 and
    R(0, 2) = -1/2, and R is 0 off degree 2.  For z^3, Res(z) = 1/3.  flip
    changes the sign of R(0, 2), for a negative control.
    """
    a, b, c = mono
    table = {(2, 0): Fraction(1, 6), (0, 2): Fraction(1 if flip else -1, 2)}
    return table.get((a, b), Fraction(0)) / 3 if c == 1 else Fraction(0)


def residue_forms(basis, residue):
    """eta and the cubic F0 coefficients on basis from a residue alone."""

    def res(*monos):
        return residue(tuple(map(sum, zip(*monos))))

    eta = {(a, b): res(a, b) for a in basis for b in basis}
    cubic = {}
    for triple in combinations_with_replacement(sorted(basis), 3):
        c = res(*triple)
        if c:
            cubic[triple] = c / prod(factorial(triple.count(m)) for m in set(triple))
    return eta, cubic


@cache
def engine_values(name):
    """The same four values as the engine computes them at ORDER, for a
    catalog entry or for D4_Z3."""
    if name == D4_Z3:
        poly = parse_polynomial(D4_Z3, ["x", "y", "z"])
        f = WeightedPolynomial(["x", "y", "z"], infer_weights(poly), poly)
    else:
        f = load_catalog()[name].weighted_polynomial()
    data = milnor_basis(f)
    f0 = prepotential(solve_star(build_unfolding(f, data, ORDER)), data).prepotential
    basis = data.basis
    degrees = dict(zip(basis, data.degrees))
    eta = {(a, b): data.eta[i][j] for i, a in enumerate(basis) for j, b in enumerate(basis)}
    cubic = {}
    for exps, c in f0.terms.items():
        assert sum(exps) == 3, f"{name}: F0 at order 3 has a term of degree {sum(exps)}"
        triple = tuple(sorted(m for m, e in zip(basis, exps) for _ in range(e)))
        cubic[triple] = c
    return f.poly.terms, (set(basis), degrees, eta, cubic)


FIELDS = ("basis", "degrees", "eta", "cubic F0")


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_closed_forms(name):
    exponents = CASES[name]
    poly, got = engine_values(name)
    k = len(exponents)
    diagonal = {tuple(n if j == i else 0 for j in range(k)): 1 for i, n in enumerate(exponents)}
    assert poly == diagonal
    want = closed_forms(exponents)
    assert [what for what, g, w in zip(FIELDS, got, want) if g != w] == []


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize(
    "perturbation, fails",
    [({"pairing_scale": 2}, ["eta", "cubic F0"]), ({"swap_degrees": True}, ["degrees"])],
    ids=["pairing", "degrees"],
)
def test_perturbed_closed_forms_fail(name, perturbation, fails):
    _, got = engine_values(name)
    want = closed_forms(CASES[name], **perturbation)
    assert [what for what, g, w in zip(FIELDS, got, want) if g != w] == fails


def test_d4_plus_z3_matches_residue_table():
    _, (basis, degrees, eta, cubic) = engine_values(D4_Z3)
    third = Fraction(1, 3)
    d4, z3 = (0, third, third, 2 * third), (0, third)
    assert sorted(degrees.values()) == sorted(a + b for a in d4 for b in z3)
    assert (eta, cubic) == residue_forms(basis, d4_z3_residue)


def test_d4_plus_z3_flipped_table_fails():
    _, (basis, _, eta, cubic) = engine_values(D4_Z3)
    want_eta, want_cubic = residue_forms(basis, partial(d4_z3_residue, flip=True))
    assert eta != want_eta
    assert cubic != want_cubic


@cache
def one_variable_quartic(n):
    """<x^i_1 .. x^i_4> of x^n by sorted (i_1, .., i_4), from the oracle's F0."""
    f0 = oracle_run(n, 4)["prepotential"]
    return {
        tuple(i for i, e in enumerate(m) for _ in range(e)): c * prod(map(factorial, m))
        for m, c in f0.items()
        if sum(m) == 4
    }


def residue(n, m):
    """Res_n(x^m) of x^n."""
    return Fraction(1, n) if m == n - 2 else Fraction(0)


def thom_sebastiani_quartic(exponents, monos, drop=None):
    """<phi_1 .. phi_4> of the sum of the x_k^n_k at the four basis
    monomials, by the tensor-product rule; summand `drop` is left out, for
    a negative control."""
    total = Fraction(0)
    for k, n in enumerate(exponents):
        if k == drop:
            continue
        value = one_variable_quartic(n).get(tuple(sorted(m[k] for m in monos)), Fraction(0))
        for j, n_j in enumerate(exponents):
            if j != k:
                value *= residue(n_j, sum(m[j] for m in monos))
        total += value
    return total


def quartic_mismatches(name, frobenius_cache, milnor_cache, drop=None):
    """(multisets compared, multisets where the engine's quartic F0 at order
    4 differs from the rule)."""
    basis = milnor_cache(name).basis
    f0 = frobenius_cache(name, 4).prepotential
    compared = mismatches = 0
    for quad in combinations_with_replacement(range(len(basis)), 4):
        exps = tuple(quad.count(a) for a in range(len(basis)))
        engine = f0.terms.get(exps, Fraction(0)) * prod(map(factorial, exps))
        rule = thom_sebastiani_quartic(CASES[name], [basis[a] for a in quad], drop)
        compared += 1
        mismatches += engine != rule
    return compared, mismatches


@pytest.mark.parametrize("name, multisets", [("E12", 1365), ("P8", 330), ("U12", 1365)])
def test_quartic_f0_matches_thom_sebastiani(name, multisets, frobenius_cache, milnor_cache):
    assert quartic_mismatches(name, frobenius_cache, milnor_cache) == (multisets, 0)


@pytest.mark.parametrize(
    "name, drop, mismatches", [("E12", 0, 6), ("P8", 1, 2), ("U12", 2, 6)]
)
def test_quartic_without_one_summand_fails(
    name, drop, mismatches, frobenius_cache, milnor_cache
):
    _, got = quartic_mismatches(name, frobenius_cache, milnor_cache, drop)
    assert got == mismatches
