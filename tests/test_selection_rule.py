"""The diagonal symmetries of f as a selection rule on F0.

G_f = {theta in (Q/Z)^n : E theta in Z^n}, E the exponent matrix of f,
acts on each basis monomial phi by the character theta(phi) = sum_i phi_i
theta_i and on dx by sum_i theta_i.  The primitive form is equivariant, so
a term t^k of F0 can be nonzero only if

    sum_a k_a theta(phi_a) + 2 sum_i theta_i  is an integer

for every theta in G_f.  For theta = the weights this is the Euler rule;
G_f is larger than the group the weights generate for the Fermat-type
entries, and there the rule forbids more.  G_f is found by brute force over
theta_i = k_i / |det E|, with no engine code, and the rule is checked on
every F0 term with all thetas scaled by |det E| to ints.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from primform.algebra import SSeries, mat_det
from primform.catalog import load_catalog
from primform.milnor import central_charge
from primform.mirror import InvertiblePolynomial

CASES = [(name, 4) for name in load_catalog()] + [("E12", 6), ("U12", 6)]


def symmetry_group(entry) -> tuple[int, list]:
    """(D, every k in [0, D)^n with E k = 0 mod D), D = |det E|: G_f as
    the thetas k / D."""
    matrix = InvertiblePolynomial.from_poly(entry.poly, entry.variables).exponent_matrix
    d = abs(int(mat_det(matrix)))
    group = [
        k for k in product(range(d), repeat=len(matrix))
        if all(sum(e * x for e, x in zip(row, k)) % d == 0 for row in matrix)
    ]
    return d, group


def forbidden_terms(f0: SSeries, basis, d: int, group: list) -> list:
    """The monomials of f0 that break the rule for some theta in G_f."""
    forbidden = []
    for k in group:
        characters = [sum(e * x for e, x in zip(phi, k)) for phi in basis]
        twist = 2 * sum(k)
        forbidden += [
            mono for mono in f0.terms
            if (sum(n * c for n, c in zip(mono, characters)) + twist) % d
        ]
    return sorted(set(forbidden))


@pytest.mark.parametrize("name, order", CASES, ids=[f"{n}-{o}" for n, o in CASES])
def test_f0_obeys_the_diagonal_symmetries(name, order, catalog, milnor_cache, frobenius_cache):
    d, group = symmetry_group(catalog[name])
    assert len(group) == d
    f0 = frobenius_cache(name, order).prepotential
    assert forbidden_terms(f0, milnor_cache(name).basis, d, group) == [], name


def test_a_term_the_euler_rule_allows_is_caught(catalog, milnor_cache, frobenius_cache):
    # Negative control: the first U12 monomial of degree 3 or 4 with the
    # flat degree 3 - c_hat that G_f forbids, added to the order-6 F0.
    data = milnor_cache("U12")
    d, group = symmetry_group(catalog["U12"])
    f0 = frobenius_cache("U12", 6).prepotential
    target = 3 - central_charge(data.f.weights)
    allowed = []
    for size in (3, 4):
        for word in combinations_with_replacement(range(data.mu), size):
            mono = tuple(word.count(a) for a in range(data.mu))
            if sum(n * (1 - q) for n, q in zip(mono, data.degrees)) == target:
                allowed.append(mono)
    ones = SSeries(data.mu, 6, dict.fromkeys(allowed, Fraction(1)))
    extra = forbidden_terms(ones, data.basis, d, group)
    assert extra and len(extra) < len(allowed)
    moved = SSeries(data.mu, 6, {**f0.terms, extra[0]: Fraction(1)})
    assert forbidden_terms(moved, data.basis, d, group) == [extra[0]]
