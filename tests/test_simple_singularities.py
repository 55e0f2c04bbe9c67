"""The simple singularities A_n, D_n and E_6-8: complete Frobenius
manifolds, checked with no truncation.

For these c_hat < 1, so every flat degree is at least 1 - c_hat > 0, and
F0, quasi-homogeneous of flat degree 3 - c_hat, is a polynomial of total
degree at most (3 - c_hat)/(1 - c_hat) = h + 1, h the Coxeter number:
n + 1 for A_n, 2n - 2 for D_n, and 12, 18 and 30 for E6, E7 and E8.  So F0
at order h + 1 is the whole potential: its top degree is h + 1, a solve at
order h + 3 adds no term to it, and the WDVV equations hold for it with no
truncation, which `wdvv_check` tests once the same terms are read at order
2(h + 1), where no product of two third derivatives is cut.

The flat degrees are those of the Weyl group: h times the flat degree
1 - deg_q(phi_a) of each basis entry runs through its degrees, the
degrees of its basic invariants, read from `WEYL_DEGREES`.

Each polynomial is built here, so the catalog and the records do not
change.  A2 has mu = 2, where WDVV holds for every potential, so only the
others carry the negative control: one top-degree coefficient perturbed.
"""

import pytest

from primform.algebra import SSeries, mono_key, parse_polynomial
from primform.frobenius import prepotential, wdvv_check
from primform.milnor import WeightedPolynomial, infer_weights, milnor_basis
from primform.primitive import build_unfolding, solve_star

SIMPLE = {
    **{f"A{n}": (["x"], f"x^{n + 1}", n + 1) for n in range(2, 7)},
    **{f"D{n}": (["x", "y"], f"x^2*y+y^{n - 1}", 2 * n - 2) for n in range(4, 7)},
    "E6": (["x", "y"], "x^3+y^4", 12),
    "E7": (["x", "y"], "x^3+x*y^3", 18),
    "E8": (["x", "y"], "x^3+y^5", 30),
}

# The degrees of the basic invariants of each Weyl group.
WEYL_DEGREES = {
    "A2": [2, 3],
    "A3": [2, 3, 4],
    "A4": [2, 3, 4, 5],
    "A5": [2, 3, 4, 5, 6],
    "A6": [2, 3, 4, 5, 6, 7],
    "D4": [2, 4, 4, 6],
    "D5": [2, 4, 5, 6, 8],
    "D6": [2, 4, 6, 6, 8, 10],
    "E6": [2, 5, 6, 8, 9, 12],
    "E7": [2, 6, 8, 10, 12, 14, 18],
    "E8": [2, 8, 12, 14, 18, 20, 24, 30],
}


@pytest.mark.parametrize("name", SIMPLE)
def test_h_times_flat_degrees_are_the_weyl_degrees(name):
    variables, text, h = SIMPLE[name]
    poly = parse_polynomial(text, variables)
    data = milnor_basis(WeightedPolynomial(variables, infer_weights(poly), poly))
    assert sorted(h * (1 - d) for d in data.degrees) == WEYL_DEGREES[name]


@pytest.mark.parametrize("name", SIMPLE)
def test_potential_is_complete_at_h_plus_one(name):
    variables, text, h = SIMPLE[name]
    poly = parse_polynomial(text, variables)
    f = WeightedPolynomial(variables, infer_weights(poly), poly)
    data = milnor_basis(f)
    f0, later = (
        prepotential(solve_star(build_unfolding(f, data, order)), data).prepotential
        for order in (h + 1, h + 3)
    )
    assert max(map(sum, f0.terms)) == h + 1
    assert later.terms == f0.terms
    assert wdvv_check(SSeries(data.mu, 2 * (h + 1), f0.terms), data.eta).passed
    if data.mu > 2:
        terms = dict(f0.terms)
        top = min((m for m in terms if sum(m) == h + 1), key=mono_key)
        terms[top] += 1
        assert not wdvv_check(SSeries(data.mu, 2 * (h + 1), terms), data.eta).passed
