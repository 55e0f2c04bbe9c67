"""The sparse WDVV check against a dense reference.

``dense_wdvv`` is the quadruple loop that ``wdvv_check`` ran before it was
made sparse: every third derivative as a chain of ``SSeries.diff`` calls,
every index raised through the full eta^-1, and every product of series
formed and truncated afterwards.  The sparse check must return the same
violation list, in the same order, and the same ``checked`` count.
"""

from fractions import Fraction
from math import lcm

import pytest

from fraction_reference import inverse
from primform.algebra import SSeries, format_rational
from primform.frobenius import wdvv_check


def dense_wdvv(f0: SSeries, eta, order: int):
    """(violations, checked) of the dense quadruple loop."""
    mu = len(eta)
    check_order = order - 3
    eta_inv = inverse(eta)

    third = {}
    for a in range(mu):
        da = f0.diff(a)
        for b in range(a, mu):
            dab = da.diff(b)
            for e in range(b, mu):
                series = dab.diff(e).truncate(check_order)
                for key in {(a, b, e), (a, e, b), (b, a, e), (b, e, a), (e, a, b), (e, b, a)}:
                    third[key] = series

    def contracted(a, b):
        row = []
        for fi in range(mu):
            acc = SSeries(mu, check_order)
            for e in range(mu):
                coeff = eta_inv[e][fi]
                if coeff:
                    acc = acc + third[(a, b, e)].scale(coeff)
            row.append(acc)
        return row

    t_cache = {}
    violations = []
    checked = 0
    for a in range(mu):
        for b in range(mu):
            for c in range(b + 1, mu):
                for d in range(mu):
                    left = t_cache.get((a, b))
                    if left is None:
                        left = t_cache[(a, b)] = contracted(a, b)
                    right = t_cache.get((a, c))
                    if right is None:
                        right = t_cache[(a, c)] = contracted(a, c)
                    diff = SSeries(mu, check_order)
                    for fi in range(mu):
                        diff = diff + left[fi] * third[(fi, c, d)] - right[fi] * third[(fi, b, d)]
                    checked += 1
                    for mono, coeff in diff.truncate(check_order).sorted_terms():
                        violations.append(
                            {
                                "indices": (a + 1, b + 1, c + 1, d + 1),
                                "monomial": mono,
                                "difference": format_rational(coeff),
                            }
                        )
    return violations, checked


def perturbed(f0: SSeries, degree: int, which: int = 0, amount=1) -> SSeries:
    """f0 with amount added to its which-th coefficient of the given total degree."""
    monos = [m for m, _ in f0.sorted_terms() if sum(m) == degree]
    terms = dict(f0.terms)
    terms[monos[which]] += amount
    return SSeries(f0.nvars, f0.order, terms)


def assert_same_as_dense(f0, eta, order):
    report = wdvv_check(f0, eta)
    violations, checked = dense_wdvv(f0, eta, order)
    assert report.violations == violations
    assert report.checked == checked
    return report


@pytest.mark.parametrize("name", ["A3", "P8"])
def test_order_four_matches_dense(name, frobenius_cache, milnor_cache):
    f0 = frobenius_cache(name).prepotential
    assert assert_same_as_dense(f0, milnor_cache(name).eta, 4).passed


def test_u12_perturbed_at_degree_four_matches_dense(frobenius_cache, milnor_cache):
    data = milnor_cache("U12")
    f0 = perturbed(frobenius_cache("U12").prepotential, 4)
    report = assert_same_as_dense(f0, data.eta, 4)
    assert not report.passed
    assert report.checked == 9504  # mu^2 * C(mu, 2) quadruples for mu = 12


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_order_six_perturbed_at_degree_five_matches_dense(name, frobenius_cache, milnor_cache):
    eta = milnor_cache(name).eta
    f0 = frobenius_cache(name, 6).prepotential
    assert assert_same_as_dense(f0, eta, 6).passed
    fifth = [m for m in f0.terms if sum(m) == 5]
    assert fifth
    for which in range(len(fifth)):
        assert not assert_same_as_dense(perturbed(f0, 5, which), eta, 6).passed, which


@pytest.mark.parametrize(
    "name, order, degree, amount",
    [("U12", 4, 4, Fraction(1, 7)), ("D4", 6, 5, Fraction(1, 11))],
)
def test_perturbation_with_new_denominator_matches_dense(
    name, order, degree, amount, frobenius_cache, milnor_cache
):
    # The check scales f0 by the lcm of its denominators; this amount's
    # denominator is new to f0, so the perturbed f0 needs a larger scale.
    f0 = frobenius_cache(name, order).prepotential
    assert lcm(*(c.denominator for c in f0.terms.values())) % amount.denominator
    f0 = perturbed(f0, degree, amount=amount)
    assert not assert_same_as_dense(f0, milnor_cache(name).eta, order).passed


def test_q10_order_six_perturbed_at_degree_five_matches_dense(frobenius_cache, milnor_cache):
    # The shape that `primform verify` runs on the perturbed Q10 order-6
    # record: mu = 10, where pairings of every repetition pattern occur.
    f0 = perturbed(frobenius_cache("Q10", 6).prepotential, 5)
    report = assert_same_as_dense(f0, milnor_cache("Q10").eta, 6)
    assert report.checked == 4500  # mu^2 * C(mu, 2) for mu = 10
    assert len(report.violations) == 380
