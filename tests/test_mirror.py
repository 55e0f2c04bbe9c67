import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest

from primform.algebra import mat_det
from primform.catalog import EXCEPTIONAL_NAMES
from primform.milnor import central_charge
from primform.mirror import (
    InvertiblePolynomial,
    diagonal_symmetries,
    smith_normal_form,
    transpose,
    weights_from_matrix,
)

F = Fraction

# Closure of the exceptional family under transposition.
TRANSPOSE_PAIRS = {
    "E12": "E12", "E13": "Z11", "E14": "Q10", "Z11": "E13", "Z12": "Z12",
    "Z13": "Q11", "W12": "W12", "W13": "S11", "Q10": "E14", "Q11": "Z13",
    "Q12": "Q12", "S11": "W13", "S12": "S12", "U12": "U12",
}


def fields(w):
    """What an invertible polynomial is: its variables and exponent matrix."""
    return w.variables, w.exponent_matrix


def brute_force_group(w):
    """All diagonal phase symmetries, by exhausting (1/L)Z^n mod 1."""
    diagonal, _ = smith_normal_form([list(r) for r in w.exponent_matrix])
    lcm = 1
    for d in diagonal:
        g = _gcd(lcm, d)
        lcm = lcm * d // g
    n = w.nvars
    elements = set()
    for combo in product(range(lcm), repeat=n):
        theta = tuple(F(k, lcm) for k in combo)
        ok = True
        for row in w.exponent_matrix:
            total = sum((F(e) * t for e, t in zip(row, theta)), F(0))
            if total.denominator != 1:
                ok = False
                break
        if ok:
            elements.add(theta)
    return elements


def spanned_group(group, nvars):
    """Every element of the group, by spanning its generators."""
    elements = {(F(0),) * nvars}
    for gen, gen_order in zip(group.generators, group.generator_orders):
        elements = {
            tuple((e + k * g) % 1 for e, g in zip(element, gen))
            for element in elements
            for k in range(gen_order)
        }
    return elements


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def invertible(entry):
    return InvertiblePolynomial.from_poly(entry.poly, entry.variables)


def int_det(m):
    """Laplace expansion along the first row; 1 for the empty matrix."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * int_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def smith_violations(matrix, diagonal, v_inv):
    """The properties of a Smith form (diagonal, V^-1) of the matrix that fail:
    "minors" when d_1...d_k is not the gcd of the k x k minors, "unimodular"
    when |det V^-1| != 1, and "columns" when column i of A V^-1 is not
    divisible by d_i (zero when d_i = 0, and past the diagonal)."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    found = []
    for k in range(1, min(n_rows, n_cols) + 1):
        minors_gcd = 0
        for rs in combinations(range(n_rows), k):
            for cs in combinations(range(n_cols), k):
                minors_gcd = gcd(minors_gcd, int_det([[matrix[r][c] for c in cs] for r in rs]))
        if prod(diagonal[:k]) != minors_gcd:
            found.append("minors")
            break
    if abs(int_det(v_inv)) != 1:
        found.append("unimodular")
    av = [
        [sum(row[k] * v_inv[k][c] for k in range(n_cols)) for c in range(n_cols)]
        for row in matrix
    ]
    padded = list(diagonal) + [0] * (n_cols - len(diagonal))
    if any(row[c] % d if d else row[c] for c, d in enumerate(padded) for row in av):
        found.append("columns")
    return found


def smith_inputs():
    """[[2, 3]] takes the column-remainder branch and [[1, 2], [2, 4]] the
    zero-block break; then 300 seeded matrices of 1-4 rows and 1-4 columns
    with entries in [-6, 6]."""
    rng = random.Random(35)
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(300)]
    return [[[2, 3]], [[1, 2], [2, 4]]] + [
        [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)] for r, c in shapes
    ]


class TestInvertiblePolynomial:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="monomials"):
            InvertiblePolynomial(["x", "y"], [[3, 0]])

    def test_rejects_mixed_quadratic(self):
        with pytest.raises(ValueError, match="quadratic"):
            InvertiblePolynomial(["x", "y"], [[1, 1], [0, 3]])

    def test_rejects_short_row(self):
        with pytest.raises(ValueError, match="exponent rows must match"):
            InvertiblePolynomial(["x", "y"], [(3,), (0, 7)])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            InvertiblePolynomial(["x", "y"], [(3, -1), (0, 7)])

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError, match="singular"):
            InvertiblePolynomial(["x", "y"], [[1, 2], [2, 4]])

    def test_render(self, catalog):
        w = invertible(catalog["E14"])
        assert w.render() == "x^2 + z^3 + x*y^4"


class TestTranspose:
    def test_e14_to_q10(self, catalog):
        wt = transpose(invertible(catalog["E14"]))
        assert wt.canonical_key() == invertible(catalog["Q10"]).canonical_key()

    def test_q11_z13_pair(self, catalog):
        wt = transpose(invertible(catalog["Q11"]))
        assert wt.canonical_key() == invertible(catalog["Z13"]).canonical_key()

    def test_s11_w13_pair(self, catalog):
        wt = transpose(invertible(catalog["S11"]))
        assert wt.canonical_key() == invertible(catalog["W13"]).canonical_key()

    def test_fermat_self_transpose(self, catalog):
        w = invertible(catalog["E12"])
        assert fields(transpose(w)) == fields(w)

    def test_s12_self_up_to_permutation(self, catalog):
        w = invertible(catalog["S12"])
        wt = transpose(w)
        assert fields(wt) != fields(w)  # literal matrices differ
        assert wt.canonical_key() == w.canonical_key()  # but same up to renaming

    def test_involution_on_catalog(self, catalog):
        for entry in catalog.values():
            try:
                w = invertible(entry)
            except ValueError:
                continue
            assert fields(transpose(transpose(w))) == fields(w), entry.name

    def test_full_exceptional_closure(self, catalog):
        keys = {invertible(catalog[n]).canonical_key(): n for n in EXCEPTIONAL_NAMES}
        for name in EXCEPTIONAL_NAMES:
            wt = transpose(invertible(catalog[name]))
            assert keys[wt.canonical_key()] == TRANSPOSE_PAIRS[name]


class TestWeights:
    def test_w12(self, catalog):
        assert weights_from_matrix(invertible(catalog["W12"])) == (F(1, 4), F(1, 5))

    def test_boundary_weight(self):
        w = InvertiblePolynomial(["x"], [[2]])
        assert weights_from_matrix(w) == (F(1, 2),)

    def test_s12_three_by_three_solve(self, catalog):
        q = weights_from_matrix(invertible(catalog["S12"]))
        assert q == (F(4, 13), F(5, 13), F(3, 13))
        assert central_charge(q) == F(15, 13)

    def test_rejects_invalid_weight_range(self):
        # x^1 y + y^1 x is quadratic-mixed; use x + y^3 instead: weight of x is 1.
        w = InvertiblePolynomial(["x", "y"], [[1, 0], [0, 3]])
        with pytest.raises(ValueError, match="outside"):
            weights_from_matrix(w)

    def test_matches_catalog_weights(self, catalog):
        for entry in catalog.values():
            try:
                w = invertible(entry)
            except ValueError:
                continue
            assert weights_from_matrix(w) == entry.weights, entry.name


class TestSmithNormalForm:
    def test_diagonal_divisibility(self):
        diagonal, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert all(d >= 0 for d in diagonal)
        for a, b in zip(diagonal, diagonal[1:]):
            if a:
                assert b % a == 0

    def test_determinant_preserved(self, catalog):
        for entry in catalog.values():
            try:
                w = invertible(entry)
            except ValueError:
                continue
            diagonal, _ = smith_normal_form([list(r) for r in w.exponent_matrix])
            prod = 1
            for d in diagonal:
                prod *= d
            assert prod == abs(mat_det(w.exponent_matrix)), entry.name

    def test_against_the_minors_oracle(self):
        outputs = []
        for matrix in smith_inputs():
            diagonal, v_inv = smith_normal_form(matrix)
            assert smith_violations(matrix, diagonal, v_inv) == [], matrix
            outputs.append((diagonal, v_inv))
        # The mirror records print generators built from these outputs.
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        assert digest == "1827fb11207f505088ff74760f88f50e7b7e994c5cff684b741bf99f2905377c"

    def test_the_oracle_catches_a_wrong_diagonal_or_v_inv(self):
        # Negative controls: the diagonal reversed, and V^-1 with its first
        # column doubled.
        matrix = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        diagonal, v_inv = smith_normal_form(matrix)
        assert diagonal == [2, 2, 156]
        assert "minors" in smith_violations(matrix, diagonal[::-1], v_inv)
        doubled = [[2 * row[0], *row[1:]] for row in v_inv]
        assert smith_violations(matrix, diagonal, doubled) == ["unimodular"]


class TestDiagonalSymmetries:
    def test_order_two_for_a1(self):
        group = diagonal_symmetries(InvertiblePolynomial(["x"], [[2]]))
        assert group.order == 2
        assert group.generators == ((F(1, 2),),)

    def test_e12_order_and_j(self, catalog):
        w = invertible(catalog["E12"])
        group = diagonal_symmetries(w)
        assert group.order == 21
        # j_W, the weights mod 1, is a diagonal symmetry of W.
        assert weights_from_matrix(w) == (F(1, 3), F(1, 7))
        assert weights_from_matrix(w) in spanned_group(group, w.nvars)

    def test_u12_order(self, catalog):
        assert diagonal_symmetries(invertible(catalog["U12"])).order == 36

    def test_j_w_equals_weights_mod_one(self, catalog):
        for entry in catalog.values():
            try:
                w = invertible(entry)
            except ValueError:
                continue
            # `mirror` writes the weights as j_W: each is in (0, 1/2], so
            # it is its own residue mod 1, and E q = (1, ..., 1) is integral.
            weights = weights_from_matrix(w)
            assert tuple(q % 1 for q in weights) == weights, entry.name
            assert all(sum(e * q for e, q in zip(row, weights)) == 1 for row in w.exponent_matrix)

    def test_brute_force_agreement(self, catalog):
        for entry in catalog.values():
            try:
                w = invertible(entry)
            except ValueError:
                continue
            group = diagonal_symmetries(w)
            if group.order > 100:
                continue
            brute = brute_force_group(w)
            assert len(brute) == group.order == abs(mat_det(w.exponent_matrix)), entry.name
            assert spanned_group(group, w.nvars) == brute, entry.name

    def test_fermat_product_structure(self, catalog):
        # Aut of a Fermat polynomial is the product of cyclic groups of the
        # exponent orders.
        for name in ("E12", "W12", "U12", "P8"):
            w = invertible(catalog[name])
            exponents = sorted(max(row) for row in w.exponent_matrix)
            group = diagonal_symmetries(w)
            elements = spanned_group(group, w.nvars)
            assert len(elements) == group.order
            expected = 1
            for e in exponents:
                expected *= e
            assert group.order == expected
