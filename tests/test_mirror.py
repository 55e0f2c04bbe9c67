import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod

import pytest

from fraction_reference import det
from primform.algebra import SSeries, mono_key
from primform.catalog import EXCEPTIONAL_NAMES
from primform.milnor import WeightedPolynomial, central_charge, infer_weights, milnor_basis
from primform.mirror import (
    InvertiblePolynomial,
    diagonal_symmetries,
    smith_normal_form,
    transpose,
)

F = Fraction

NOT_AN_ATOM = "is not a term x_i^a or x_i^a*x_j, a >= 2, of a Fermat, chain or loop polynomial"

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


def weights_of(w):
    """The weights q solving E q = (1, ..., 1), checked by WeightedPolynomial."""
    poly = w.poly()
    return WeightedPolynomial(w.variables, infer_weights(poly), poly).weights


def rejected(term):
    """The message that names term as the first one outside the atoms."""
    return re.escape(f"{term} {NOT_AN_ATOM}")


def permutation_key(w):
    """The reference key: the least row-sorted exponent matrix over all n!
    permutations of the variables."""
    return min(
        tuple(sorted((tuple(row[p] for p in perm) for row in w.exponent_matrix), key=mono_key))
        for perm in permutations(range(w.nvars))
    )


def random_atoms(rng, n, top):
    """The rows of a random sum of chains and loops in n variables, with
    heavy exponents in 2..top: the variables are cut into runs, a run of one
    is a Fermat term, and a longer run is a chain or a loop."""
    rows, start = [], 0
    while start < n:
        size = rng.randint(1, n - start)
        run = range(start, start + size)
        loop = size > 1 and rng.random() < 0.5
        for k in run:
            row = [0] * n
            row[k] = rng.randint(2, top)
            if k + 1 < start + size or loop:
                row[start + (k - start + 1) % size] = 1
            rows.append(row)
        start += size
    return rows


def permuted(rng, rows):
    """The same polynomial with its variables renamed and its rows shuffled."""
    n = len(rows)
    perm = rng.sample(range(n), n)
    return rng.sample([[row[p] for p in perm] for row in rows], n)


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
        with pytest.raises(ValueError, match=rejected("x*y")):
            InvertiblePolynomial(["x", "y"], [[1, 1], [0, 3]])

    def test_rejects_short_row(self):
        with pytest.raises(ValueError, match="exponent rows must match"):
            InvertiblePolynomial(["x", "y"], [(3,), (0, 7)])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            InvertiblePolynomial(["x", "y"], [(3, -1), (0, 7)])

    def test_rejects_singular_matrix(self):
        # x*y^2 is a chain link; x^2*y^4 has two heavy exponents.
        with pytest.raises(ValueError, match=rejected("x^2*y^4")):
            InvertiblePolynomial(["x", "y"], [[1, 2], [2, 4]])

    @pytest.mark.parametrize(
        "rows, term",
        [
            ([[5, 0], [2, 2]], "x^2*y^2"),
            ([[3, 2], [2, 3]], "x^3*y^2"),
            ([[3, 0], [0, 0]], "1"),
            ([[3, 0], [2, 1]], "x^2*y"),
            ([[1, 2, 0], [1, 0, 2], [3, 0, 0]], "x*z^2"),
        ],
        ids=["det 10, not isolated", "det 5, not isolated", "constant", "x heavy twice",
             "x light twice"],
    )
    def test_rejects_what_is_no_sum_of_atoms(self, rows, term):
        # x^5+x^2*y^2 and x^3*y^2+x^2*y^3 have det E != 0, but their
        # singularity at 0 is not isolated.
        with pytest.raises(ValueError, match=rejected(term)):
            InvertiblePolynomial("xyz"[: len(rows)], rows)

    def test_render(self, catalog):
        w = invertible(catalog["E14"])
        assert w.render() == "x^2 + z^3 + x*y^4"


class TestTranspose:
    def test_e14_to_q10(self, catalog):
        wt = transpose(invertible(catalog["E14"]))
        assert wt.atoms == invertible(catalog["Q10"]).atoms

    def test_q11_z13_pair(self, catalog):
        wt = transpose(invertible(catalog["Q11"]))
        assert wt.atoms == invertible(catalog["Z13"]).atoms

    def test_s11_w13_pair(self, catalog):
        wt = transpose(invertible(catalog["S11"]))
        assert wt.atoms == invertible(catalog["W13"]).atoms

    def test_fermat_self_transpose(self, catalog):
        w = invertible(catalog["E12"])
        assert fields(transpose(w)) == fields(w)

    def test_s12_self_up_to_permutation(self, catalog):
        w = invertible(catalog["S12"])
        wt = transpose(w)
        assert fields(wt) != fields(w)  # literal matrices differ
        assert wt.atoms == w.atoms  # but same up to renaming

    def test_involution_on_catalog(self, catalog):
        for entry in catalog.values():
            try:
                w = invertible(entry)
            except ValueError:
                continue
            assert fields(transpose(transpose(w))) == fields(w), entry.name

    def test_full_exceptional_closure(self, catalog):
        keys = {invertible(catalog[n]).atoms: n for n in EXCEPTIONAL_NAMES}
        for name in EXCEPTIONAL_NAMES:
            wt = transpose(invertible(catalog[name]))
            assert keys[wt.atoms] == TRANSPOSE_PAIRS[name]


C, L = "C", "L"

# The atoms of each catalog entry and of its transpose: a transpose reverses
# each chain and each loop.
CATALOG_ATOMS = {
    "E12": (((C, (3,)), (C, (7,))), ((C, (3,)), (C, (7,)))),
    "E13": (((C, (5, 3)),), ((C, (3, 5)),)),
    "E14": (((C, (3,)), (C, (4, 2))), ((C, (2, 4)), (C, (3,)))),
    "Z11": (((C, (3, 5)),), ((C, (5, 3)),)),
    "Z12": (((L, (3, 4)),), ((L, (3, 4)),)),
    "Z13": (((C, (3, 3, 2)),), ((C, (2, 3, 3)),)),
    "W12": (((C, (4,)), (C, (5,))), ((C, (4,)), (C, (5,)))),
    "W13": (((C, (4, 2, 2)),), ((C, (2, 2, 4)),)),
    "Q10": (((C, (2, 4)), (C, (3,))), ((C, (3,)), (C, (4, 2)))),
    "Q11": (((C, (2, 3, 3)),), ((C, (3, 3, 2)),)),
    "Q12": (((C, (3,)), (L, (2, 3))), ((C, (3,)), (L, (2, 3)))),
    "S11": (((C, (2, 2, 4)),), ((C, (4, 2, 2)),)),
    "S12": (((L, (2, 2, 3)),), ((L, (2, 2, 3)),)),
    "U12": (((C, (3,)), (C, (3,)), (C, (4,))), ((C, (3,)), (C, (3,)), (C, (4,)))),
    "A1": (((C, (2,)),), ((C, (2,)),)),
    "A2": (((C, (3,)),), ((C, (3,)),)),
    "A3": (((C, (4,)),), ((C, (4,)),)),
    "A4": (((C, (5,)),), ((C, (5,)),)),
    "D4": (((C, (2, 3)),), ((C, (3, 2)),)),
    "P8": (((C, (3,)), (C, (3,)), (C, (3,))), ((C, (3,)), (C, (3,)), (C, (3,)))),
}


class TestAtoms:
    def test_catalog_atoms_pinned(self, catalog):
        assert sorted(CATALOG_ATOMS) == sorted(catalog)
        for name, (atoms, transpose_atoms) in CATALOG_ATOMS.items():
            w = invertible(catalog[name])
            assert (w.atoms, transpose(w).atoms) == (atoms, transpose_atoms), name

    def test_key_equality_is_permutation_equality(self):
        # Half of the 1000 pairs are renamed copies; the other half are
        # drawn on their own from exponents 2-3, so that some of them agree.
        rng = random.Random(36)
        outcomes = set()
        for k in range(1000):
            n = rng.randint(1, 5)
            rows = random_atoms(rng, n, 3)
            other = permuted(rng, rows) if k % 2 else random_atoms(rng, n, 3)
            v, w = (InvertiblePolynomial("abcde"[:n], m) for m in (rows, other))
            same = permutation_key(v) == permutation_key(w)
            assert (v.atoms == w.atoms) == same, (rows, other)
            outcomes.add((k % 2, same))
        assert outcomes == {(0, False), (0, True), (1, True)}

    def test_every_accepted_matrix_has_an_accepted_transpose(self):
        # Rows of the term shape a e_i or a e_i + e_j put together at random:
        # whatever the rule accepts has weights in (0, 1/2], and so has its
        # transpose, which the rule accepts as well.
        rng = random.Random(37)
        accepted = 0
        for _ in range(2000):
            n = rng.randint(1, 5)
            rows = []
            for _ in range(n):
                row = [0] * n
                i, j = rng.randrange(n), rng.randrange(n)
                row[i] = rng.randint(2, 5)
                if j != i and rng.random() < 0.6:
                    row[j] = 1
                rows.append(row)
            try:
                w = InvertiblePolynomial("abcde"[:n], rows)
            except ValueError:
                continue
            accepted += 1
            for v in (w, transpose(w)):
                assert all(0 < q <= F(1, 2) for q in weights_of(v)), rows
        assert accepted > 200

    def test_a_permuted_loop_keeps_its_key(self):
        # x^2*y + y^3*z + z^4*x as y^2*z + z^3*x + x^4*y, rows shuffled; the
        # reversed loop, its transpose, is another polynomial.
        loop = InvertiblePolynomial("xyz", [[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        assert loop.atoms == ((L, (2, 3, 4)),)
        renamed = InvertiblePolynomial("xyz", [[4, 1, 0], [0, 2, 1], [1, 0, 3]])
        assert renamed.atoms == loop.atoms
        assert transpose(loop).atoms == ((L, (2, 4, 3)),)

    def test_a_reversed_chain_gets_another_key(self):
        # x^2*y + y^3*z + z^4 against x^4*y + y^3*z + z^2; a palindrome
        # keeps its key under transposition.
        chain = InvertiblePolynomial("xyz", [[2, 1, 0], [0, 3, 1], [0, 0, 4]])
        reversed_chain = InvertiblePolynomial("xyz", [[4, 1, 0], [0, 3, 1], [0, 0, 2]])
        assert chain.atoms == ((C, (2, 3, 4)),)
        assert reversed_chain.atoms == transpose(chain).atoms == ((C, (4, 3, 2)),)
        palindrome = InvertiblePolynomial("xyz", [[2, 1, 0], [0, 3, 1], [0, 0, 2]])
        assert transpose(palindrome).atoms == palindrome.atoms == ((C, (2, 3, 2)),)

    def test_the_rule_is_isolation(self):
        # Square exponent matrices in 2-3 variables with exponents 0-5 whose
        # weights lie in (0, 1/2]: the rule accepts exactly those whose
        # singularity milnor_basis finds isolated and that have no linear or
        # x_i*x_j term (x*y+y^2 is isolated, but its transpose x+x*y^2 has
        # a linear term).
        rng = random.Random(36)
        outcomes = {}
        while sum(outcomes.values()) < 100:
            n = rng.randint(2, 3)
            rows = {tuple(rng.randint(0, 5) if rng.random() < 0.5 else 0 for _ in range(n))
                    for _ in range(n)}
            if len(rows) < n or (0,) * n in rows:
                continue
            poly = SSeries(n, None, {row: F(1) for row in rows})
            try:
                f = WeightedPolynomial("xyz"[:n], infer_weights(poly), poly)
            except ValueError:
                continue
            try:
                InvertiblePolynomial.from_poly(poly, f.variables)
                accepted = True
            except ValueError:
                accepted = False
            try:
                milnor_basis(f)
                isolated = True
            except ValueError:
                isolated = False
            small = any(sum(row) <= 2 and max(row) == 1 for row in rows)
            assert accepted == (isolated and not small), rows
            outcomes[accepted, isolated, small] = outcomes.get((accepted, isolated, small), 0) + 1
        assert outcomes[True, True, False] > 30 and outcomes[False, False, False] > 30
        assert (False, True, True) in outcomes


class TestWeights:
    def test_w12(self, catalog):
        assert weights_of(invertible(catalog["W12"])) == (F(1, 4), F(1, 5))

    def test_boundary_weight(self):
        w = InvertiblePolynomial(["x"], [[2]])
        assert weights_of(w) == (F(1, 2),)

    def test_s12_three_by_three_solve(self, catalog):
        q = weights_of(invertible(catalog["S12"]))
        assert q == (F(4, 13), F(5, 13), F(3, 13))
        assert central_charge(q) == F(15, 13)

    def test_rejects_invalid_weight_range(self):
        # x + y^3 would give x the weight 1; its linear term is no atom's.
        with pytest.raises(ValueError, match=rejected("x")):
            InvertiblePolynomial(["x", "y"], [[1, 0], [0, 3]])

    def test_matches_catalog_weights(self, catalog):
        for entry in catalog.values():
            try:
                w = invertible(entry)
            except ValueError:
                continue
            assert weights_of(w) == entry.weights, entry.name


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
            assert prod == abs(det(w.exponent_matrix)), entry.name

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
        assert weights_of(w) == (F(1, 3), F(1, 7))
        assert weights_of(w) in spanned_group(group, w.nvars)

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
            weights = weights_of(w)
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
            assert len(brute) == group.order == abs(det(w.exponent_matrix)), entry.name
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
