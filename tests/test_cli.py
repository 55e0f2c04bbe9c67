import ast
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import primform
from primform import cli
from exact_forms import const, j_block, plus_term, result_from_blocks, zeta_block
from primform.algebra import SSeries
from primform.cli import main
from primform.frobenius import FrobeniusData
from primform.milnor import infer_weights


RECORDS = Path(__file__).resolve().parent.parent / "perfbench" / "records"
SWAP_9_10 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11]
NOT_AN_ATOM = "is not a term x_i^a or x_i^a*x_j, a >= 2, of a Fermat, chain or loop polynomial"


def halved(term):
    """A serialized term with half its coefficient."""
    return {**term, "coeff": str(Fraction(term["coeff"]) / 2)}


def unreported_raises(sources):
    """(file, line, exception) of each raise in {file: source} that `main`
    would not report as `error:`: every one that names neither ValueError,
    ArithmeticError nor a class the sources derive from them, a bare
    re-raise included."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    classes = [
        node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    reported, grown = {"ValueError", "ArithmeticError"}, True
    while grown:
        derived = {
            c.name for c in classes if any(getattr(b, "id", None) in reported for b in c.bases)
        }
        grown = not derived <= reported
        reported |= derived
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                label = ast.unparse(exc) if exc is not None else "raise"
                if label not in reported:
                    found.append((name, node.lineno, label))
    return sorted(found)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_e13_central_charge(self, capsys):
        code, out, _ = run_cli(["info", "--singularity", "E13", "--format", "json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["central_charge"] == "16/15"
        assert record["milnor_number"] == 13

    def test_z12_central_charge(self, capsys):
        code, out, _ = run_cli(["info", "--singularity", "Z12", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["central_charge"] == "12/11"

    def test_inline_poly(self, capsys):
        code, out, _ = run_cli(["info", "--poly", "x^2", "--format", "json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["central_charge"] == "0"
        assert record["milnor_number"] == 1
        assert record["eta"] == [["1/2"]]

    def test_unknown_singularity(self, capsys):
        code, out, err = run_cli(["info", "--singularity", "E99"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: unknown singularity 'E99'\n"

    def test_human_format(self, capsys):
        code, out, _ = run_cli(["info", "--singularity", "E12"], capsys)
        assert code == 0
        assert "central charge: 22/21" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(["info", "--singularity", "Q11", "--format", "json"], capsys)
        _, out2, _ = run_cli(["info", "--singularity", "Q11", "--format", "json"], capsys)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["info", "--poly", "x^2*y^2"],
             "weights are not determined by the polynomial; pass them explicitly"),
            (["info", "--poly", "x^3+x^2"],
             "no weight system makes every term homogeneous of degree 1"),
            (["info", "--poly", "x^3*y^2+y"], "weight -1/3 outside (0, 1/2]"),
            (["compute", "--poly", "x^3*y^2+y"], "weight -1/3 outside (0, 1/2]"),
            (["mirror", "--poly", "x^3*y^2+y"], f"not an invertible polynomial: y {NOT_AN_ATOM}"),
        ],
        ids=["underdetermined", "inconsistent", "negative", "compute negative", "mirror negative"],
    )
    def test_weight_messages(self, capsys, argv, message):
        # The unique weights (-1/3, 1) of x^3*y^2+y were once reported as
        # "not determined", the solve's zero for a free unknown looked for.
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--poly", "x^3+y^7+"], "polynomial 'x^3+y^7+' ends in an operator"),
            (["--poly", "x^3+y^7-"], "polynomial 'x^3+y^7-' ends in an operator"),
            (["--poly", "x^3+y^7", "--vars", "x,y,x"], "variable 'x' is named twice"),
            (["--poly", "x^3+y^7", "--vars", "x,,y"],
             "variable 2 must be a non-empty name, got ''"),
            ([], "pass --singularity NAME or --poly EXPRESSION"),
            (["--poly", "3"], "could not infer variables; pass --vars"),
        ],
        ids=["trailing plus", "trailing minus", "repeated var", "empty var", "no target",
             "no variables"],
    )
    def test_misread_input_rejected(self, capsys, argv, message):
        # A trailing operator was once dropped, and a repeated or empty
        # variable ended in the misleading "weights are not determined".
        code, out, err = run_cli(["info", *argv], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "--singularity", "E12", "--order", "3", "--basis", ""],
             "empty monomial"),
            (["info", "--poly", "x^3+y^3", "--vars", ""],
             "variable 1 must be a non-empty name, got ''"),
            (["info", "--poly", "x^3+y^3", "--weights", ""], "Invalid literal for Fraction"),
            (["info", "--poly", "x^3+y^3", "--output", ""], "No such file or directory"),
        ],
        ids=["basis", "vars", "weights", "output"],
    )
    def test_empty_option_value_rejected(self, capsys, argv, message):
        # An option given as '' was once read as absent: the canonical
        # basis, inferred variables and weights, or the record on stdout.
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_exponent_coefficient_is_a_number(self, capsys):
        # The e3 of 1e3 was once inferred as a variable.
        code, out, err = run_cli(["info", "--poly", "1e3*x^3+y^7", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["polynomial"] == "1000*x^3 + y^7"
        assert (record["variables"], record["milnor_number"]) == (["x", "y"], 12)

    @pytest.mark.parametrize(
        "poly, names",
        [("x_1^3+x_2^7", "x_1,x_2"), ("1e3*x^3+y^7", "x,y"), ("_a^3*b_+b_^4", "_a,b_")],
        ids=["underscore", "exponent", "edge underscores"],
    )
    def test_inferred_variables_read_as_given_ones(self, capsys, poly, names):
        # A "_" once split a name, so that x_1^3+x_2^7 ended in
        # "unknown variable 'x_1'" although --vars x_1,x_2 read it.
        argv = ["info", "--poly", poly, "--format", "json"]
        inferred = run_cli(argv, capsys)
        assert inferred == run_cli([*argv, "--vars", names], capsys)
        assert inferred[0] == 0
        assert json.loads(inferred[1])["variables"] == names.split(",")

    @pytest.mark.parametrize(
        "where, coeff",
        [
            (where, coeff)
            for where in ("verify", "weights", "catalog")
            for coeff in ("1e-5000", "1e5000")
        ]
        + [("poly", "1e5000")],
    )
    def test_huge_decimal_exponent_rejected(self, capsys, tmp_path, where, coeff):
        # Fraction builds 10^e for any decimal exponent e, although Python
        # refuses a digit string that long; 1e-999999 once hung verify.
        # --poly splits terms at a minus sign, so it takes only 1e5000.
        path = tmp_path / "input.json"
        if where == "verify":
            record = json.loads((RECORDS / "sweep-o4" / "A4.json").read_text())
            record["terms"][0]["coeff"] = coeff
            path.write_text(json.dumps(record))
            argv = ["verify", str(path)]
            prefix = "malformed record: ValueError("
        elif where == "catalog":
            entry = {
                "name": "A2",
                "variables": ["x"],
                "weights": ["1/3"],
                "polynomial": [{"exponents": [3], "coeff": coeff}],
            }
            path.write_text(json.dumps({"entries": [entry]}))
            argv = ["info", "--catalog", str(path), "--singularity", "A2"]
            prefix = f"malformed catalog {path}: ValueError("
        elif where == "weights":
            argv = ["info", "--poly", "x^3+y^7", "--weights", f"{coeff},1/7"]
            prefix = ""
        else:
            argv = ["info", "--poly", f"{coeff}*x^3+y^7"]
            prefix = ""
        code, out, err = run_cli(argv, capsys)
        limit = sys.get_int_max_str_digits()
        message = f"the exponent of '{coeff}' makes a number of more than {limit} digits"
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {prefix}") and message in err and err.count("\n") == 1


class TestCompute:
    def test_a1_cubic_only(self, capsys, tmp_path):
        out_path = tmp_path / "a1.json"
        code, _, _ = run_cli(
            ["compute", "--singularity", "A1", "--order", "4", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        record = json.loads(out_path.read_text())
        assert record["terms"] == [{"exponents": [3], "coeff": "1/12"}]
        assert record["checks"] == {"wdvv": "pass", "euler": "pass", "integrability": "pass"}

    def test_order_zero_vacuous(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--singularity", "A2", "--order", "0", "--format", "json"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["terms"] == []
        # Below order 3 no check runs, so none may read as passed.
        assert record["checks"] == {
            "wdvv": "vacuous",
            "euler": "vacuous",
            "integrability": "vacuous",
        }

    def test_u12_with_published_basis(self, capsys, tmp_path):
        out_path = tmp_path / "u12.json"
        code, _, _ = run_cli(
            [
                "compute",
                "--singularity",
                "U12",
                "--order",
                "4",
                "--basis",
                "1,z,x,y,z^2,x*z,y*z,x*y,x*z^2,y*z^2,x*y*z,x*y*z^2",
                "--check-defect",
                "--output",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out_path.read_text())
        assert record["checks"]["defect"] == "pass"
        assert record["basis"][1] == "z"
        assert record["flat_degrees"][11] == "-1/6"
        # coefficient of t3^3 t12 in F0 is -(mu/h) * 1/18 = -1/648
        terms = {tuple(t["exponents"]): t["coeff"] for t in record["terms"]}
        assert terms[(0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 1)] == "-1/648"

    def test_inline_weights(self, capsys):
        code, out, _ = run_cli(
            [
                "compute",
                "--poly",
                "x^3+y^7",
                "--weights",
                "1/3,1/7",
                "--order",
                "3",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["central_charge"] == "22/21"

    @pytest.mark.parametrize(
        "target",
        [["--poly", "x^3+y^7", "--weights", "1/0,1/7"], ["--poly", "1/0*x^3+y^7"]],
        ids=["weight", "coefficient"],
    )
    def test_zero_denominator_rejected(self, capsys, target):
        # Once "error: Fraction(1, 0)", which did not say what was wrong.
        code, out, err = run_cli(["compute", *target], capsys)
        assert (code, out, err) == (1, "", "error: zero denominator in '1/0'\n")

    @pytest.mark.parametrize("poly", ["x^-1+y^3", "x^+y^3"])
    def test_bad_exponent_rejected(self, capsys, poly):
        code, out, err = run_cli(["compute", "--poly", poly, "--vars", "x,y"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "exponent" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--order", "-1"], "truncation order must be >= 0"),
            (["--order", "2", "--basis", "2*x"], "basis entries must be bare monomials, got '2*x'"),
        ],
        ids=["negative order", "basis coefficient"],
    )
    def test_rejected_arguments(self, capsys, argv, message):
        code, out, err = run_cli(["compute", "--singularity", "E12", *argv], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_human_format_pinned(self, capsys):
        code, out, err = run_cli(
            ["compute", "--singularity", "E12", "--order", "3", "--format", "human"], capsys
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "E12: prepotential through total degree 3",
            "  flat coordinate degrees: 1, 6/7, 5/7, 2/3, 4/7, 11/21, 3/7, 8/21, 2/7, 5/21,"
            " 2/21, -1/21",
            "  1/42 * t1^2*t12",
            "  1/21 * t1*t2*t11",
            "  1/21 * t1*t3*t10",
            "  1/21 * t1*t4*t9",
            "  1/21 * t1*t5*t8",
            "  1/21 * t1*t6*t7",
            "  1/42 * t2^2*t10",
            "  1/21 * t2*t3*t8",
            "  1/21 * t2*t4*t7",
            "  1/21 * t2*t5*t6",
            "  1/42 * t3^2*t6",
            "  1/21 * t3*t4*t5",
            "  checks: {'wdvv': 'pass', 'euler': 'pass', 'integrability': 'pass'}",
        ]

    def test_bad_basis_fails(self, capsys):
        code, _, err = run_cli(
            ["compute", "--singularity", "A2", "--order", "3", "--basis", "1,x^2"],
            capsys,
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "poly, weights, message",
        [
            ("x^2*y^2", "1/4,1/4", "5/4, above the socle degree 1"),
            ("x^2*y^2+z^2", "1/4,1/4,1/2", "5/4, above the socle degree 1"),
            ("x^2*y+x*z^2", "1/3,1/3,1/3", "4/3, above the socle degree 1"),
            ("x^5+x^3*y^2", "1/5,1/5", "7/5, above the socle degree 6/5"),
        ],
    )
    def test_non_isolated_rejected(self, capsys, poly, weights, message):
        # A non-isolated f leaves a quotient in the band above the socle
        # degree, the highest degrees milnor_basis walks.
        code, _, err = run_cli(
            ["compute", "--poly", poly, "--weights", weights, "--order", "2"], capsys
        )
        assert code == 1
        assert err == f"error: quotient is nonzero at weighted degree {message}\n"

    @pytest.mark.parametrize(
        "basis, message",
        [
            (
                "1,x,y,x*y",
                "designated basis monomial x*y is not independent modulo the Jacobian ideal",
            ),
            (
                "1,x,y,x^3",
                "designated basis has 0 monomials at weighted degree 2/3, "
                "but the quotient there has dimension 1",
            ),
            # x^5 lies above every degree the division visits; it once
            # ended in a degenerate pairing.
            ("1,x,y,y^2,x^5", "designated basis has monomials above the socle degree"),
            # x^4 lies above the band top 3, x*y^2 in the band.
            ("1,x,y,x^2,x^4", "designated basis has monomials above the socle degree"),
            (
                "1,x,y,x^2,x*y^2",
                "designated basis has 1 monomials at weighted degree 1, "
                "but the quotient there has dimension 0",
            ),
        ],
    )
    def test_dependent_or_misgraded_basis_rejected(self, capsys, basis, message):
        code, _, err = run_cli(
            ["compute", "--singularity", "D4", "--order", "1", "--basis", basis], capsys
        )
        assert code == 1
        assert err == f"error: {message}\n"

    def test_integrability_failure(self, capsys, monkeypatch):
        # A constant in J_(-2) is no gradient of a normalized F0; the raise
        # reaches main like any ArithmeticError.
        def broken(result, data):
            J = plus_term(j_block(result), -2, 0, const(data.mu, result.order, Fraction(1, 7)))
            return primform.prepotential(
                result_from_blocks(zeta_block(result), J, result.state, result.floor),
                data,
            )

        monkeypatch.setattr(cli, "prepotential", broken)
        code, out, err = run_cli(["compute", "--singularity", "A3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: integrability check failed")

    @pytest.mark.parametrize("check, mono", [("wdvv", (0, 1, 2, 1)), ("euler", (0, 4, 0, 0))])
    def test_own_verdicts_fail(self, capsys, tmp_path, monkeypatch, check, mono):
        # compute's verdicts are verify's on the record it writes.  Adding 1
        # to the t2*t3^2*t4 coefficient of the A4 order-4 F0 breaks WDVV
        # only; t2^4 lies off the Euler grading but keeps WDVV.
        def perturbed(result, data):
            frob = primform.prepotential(result, data)
            terms = dict(frob.prepotential.terms)
            terms[mono] = terms.get(mono, 0) + 1
            return FrobeniusData(SSeries(data.mu, frob.prepotential.order, terms))

        monkeypatch.setattr(cli, "prepotential", perturbed)
        path = tmp_path / "a4.json"
        code, _, err = run_cli(
            ["compute", "--singularity", "A4", "--order", "4", "--output", str(path)], capsys
        )
        assert code == 1
        assert json.loads(path.read_text())["checks"][check] == "fail"
        assert err.endswith(f"error: failing checks: {check}\n")
        assert run_cli(["verify", str(path)], capsys)[0] == 1

    def test_defect_verdict_fails(self, capsys, tmp_path, monkeypatch):
        # 1/7 added to zeta leaves J, and so F0, as it was: only the defect
        # check can see it.
        def perturbed(state):
            result = primform.solve_star(state)
            extra = SSeries.variable(state.milnor.mu, 0, state.order).scale(Fraction(1, 7))
            zeta = plus_term(zeta_block(result), 0, 0, extra)
            return result_from_blocks(zeta, j_block(result), state, result.floor)

        monkeypatch.setattr(cli, "solve_star", perturbed)
        path = tmp_path / "a3.json"
        argv = ["compute", "--singularity", "A3", "--check-defect", "--output", str(path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        checks = json.loads(path.read_text())["checks"]
        assert checks == {"defect": "fail", "euler": "pass", "integrability": "pass", "wdvv": "pass"}
        assert err == "error: failing checks: defect\n"

    @pytest.mark.parametrize("name, position", [("A3", 1), ("U12", 11), ("E12", 1)])
    def test_permuted_basis(self, capsys, tmp_path, name, position):
        # The solve once seeded zeta and J at basis index 0, so a basis not
        # starting with 1 ended in "coordinate change does not have
        # identity linear part".
        def compute(*extra):
            path = tmp_path / "record.json"
            argv = ["compute", "--singularity", name, "--order", "4", "--check-defect"]
            code, _, _ = run_cli([*argv, "--output", str(path), *extra], capsys)
            assert code == 0
            return json.loads(path.read_text())

        default = compute()
        basis = [b for b in default["basis"] if b != "1"]
        basis.insert(position, "1")
        permuted = compute("--basis", ",".join(basis))
        perm = [default["basis"].index(b) for b in basis]
        assert set(permuted["checks"].values()) == {"pass"}
        assert permuted == {
            **default,
            "basis": basis,
            "flat_degrees": [default["flat_degrees"][i] for i in perm],
            "eta": [[default["eta"][i][j] for j in perm] for i in perm],
            "terms": permuted["terms"],
        }

        def terms(record, order):
            return {tuple(t["exponents"][i] for i in order): t["coeff"] for t in record["terms"]}

        assert terms(permuted, range(len(basis))) == terms(default, perm)

    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "one.json", tmp_path / "two.json"]
        for path in paths:
            code, _, _ = run_cli(
                ["compute", "--singularity", "A3", "--order", "4", "--output", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestVerify:
    def _compute_record(self, capsys, tmp_path, name="A3"):
        out_path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(
            ["compute", "--singularity", name, "--order", "4", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        return out_path

    def test_fresh_record_passes(self, capsys, tmp_path):
        path = self._compute_record(capsys, tmp_path)
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 0
        assert "wdvv: pass" in out

    def test_perturbed_record_fails(self, capsys, tmp_path):
        path = self._compute_record(capsys, tmp_path, name="U12")
        record = json.loads(path.read_text())
        from primform.algebra import format_rational, parse_rational

        term = record["terms"][0]
        term["coeff"] = format_rational(parse_rational(term["coeff"]) + 1)
        path.write_text(json.dumps(record))
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_empty_record_rejected(self, capsys, tmp_path):
        # A record without terms used to pass vacuously, whatever else it held.
        path = tmp_path / "empty.json"
        for record in ({}, {"terms": []}):
            path.write_text(json.dumps(record))
            code, _, err = run_cli(["verify", str(path)], capsys)
            assert code == 1
            assert err.startswith("error: malformed record")

    def test_below_order_three_vacuous(self, capsys, tmp_path):
        # The same rule as compute: below order 3 no check runs.
        path = tmp_path / "a2.json"
        code, _, _ = run_cli(
            ["compute", "--singularity", "A2", "--order", "2", "--output", str(path)], capsys
        )
        assert code == 0
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 0
        assert out.splitlines() == ["wdvv: vacuous", "euler: vacuous", "integrability: vacuous"]

    def test_record_without_terms_checked(self, capsys, tmp_path):
        # At order 4 the checks run on a zero F0; they are not vacuous, and
        # a zero F0 breaks the flat identity d_u d_a d_b F0 = eta_ab.
        path = self._compute_record(capsys, tmp_path, name="A2")
        record = json.loads(path.read_text())
        record["terms"] = []
        path.write_text(json.dumps(record))
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert "wdvv: pass" in out and "integrability: FAIL" in out and "vacuous" not in out

    def test_unparseable_record(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert "error" in err

    def test_deeply_nested_record(self, capsys, tmp_path):
        # Nesting past the recursion limit once ended in a RecursionError traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read record: ")

    def test_malformed_record(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"terms": [{"exponents": [3], "coeff": "1"}]}))
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert "malformed" in err

    @pytest.mark.parametrize(
        "exponents",
        [[-1, 0, 0, 5], [3.7, 0, 0, 0], [True, 0, 0, 2], [0, 0, 0, 9]],
        ids=["negative", "fractional", "bool", "above order"],
    )
    def test_misread_term_rejected(self, capsys, tmp_path, exponents):
        # Once read as a Laurent monomial, as x^3, as x^1, or dropped.
        path = self._compute_record(capsys, tmp_path, name="A4")
        record = json.loads(path.read_text())
        record["terms"].append({"exponents": exponents, "coeff": "1"})
        path.write_text(json.dumps(record))
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: malformed record")

    @pytest.mark.parametrize(
        "mutate, detail",
        [
            (lambda r: [r], ""),
            (lambda r: json.dumps(r), ""),
            (lambda r: {**r, "terms": [{**r["terms"][0], "coeff": 1}] + r["terms"][1:]}, ""),
            (lambda r: {**r, "flat_degrees": r["flat_degrees"] + ["7"]}, ""),
            (lambda r: {**r, "flat_degrees": r["flat_degrees"][:-1]}, ""),
            (lambda r: {**r, "eta": [r["eta"][0][:-1]] + r["eta"][1:]}, ""),
            (lambda r: {**r, "eta": r["eta"][:-1]}, ""),
            (
                lambda r: {**r, "order": 2, "terms": [{"exponents": [1, 1, 0, 0], "coeff": "1"}]},
                "ValueError('a prepotential below order 3 has no terms')",
            ),
            (lambda r: {**r, "terms": [halved(r["terms"][0])] * 2 + r["terms"][1:]}, ""),
            (lambda r: {**r, "terms": r["terms"] + r["terms"][:1]}, ""),
            (
                lambda r: {**r, "terms": r["terms"] + [{"exponents": [1, 0, 1, 1], "coeff": "0"}]},
                "",
            ),
            (lambda r: {**r, "basis": [], "terms": [], "eta": [], "flat_degrees": []}, ""),
            (lambda r: {**r, "eta": ["0" * (len(r["eta"]) - 1) + "1"] + r["eta"][1:]}, ""),
            (lambda r: {**r, "flat_degrees": "1" * len(r["flat_degrees"])}, ""),
            (lambda r: {**r, "terms": {}}, ""),
            (lambda r: {**r, "eta": [["1/5", "1/3"] + r["eta"][0][2:]] + r["eta"][1:]}, ""),
            (
                lambda r: {**r, "eta": [["1/0"] + r["eta"][0][1:]] + r["eta"][1:]},
                "ValueError(\"zero denominator in '1/0'\")",
            ),
        ],
        ids=[
            "list", "string", "int coeff", "extra flat degree", "missing flat degree",
            "short eta row", "missing eta row", "terms below order 3", "split term",
            "repeated term", "zero coefficient", "empty basis", "string eta row",
            "string flat degrees", "object terms", "non-symmetric eta", "zero denominator",
        ],
    )
    def test_malformed_shape_rejected(self, capsys, tmp_path, mutate, detail):
        # Once a traceback, a pass, or Euler or WDVV violations; a split or
        # repeated term was summed and a zero term dropped; a string row or
        # list was read one character per entry and an object as its keys; a
        # non-symmetric eta got WDVV violations; a zero denominator ended in
        # "error: Fraction(1, 0)".  A detail given is the reason's start.
        path = self._compute_record(capsys, tmp_path, name="A4")
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert err.startswith(f"error: malformed record: {detail}")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda r: {**r, "terms": [{"exponents": [1, 1, 0], "coeff": "1"}]},
                "a prepotential below order 3 has no terms",
            ),
            (
                lambda r: {**r, "eta": [["1/5", "1/3", r["eta"][0][2]]] + r["eta"][1:]},
                "the pairing eta is not symmetric",
            ),
            (lambda r: {**r, "eta": [["0"] * 3] * 3}, "matrix is singular"),
        ],
        ids=["terms below order 3", "non-symmetric eta", "singular eta"],
    )
    def test_below_order_three_malformed(self, capsys, tmp_path, mutate, message):
        # Below order 3 no check runs, but the pairing is still read: a
        # non-symmetric or singular eta once passed as vacuous three times.
        path = tmp_path / "a3.json"
        argv = ["compute", "--singularity", "A3", "--order", "2", "--output", str(path)]
        assert run_cli(argv, capsys)[0] == 0
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: malformed record: ValueError({message!r})\n"

    @pytest.mark.parametrize("order", [4.7, "4", True], ids=["fractional", "string", "bool"])
    def test_misread_order_rejected(self, capsys, tmp_path, order):
        # Once read by int() as order 4, 4 and 1.
        path = self._compute_record(capsys, tmp_path, name="A4")
        record = json.loads(path.read_text())
        record["order"] = order
        path.write_text(json.dumps(record))
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: malformed record")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda r: {
                    **r,
                    "flat_degrees": [str(2 * Fraction(d)) for d in r["flat_degrees"]],
                    "central_charge": str(3 - 2 * (3 - Fraction(r["central_charge"]))),
                },
                "central_charge is not sum_i (1 - 2 q_i) over one weight per variable",
            ),
            (
                lambda r: {**r, "weights": ["1/5", "1/9"]},
                "central_charge is not sum_i (1 - 2 q_i) over one weight per variable",
            ),
            (
                lambda r: {**r, "basis": r["basis"][::-1]},
                "flat degree 1 of 'x*y^5' is not 1 - its weighted degree",
            ),
            (
                lambda r: {
                    **r,
                    "basis": ["1"] + r["basis"][:-1],
                    "flat_degrees": ["1"] + r["flat_degrees"][:-1],
                },
                "the basis must hold the unit \"1\" exactly once",
            ),
            (
                lambda r: {
                    **r,
                    "basis": ["x^2"] + r["basis"][1:],
                    "flat_degrees": ["1/3"] + r["flat_degrees"][1:],
                },
                "the basis must hold the unit \"1\" exactly once",
            ),
            (
                lambda r: {**r, "basis": ["1", "2*y"] + r["basis"][2:]},
                "basis entries must be bare monomials, got '2*y'",
            ),
            (
                lambda r: {**r, "basis": ["1", 5] + r["basis"][2:]},
                "a monomial is written as a string, got 5",
            ),
            (
                lambda r: {**r, "weights": r["weights"][:1]},
                "central_charge is not sum_i (1 - 2 q_i) over one weight per variable",
            ),
        ],
        ids=[
            "flat degrees doubled", "other weights", "basis reversed", "unit twice",
            "no unit", "scaled entry", "number entry", "missing weight",
        ],
    )
    def test_fields_tied_to_weights(self, capsys, tmp_path, mutate, message):
        # Each of the first three edits of the deep-o6 E12 record once
        # passed every check: WDVV and the Euler check never read the
        # weights or the basis.
        path = tmp_path / "e12.json"
        record = json.loads((RECORDS / "deep-o6" / "E12.json").read_text())
        path.write_text(json.dumps(mutate(record)))
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: malformed record: ValueError({message!r})\n"

    @pytest.mark.parametrize(
        "mutate, wdvv",
        [
            (lambda r: {**r, "eta": [[str(2 * Fraction(v)) for v in row] for row in r["eta"]]},
             "pass"),
            # Indices 9 and 10 swapped: eta stays a symmetric permutation
            # matrix, but now pairs y with x*y^3, off its degree support.
            (lambda r: {**r, "eta": [[r["eta"][a][b] for b in SWAP_9_10] for a in SWAP_9_10]},
             "FAIL"),
            (lambda r: {**r, "terms": [
                {**t, "coeff": "2/21"} if t["exponents"] == [1, 1] + [0] * 8 + [1, 0] else t
                for t in r["terms"]
            ]}, "FAIL"),
        ],
        ids=["eta doubled", "eta off its support", "t_u t_a t_b changed"],
    )
    def test_eta_tied_to_f0(self, capsys, tmp_path, mutate, wdvv):
        # The doubled eta of the deep-o6 E12 record once passed every check:
        # WDVV holds for every multiple of eta, and the Euler check never
        # reads it.  The flat identity d_u d_a d_b F0 = eta_ab does.
        path = tmp_path / "e12.json"
        record = json.loads((RECORDS / "deep-o6" / "E12.json").read_text())
        path.write_text(json.dumps(mutate(record)))
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert f"wdvv: {wdvv} (9504 checks)" in out
        assert "euler: pass (229 checks)" in out
        assert "integrability: FAIL (229 checks)" in out

    def test_pairing_size_mismatch(self, capsys, tmp_path):
        # Once an IndexError traceback from inside the WDVV check.
        path = self._compute_record(capsys, tmp_path)
        record = json.loads(path.read_text())
        record["eta"] = [row + ["0"] for row in record["eta"]] + [["0"] * 3 + ["1"]]
        path.write_text(json.dumps(record))
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert "malformed" in err


class TestMirror:
    def test_q10_transposes_to_e14(self, capsys):
        code, out, _ = run_cli(["mirror", "--singularity", "Q10", "--format", "json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["transpose_name"] == "E14"
        assert record["aut_order"] == 24

    def test_s11_transposes_to_w13(self, capsys):
        code, out, _ = run_cli(["mirror", "--singularity", "S11", "--format", "json"], capsys)
        record = json.loads(out)
        assert record["transpose_name"] == "W13"

    def test_self_transpose_inline(self, capsys):
        code, out, _ = run_cli(["mirror", "--poly", "x^3+y^7", "--format", "json"], capsys)
        record = json.loads(out)
        assert record["transpose_name"] == "E12"
        assert record["j_w"] == ["1/3", "1/7"]

    def test_human_format_pinned(self, capsys):
        code, out, err = run_cli(["mirror", "--singularity", "Q10", "--format", "human"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "Q10: x^2*y + z^3 + y^4",
            "  transpose: x^2 + y^3 + x*z^4 (E14)",
            "  weights: 3/8, 1/4, 1/3",
            "  central charge: 13/12",
            "  |Aut|: 24",
            "  j_W: (3/8, 1/4, 1/3)",
        ]

    def test_weights_option_rejected(self, capsys):
        # Once accepted and ignored: the weights come from the exponent matrix.
        with pytest.raises(SystemExit) as exit_info:
            main(["mirror", "--poly", "x^3+y^7", "--weights", "1/2,1/2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --weights" in capsys.readouterr().err

    def test_rejected_transpose_named(self, capsys):
        # x*z^2+x*y^2+z^3 is singular along the x-axis: x is the light
        # variable of two terms.  Its transpose was once the one rejected.
        code, out, err = run_cli(["mirror", "--poly", "x*z^2+x*y^2+z^3"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: not an invertible polynomial: x*y^2 {NOT_AN_ATOM}\n"

    @pytest.mark.parametrize(
        "argv, term",
        [
            (["--poly", "x^5+x^2*y^2"], "x^2*y^2"),
            (["--poly", "x^3*y^2+x^2*y^3"], "x^3*y^2"),
            (["--poly", "x^3+1", "--vars", "x,y"], "1"),
        ],
        ids=["x^5+x^2*y^2", "x^3*y^2+x^2*y^3", "constant"],
    )
    def test_no_sum_of_atoms_rejected(self, capsys, argv, term):
        # The first two have det E != 0 and a singularity that is not
        # isolated; both once printed a transpose, |Aut| and c_hat, exit 0.
        code, out, err = run_cli(["mirror", *argv], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: not an invertible polynomial: {term} {NOT_AN_ATOM}\n"

    def test_non_invertible_rejected(self, capsys):
        code, _, err = run_cli(["mirror", "--poly", "x^3+x*y^2+y^4", "--vars", "x,y"], capsys)
        assert code == 1
        assert "invertible" in err

    def test_twelve_variables_named(self, capsys, tmp_path):
        # A sum of chains, loops and Fermat terms in 12 variables and its
        # transpose: the key was once a minimum over all 12! permutations.
        names = "abcdefghijkl"
        rows = [[0] * 12 for _ in range(12)]
        for i, a, j in [(0, 2, 1), (1, 3, 2), (2, 4, None), (3, 2, 4), (4, 3, 3), (5, 3, None),
                        (6, 3, 7), (7, 2, None), (8, 2, 9), (9, 2, 10), (10, 3, 8), (11, 2, None)]:
            rows[i][i] = a
            if j is not None:
                rows[i][j] = 1
        polys = {"F12": rows, "G12": [list(column) for column in zip(*rows)]}
        entries = []
        for name, matrix in polys.items():
            poly = SSeries(12, None, {tuple(row): Fraction(1) for row in matrix})
            entries.append({
                "name": name,
                "variables": list(names),
                "weights": [str(q) for q in infer_weights(poly)],
                "polynomial": [{"exponents": row, "coeff": "1"} for row in matrix],
            })
        path = tmp_path / "twelve.json"
        path.write_text(json.dumps({"entries": entries}))
        for name, partner in [("F12", "G12"), ("G12", "F12")]:
            argv = ["mirror", "--catalog", str(path), "--singularity", name, "--format", "json"]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            assert json.loads(out)["transpose_name"] == partner


class TestCatalogSelftest:
    def test_all_entries_pass(self, capsys):
        code, out, _ = run_cli(["catalog-selftest"], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_failures_reported(self, capsys, tmp_path):
        # E13 holds E12's polynomial, so E12 is reported as its duplicate,
        # and the E12 copy expects the wrong central charge, Milnor number
        # and transpose: x^3+y^7 is its own transpose, named after the
        # first entry that holds it, E13.  A non-invertible entry has no
        # transpose to check and passes.
        e12 = {
            "variables": ["x", "y"],
            "weights": ["1/3", "1/7"],
            "polynomial": [
                {"exponents": [3, 0], "coeff": "1"},
                {"exponents": [0, 7], "coeff": "1"},
            ],
        }
        entries = [
            {"name": "E13", **e12},
            {
                "name": "E12",
                **e12,
                "expected": {"central_charge": "1", "milnor_number": 11, "transpose_name": "E12"},
            },
            {
                "name": "X9",
                "variables": ["x", "y"],
                "weights": ["1/4", "1/4"],
                "polynomial": [
                    {"exponents": [4, 0], "coeff": "1"},
                    {"exponents": [2, 2], "coeff": "1"},
                    {"exponents": [0, 4], "coeff": "1"},
                ],
            },
        ]
        path = tmp_path / "selftest.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, _ = run_cli(["catalog-selftest", "--catalog", str(path)], capsys)
        assert code == 1
        assert out.splitlines() == [
            "E13: FAIL: milnor number 12 != type subscript 13",
            "E12: FAIL: central charge 22/21 != 1; milnor number 12 != 11;"
            " same polynomial as E13; transpose 'E13' != 'E12'",
            "X9: ok",
            "1/3 entries ok",
        ]

    def test_transpose_of_non_invertible_reported(self, capsys, tmp_path):
        # A transpose expectation on a polynomial that is not invertible was
        # once skipped, and the entry reported ok.
        entry = {
            "name": "NI2",
            "variables": ["x", "y"],
            "weights": ["1/3", "1/3"],
            "polynomial": [
                {"exponents": [3, 0], "coeff": "1"},
                {"exponents": [0, 3], "coeff": "1"},
                {"exponents": [1, 2], "coeff": "1"},
            ],
            "expected": {"milnor_number": 4, "transpose_name": "NOPE"},
        }
        path = tmp_path / "ni2.json"
        path.write_text(json.dumps({"entries": [entry]}))
        code, out, _ = run_cli(["catalog-selftest", "--catalog", str(path)], capsys)
        assert code == 1
        assert out.splitlines() == [
            "NI2: FAIL: transpose 'NOPE' expected, but the polynomial is not invertible",
            "0/1 entries ok",
        ]

    def test_rejected_entries_reported(self, capsys, tmp_path):
        # A non-isolated entry and one whose weights do not fit its
        # polynomial each fail on their own line; the entries after them
        # are still checked.
        def entry(name, weights, *exponents):
            return {
                "name": name,
                "variables": ["x", "y"][: len(weights)],
                "weights": weights,
                "polynomial": [{"exponents": list(e), "coeff": "1"} for e in exponents],
            }

        entries = [
            entry("A2", ["1/3"], (3,)),
            entry("NI", ["1/4", "1/4"], (2, 2)),
            entry("BADW", ["1/3", "1/3"], (3, 0), (0, 7)),
            entry("A3", ["1/4"], (4,)),
        ]
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, err = run_cli(["catalog-selftest", "--catalog", str(path)], capsys)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "A2: ok",
            "NI: FAIL: quotient is nonzero at weighted degree 5/4, above the socle degree 1",
            "BADW: FAIL: term y^7 has weighted degree 7/3, expected 1",
            "A3: ok",
            "2/4 entries ok",
        ]


class TestCatalogResolution:
    def test_environment_variable(self, capsys, tmp_path, monkeypatch):
        custom = {
            "entries": [
                {
                    "name": "CUSP",
                    "family": "ade",
                    "variables": ["x"],
                    "weights": ["1/3"],
                    "polynomial": [{"exponents": [3], "coeff": "1"}],
                    "expected": {"central_charge": "1/3", "milnor_number": 2},
                }
            ]
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(custom))
        monkeypatch.setenv("PRIMFORM_CATALOG", str(path))
        code, out, _ = run_cli(["info", "--singularity", "CUSP", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["milnor_number"] == 2

    @pytest.mark.parametrize(
        "entry",
        [
            "no weights", "not an object", "negative exponent", "fractional exponent",
            "repeated term", "string variables", "weights object", "fractional milnor number",
            "bool milnor number", "list name", "list transpose name",
        ],
    )
    def test_malformed_catalog(self, capsys, tmp_path, entry):
        # A string was once read one character per entry, an object as its
        # keys, and a milnor number through int(); a list name ended in a
        # TypeError traceback, and a list transpose name was read as a name.
        raw = {
            "name": "CUSP",
            "variables": ["x"],
            "polynomial": [{"exponents": [3], "coeff": "1"}],
        }
        if entry == "not an object":
            raw = ["CUSP"]
        elif entry.endswith("exponent"):
            raw["weights"] = ["1/3"]
            raw["polynomial"][0]["exponents"] = [-3] if entry.startswith("negative") else [3.7]
        elif entry == "repeated term":
            raw["weights"] = ["1/3"]
            raw["polynomial"].append({"exponents": [3], "coeff": "1"})
        elif entry == "string variables":
            raw["weights"], raw["variables"] = ["1/3"], "x"
        elif entry == "weights object":
            raw["weights"] = {"1/3": 1}
        elif entry.endswith("milnor number"):
            raw["weights"] = ["1/3"]
            raw["expected"] = {"milnor_number": 2.7 if entry.startswith("fractional") else True}
        elif entry == "list name":
            raw["weights"], raw["name"] = ["1/3"], ["CUSP"]
        elif entry == "list transpose name":
            raw["weights"], raw["expected"] = ["1/3"], {"transpose_name": ["CUSP"]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"entries": [raw]}))
        code, out, err = run_cli(
            ["compute", "--catalog", str(path), "--singularity", "CUSP"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed catalog")

    @pytest.mark.parametrize("via", ["flag", "environment"])
    def test_deeply_nested_catalog(self, capsys, tmp_path, monkeypatch, via):
        # Nesting past the recursion limit once ended in a RecursionError traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        argv = ["info", "--singularity", "A2"]
        if via == "flag":
            argv += ["--catalog", str(path)]
        else:
            monkeypatch.setenv("PRIMFORM_CATALOG", str(path))
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: malformed catalog {path}: RecursionError(")

    def test_duplicate_entry(self, capsys, tmp_path):
        a2 = {
            "name": "A2",
            "variables": ["x"],
            "weights": ["1/3"],
            "polynomial": [{"exponents": [3], "coeff": "1"}],
        }
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"entries": [a2, a2]}))
        code, out, err = run_cli(["info", "--catalog", str(path), "--singularity", "A2"], capsys)
        assert (code, out, err) == (1, "", "error: duplicate catalog entry 'A2'\n")

    def test_repeated_catalog_variable(self, capsys, tmp_path):
        # ["x", "x"] once loaded, and info printed "D: x^3 + x^7" with mu 12.
        raw = {
            "name": "D",
            "variables": ["x", "x"],
            "weights": ["1/3", "1/7"],
            "polynomial": [
                {"exponents": [3, 0], "coeff": "1"},
                {"exponents": [0, 7], "coeff": "1"},
            ],
        }
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({"entries": [raw]}))
        code, out, err = run_cli(["info", "--catalog", str(path), "--singularity", "D"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: malformed catalog {path}: "
            "ValueError(\"variable 'x' is named twice\")\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--singularity", "E12", "--weights", "1/2,1/2", "--vars", "a,b"],
            ["info", "--singularity", "E12", "--weights", "1/3,1/7"],
            ["compute", "--singularity", "A2", "--poly", "x^5"],
            ["mirror", "--singularity", "A2", "--vars", "x"],
        ],
    )
    def test_singularity_excludes_other_target_flags(self, capsys, argv):
        # --singularity once won silently over --poly, --vars and --weights.
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == "error: --singularity excludes --poly, --vars and --weights\n"

    def test_missing_catalog_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["info", "--catalog", str(tmp_path / "absent.json"), "--singularity", "A1"], capsys
        )
        assert code == 1
        assert err.startswith("error:")

    def test_non_isolated_inline_poly_rejected(self, capsys):
        code, _, err = run_cli(
            ["info", "--poly", "x^2*y^2", "--weights", "1/4,1/4", "--vars", "x,y"],
            capsys,
        )
        assert code == 1
        assert "error" in err


class TestEntryPoint:
    def test_module_invocation(self):
        # The child imports the same primform as this process, installed or not.
        home = str(Path(primform.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "primform", "info", "--singularity", "W13", "--format", "json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=home),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["central_charge"] == "9/8"

    def test_import_leaves_out_dataclasses(self):
        # dataclasses imports inspect, ast, dis and tokenize, which every
        # primform process would pay for at start-up.
        home = str(Path(primform.__file__).resolve().parent.parent)
        code = (
            "import sys, primform, primform.cli; primform.load_catalog(); "
            "print('dataclasses' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-B", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=home),
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_engine_imports_only_the_standard_library(self):
        # numpy and sympy may be installed, but primform declares no
        # dependency.  What site's .pth hooks load at start-up is not
        # primform's, so only the modules loaded after that are read.
        home = str(Path(primform.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import contextlib, io\n"
            "import primform.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = primform.cli.main(['compute', '--singularity', 'A2', '--order', '3'])\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(code, sorted(loaded - set(sys.stdlib_module_names) - {'primform'}))"
        )
        proc = subprocess.run(
            [sys.executable, "-B", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=home),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")

    def test_engine_raises_only_what_main_reports(self):
        # main turns ValueError and ArithmeticError, subclasses included,
        # into `error:` and exit 1; any other exception the engine raises
        # would end in a traceback.
        engine = Path(primform.__file__).resolve().parent
        sources = {path.name: path.read_text() for path in sorted(engine.glob("*.py"))}
        assert unreported_raises(sources) == []
        trees = [ast.parse(text) for text in sources.values()]
        assert any(isinstance(node, ast.Raise) for tree in trees for node in ast.walk(tree))
        # Negative control: a KeyError, an exception derived from one and a
        # bare re-raise are caught; a derived ValueError is not.
        injected = (
            "class Lookup(KeyError): pass\n"
            "class Bad(ValueError): pass\n"
            "class Worse(Bad): pass\n"
            "def f(x):\n"
            "    if x: raise KeyError(x)\n"
            "    try: raise Lookup\n"
            "    except Lookup: raise\n"
            "    raise Worse(x)\n"
        )
        assert unreported_raises({"cli.py": sources["cli.py"] + injected}) == [
            ("cli.py", sources["cli.py"].count("\n") + 5, "KeyError"),
            ("cli.py", sources["cli.py"].count("\n") + 6, "Lookup"),
            ("cli.py", sources["cli.py"].count("\n") + 7, "raise"),
        ]

    def test_repeated_call_leaves_no_cyclic_garbage(self, capsys):
        # The parser is built once per process; each build left 275 cyclic
        # objects behind on `verify`, for the collector to find later.
        argv = ["verify", str(RECORDS / "deep-o6" / "E12.json")]
        assert main(argv) == 0
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()

    def test_benchmark_names_exported(self, monkeypatch):
        # perfbench/worker.py and perfbench/tracing.py look these names up;
        # losing one turns a benchmark metric into null or a case into a
        # failed operation without failing any other test.
        for name in primform.__all__:
            assert hasattr(primform, name), name
        for name in (
            "load_catalog", "milnor_basis", "build_unfolding", "solve_star",
            "defect_is_zero", "prepotential", "wdvv_check", "euler_check",
            "flat_coordinates", "invert_coordinates", "SSeries",
        ):
            assert name in primform.__all__ and callable(getattr(primform, name)), name
        assert callable(primform.frobenius.prepotential_record)
        # The tracer wraps the product through the class __dict__: an
        # inherited or deleted __mul__ turns algebra.series_mul_calls null.
        for name in ("__mul__", "__rmul__"):
            assert name in vars(primform.SSeries), name
        # The traced counters read these attributes of the results.
        f = primform.load_catalog()["A2"].weighted_polynomial()
        data = primform.milnor_basis(f)
        result = primform.solve_star(primform.build_unfolding(f, data, 3))
        frob = primform.prepotential(result, data)
        assert len(result.state.milnor._reduce_cache) > 0
        blocks = list(result.J.iter_terms())
        assert blocks and all(isinstance(series.terms, dict) for _, _, series in blocks)
        assert len(frob.prepotential.terms) > 0
        assert type(primform.wdvv_check(frob.prepotential, data.eta).checked) is int
        # invert_separately skips the frobenius.invert span without it.
        assert type(result.order) is int
        # It times invert_coordinates(flat_coordinates(result), result.order)
        # on a floor -2 result and discards what that returns; at order
        # N - 1 the same call gives the s(t) that `prepotential` folds J_(-2)
        # at, in its last fold.
        f = primform.load_catalog()["E12"].weighted_polynomial()
        data = primform.milnor_basis(f)
        result = primform.solve_star(primform.build_unfolding(f, data, 4))
        assert result.floor == -2
        t_of_s = primform.flat_coordinates(result)
        d_scale, s_of_t = primform.invert_coordinates(t_of_s, result.order)
        assert len(s_of_t) == data.mu and type(d_scale) is int
        below = primform.invert_coordinates(t_of_s, result.order - 1)
        assert below[1] != s_of_t
        folded = []
        fold = primform.frobenius._substitute_ints

        def recorded(u, s_of_t, *args):
            folded.append(s_of_t)
            return fold(u, s_of_t, *args)

        monkeypatch.setattr(primform.frobenius, "_substitute_ints", recorded)
        primform.prepotential(result, data)
        assert folded[-1] == below
