import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primform
from primform.cli import main


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
        with pytest.raises(SystemExit):
            main(["info", "--singularity", "E99"])

    def test_human_format(self, capsys):
        code, out, _ = run_cli(["info", "--singularity", "E12"], capsys)
        assert code == 0
        assert "central charge: 22/21" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(["info", "--singularity", "Q11", "--format", "json"], capsys)
        _, out2, _ = run_cli(["info", "--singularity", "Q11", "--format", "json"], capsys)
        assert out1 == out2


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

    @pytest.mark.parametrize("poly", ["x^-1+y^3", "x^+y^3"])
    def test_bad_exponent_rejected(self, capsys, poly):
        code, out, err = run_cli(["compute", "--poly", poly, "--vars", "x,y"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "exponent" in err

    def test_bad_basis_fails(self, capsys):
        code, _, err = run_cli(
            ["compute", "--singularity", "A2", "--order", "3", "--basis", "1,x^2"],
            capsys,
        )
        assert code == 1
        assert "error" in err

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

    def test_empty_record_vacuous_with_warning(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"terms": []}))
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 0
        assert "warning" in out

    def test_unparseable_record(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert "error" in err

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

    def test_non_invertible_rejected(self, capsys):
        code, _, err = run_cli(["mirror", "--poly", "x^3+x*y^2+y^4", "--vars", "x,y"], capsys)
        assert code == 1
        assert "invertible" in err


class TestCatalogSelftest:
    def test_all_entries_pass(self, capsys):
        code, out, _ = run_cli(["catalog-selftest"], capsys)
        assert code == 0
        assert "FAIL" not in out


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
        "entry", ["no weights", "not an object", "negative exponent", "fractional exponent"]
    )
    def test_malformed_catalog(self, capsys, tmp_path, entry):
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
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"entries": [raw]}))
        code, out, err = run_cli(
            ["compute", "--catalog", str(path), "--singularity", "CUSP"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed catalog")

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
