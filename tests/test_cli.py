import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "cech2.cli"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


class TestValidate:
    def test_valid_crossed_module_file(self, tmp_path, z2z4):
        from cech2.fixtures import crossed_module_to_json

        path = tmp_path / "z2z4.json"
        path.write_text(json.dumps(crossed_module_to_json(z2z4)))
        res = run("validate", "--coeff", str(path))
        assert res.returncode == 0
        assert json.loads(res.stdout)["ok"]

    def test_shift_s3_rejected(self):
        res = run("validate", "--coeff", "shift:S3")
        assert res.returncode == 1
        report = json.loads(res.stdout)
        assert report["error"] in ("NotAbelian", "PeifferViolation")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        res = run("validate", "--coeff", str(path))
        assert res.returncode == 2

    def test_cocycle_validation(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"g": {"0,1": 0, "0,2": 0, "1,2": 1}, "h": {}}))
        res = run("validate", "--space", "circle3", "--coeff", "discrete:Z2", "--cocycle", str(path))
        assert res.returncode == 0

    @pytest.mark.parametrize(
        "g",
        [
            {"0,1": 0, "1,2": 1},
            {"0,1": 0, "1,0": 0, "0,2": 0, "1,2": 1},
            {"0,1": 0, "0,2": 7, "1,2": 1},
        ],
        ids=["missing-key", "descending-key", "value-outside-G"],
    )
    def test_malformed_cocycle_is_an_input_error(self, tmp_path, g):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"g": g, "h": {}}))
        res = run("validate", "--space", "circle3", "--coeff", "discrete:Z2", "--cocycle", str(path))
        assert res.returncode == 2
        assert json.loads(res.stdout)["error"] == "input"
        assert "Traceback" not in res.stderr


class TestH1:
    @pytest.mark.parametrize(
        "space,coeff,classes",
        [("circle3", "discrete:S3", 3), ("sphere2", "shift:Z2", 2), ("point", "aut:Z3", 1)],
    )
    def test_counts(self, space, coeff, classes):
        res = run("h1", "--space", space, "--coeff", coeff)
        assert res.returncode == 0
        assert json.loads(res.stdout)["classes"] == classes

    def test_budget_exit_code(self):
        res = run("h1", "--space", "torus7", "--coeff", "shift:Z3")
        assert res.returncode == 3

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_budget_below_one_is_an_input_error(self, budget):
        res = run("h1", "--space", "circle3", "--coeff", "discrete:Z2", "--budget", budget)
        assert res.returncode == 2
        assert json.loads(res.stdout) == {
            "ok": False,
            "error": "input",
            "detail": f"--budget must be at least 1, got {budget}",
        }

    def test_budget_override(self):
        res = run("h1", "--space", "torus7", "--coeff", "shift:Z2", "--budget", "20000")
        assert res.returncode == 0
        assert json.loads(res.stdout)["classes"] == 2

    def test_byte_identical_reruns(self):
        a = run("h1", "--space", "circle3", "--coeff", "discrete:S3")
        b = run("h1", "--space", "circle3", "--coeff", "discrete:S3")
        assert a.stdout == b.stdout

    def test_report_shape(self):
        res = run("h1", "--space", "circle3", "--coeff", "discrete:Z4")
        report = json.loads(res.stdout)
        assert set(report) >= {"classes", "sizes", "base_class", "representatives"}
        assert len(report["representatives"]) == report["classes"]
        assert sum(report["sizes"]) == report["cocycles"]

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        res = run("h1", "--space", "circle3", "--coeff", "discrete:Z2", "--out", str(out))
        assert res.returncode == 0
        assert json.loads(out.read_text()) == json.loads(res.stdout)


class TestVerify:
    def test_lemma2_fixture(self):
        res = run("verify", "lemma2", "--space", "circle3")
        assert res.returncode == 0
        assert json.loads(res.stdout)["ok"]

    def test_lemma3_fixture(self):
        res = run("verify", "lemma3", "--space", "circle3")
        assert res.returncode == 0

    def test_hat_iso(self):
        res = run("verify", "hat-iso")
        assert res.returncode == 0
        assert json.loads(res.stdout)["cases"]["aut:Z3"]["iso"]

    def test_refine(self):
        res = run("verify", "refine")
        report = json.loads(res.stdout)
        assert res.returncode == 0
        assert report["cases"]["circle3/discrete:Z2"]["counts"] == [2, 2]

    def test_abelian_default_cases(self):
        # all six cases, torus7 shift:Z3 with its 4,782,969 cocycles included
        res = run("verify", "abelian")
        report = json.loads(res.stdout)
        assert res.returncode == 0
        assert report["ok"] is True
        assert sorted(report["cases"]) == sorted(
            f"{space}/shift:{h}" for space in ("sphere2", "torus7", "rp2_6") for h in ("Z2", "Z3")
        )

    def test_abelian_single_case(self):
        res = run("verify", "abelian", "--space", "sphere2", "--coeff", "shift:Z3")
        assert res.returncode == 0
        assert json.loads(res.stdout)["cases"]["sphere2/shift:Z3"]["equal"]

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_budget_below_one_is_an_input_error(self, budget):
        res = run("verify", "lemma2", "--space", "circle3", "--budget", budget)
        assert res.returncode == 2
        assert json.loads(res.stdout)["error"] == "input"

    def test_nerve_suite(self):
        res = run("verify", "nerve", "--coeff", "z2z4")
        assert res.returncode == 0

    def test_nerve_suite_negative_depth_is_an_input_error(self):
        res = run("verify", "nerve", "--depth", "-2")
        assert res.returncode == 2
        assert json.loads(res.stdout) == {"ok": False, "error": "input", "detail": "--depth must be at least 0, got -2"}

    @pytest.mark.parametrize("suite", ["abelian", "refine"])
    @pytest.mark.parametrize("flag,value,missing", [("--space", "torus7", "--coeff"), ("--coeff", "shift:Z2", "--space")])
    def test_lone_space_or_coeff_is_an_input_error(self, suite, flag, value, missing):
        # the suite's default cases would otherwise run, ignoring the flag
        res = run("verify", suite, flag, value)
        assert res.returncode == 2
        report = json.loads(res.stdout)
        assert report["ok"] is False and report["error"] == "input"
        assert f"needs {missing}" in report["detail"]
        assert "Traceback" not in res.stderr

    def test_ses_from_file(self, tmp_path):
        from cech2.fixtures import group_to_json
        from cech2.groups import cyclic_group

        z2, z4 = cyclic_group(2), cyclic_group(4)
        path = tmp_path / "ses.json"
        path.write_text(
            json.dumps(
                {
                    "H": group_to_json(z2),
                    "G": group_to_json(z4),
                    "K": group_to_json(z2),
                    "t": [0, 2],
                    "p": [0, 1, 0, 1],
                }
            )
        )
        res = run("verify", "lemma2", "--ses", str(path), "--space", "circle3")
        assert res.returncode == 0

    def test_lemma3_ses_from_file(self, tmp_path):
        path = tmp_path / "ses2.json"
        path.write_text(json.dumps({"type": "hat", "coeff": "z2z4"}))
        res = run("verify", "lemma3", "--ses", str(path), "--space", "circle3")
        assert res.returncode == 0
        assert json.loads(res.stdout)["ok"]


class TestNerveCommand:
    def test_levels(self):
        res = run("nerve", "--coeff", "z2z4")
        assert res.returncode == 0
        assert json.loads(res.stdout)["levels"] == [4, 8, 16, 32, 64]

    def test_depth_flag(self):
        res = run("nerve", "--coeff", "aut:Z3", "--depth", "2")
        assert res.returncode == 0
        assert json.loads(res.stdout)["levels"] == [2, 6, 18]

    def test_negative_depth_is_an_input_error(self):
        res = run("nerve", "--coeff", "z2z4", "--depth", "-1")
        assert res.returncode == 2
        assert json.loads(res.stdout) == {"ok": False, "error": "input", "detail": "--depth must be at least 0, got -1"}
        assert "Traceback" not in res.stderr

    def test_level_order_guard(self):
        # the default depth 4 asks for a level of order 6 * 6^4 = 7776
        res = run("nerve", "--coeff", "aut:S3")
        assert res.returncode == 3
        assert json.loads(res.stdout) == {
            "ok": False,
            "error": "budget",
            "detail": "workload 7776 exceeds budget 2048",
        }
