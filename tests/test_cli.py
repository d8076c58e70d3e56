import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cech2 import cli
from cech2.fixtures import group_to_json
from cech2.groups import cyclic_group

CMD = [sys.executable, "-m", "cech2.cli"]
# the child finds the package in src/ as this process does, without an install
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=ENV)


def assert_input_error(res):
    assert res.returncode == 2, res.stdout + res.stderr
    report = json.loads(res.stdout)
    assert report["ok"] is False and report["error"] == "input"
    assert "Traceback" not in res.stderr


Z2 = group_to_json(cyclic_group(2))


class TestMalformedJson:
    """Each file is valid JSON of the wrong shape, or holds a number that is
    not a JSON integer where an index or a group element belongs: exit 2,
    with an input error and no traceback."""

    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2],
            {"vertices": 3, "maximal": [[0, 1], [1, "a"]]},
            {"vertices": "x", "maximal": [[0, 1]]},
            {"vertices": 3, "maximal": 5},
            {"vertices": 2.5, "maximal": [[0, 1]]},
            {"vertices": 3, "maximal": [[0, 1.5]]},
            {"vertices": -1, "maximal": []},
        ],
        ids=["list", "string-vertex", "string-count", "maximal-not-list", "float-count", "float-vertex", "negative-count"],
    )
    def test_space(self, tmp_path, obj):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(obj))
        assert_input_error(run("validate", "--space", str(path)))

    @pytest.mark.parametrize(
        "obj",
        [
            {"g": [1], "h": {}},
            {"g": {"0,1": 0, "0,2": 0, "1,2": 1.7}, "h": {}},
            {"g": {"0,1": 0, "0,2": 0, "1,2": True}, "h": {}},
            {"g": {"0,1": 0, "0,2": 0, "1,2": 0, "01,2": 1}, "h": {}},
        ],
        ids=["g-not-object", "float-value", "boolean-value", "non-canonical-key"],
    )
    def test_cocycle(self, tmp_path, obj):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        assert_input_error(run("validate", "--space", "circle3", "--coeff", "discrete:Z2", "--cocycle", str(path)))

    @pytest.mark.parametrize(
        "obj",
        [
            {"G": 1},
            {"G": {"table": [[0, 1], [1, "z"]]}, "H": Z2, "t": [0, 0], "alpha": [[0, 1], [0, 1]]},
            {"G": {"table": [[0, 1], [1, 1.9]]}, "H": Z2, "t": [0, 0], "alpha": [[0, 1], [0, 1]]},
            {"G": {"table": [[0, 1], [1, 10**20]]}, "H": Z2, "t": [0, 0], "alpha": [[0, 1], [0, 1]]},
        ],
        ids=["group-not-object", "string-element", "float-element", "element-beyond-int64"],
    )
    def test_coeff(self, tmp_path, obj):
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps(obj))
        assert_input_error(run("validate", "--coeff", str(path)))

    def test_ses(self, tmp_path):
        path = tmp_path / "ses.json"
        path.write_text("[]")
        assert_input_error(run("verify", "lemma2", "--ses", str(path), "--space", "circle3"))

    def test_well_formed_invalid_table_keeps_exit_1(self, tmp_path):
        # integers throughout, but no group: a validation failure, not an input error
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps({"G": {"table": [[0, 1], [1, 1]]}, "H": Z2, "t": [0, 0], "alpha": [[0, 1]] * 2}))
        res = run("validate", "--coeff", str(path))
        assert res.returncode == 1
        assert json.loads(res.stdout)["error"] == "MissingInverse"

    @pytest.mark.parametrize(
        "t,p,section",
        [([0, 2], [0, 0, 0, 0], None), ([0, 2], [0, 1, 0, 1], [0]), ([0, 2], [0, 1, 0, 1], [0, 7])],
        ids=["not-exact", "short-section", "section-outside-G"],
    )
    def test_well_formed_invalid_sequence_keeps_exit_1(self, tmp_path, t, p, section):
        z4 = group_to_json(cyclic_group(4))
        obj = {"H": Z2, "G": z4, "K": Z2, "t": t, "p": p} | ({} if section is None else {"section": section})
        path = tmp_path / "ses.json"
        path.write_text(json.dumps(obj))
        res = run("verify", "lemma2", "--ses", str(path), "--space", "circle3")
        assert res.returncode == 1, res.stdout + res.stderr
        assert json.loads(res.stdout)["error"] == "NotExact"


# JSON values for the fuzzed files: arbitrary ones, and objects with the
# keys of each format whose fields are arbitrary or of the expected kind, so
# that many reach the validators; integers stay small, so that no fuzzed
# complex or group is large
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["", "a", "hat", "z2z4", "discrete:Z2"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=4),
    max_leaves=16,
)
_INT = st.integers(-1, 3)
_LIST = st.lists(_INT, max_size=4)
_MATRIX = st.lists(st.lists(_INT, min_size=1, max_size=3), min_size=1, max_size=3)
_GROUP = st.sampled_from([group_to_json(cyclic_group(n)) for n in (1, 2, 3)]) | st.fixed_dictionaries({"table": _MATRIX})


def _shaped(*optional, **fields):
    values = {key: value | _JSON for key, value in fields.items()}
    required = {key: value for key, value in values.items() if key not in optional}
    return st.fixed_dictionaries(required, optional={key: values[key] for key in optional})


_SPACE = _shaped(vertices=st.integers(-1, 4), maximal=st.lists(_LIST, max_size=4))


def _action_row(n: int):
    """A permutation of 0..n-1, or n distinct values of which some may lie
    outside 0..n-1."""
    return st.permutations(range(n)) | st.lists(st.integers(-1, n + 1), min_size=n, max_size=n, unique=True)


# the trivial hom t, and action tables of such rows
_ZERO = st.integers(1, 3).map(lambda n: [0] * n)
_ALPHA = _MATRIX | st.integers(1, 3).flatmap(lambda n: st.lists(_action_row(n), min_size=1, max_size=3))
_COEFF = _shaped(G=_GROUP, H=_GROUP, t=_LIST | _ZERO, alpha=_ALPHA)
_SES = _shaped(
    "section", "type", "coeff",
    H=_GROUP, G=_GROUP, K=_GROUP, t=_LIST, p=_LIST, section=_LIST,
    type=st.sampled_from(["discrete", "hat"]), coeff=st.sampled_from(["z2z4", "discrete:Z2", ""]) | _COEFF,
)
_COCYCLE = _shaped(
    "h",
    g=st.dictionaries(st.sampled_from(["0,1", "0,2", "0,3", "1,2", "1,3", "2,3", "1,0", "0,x"]), _INT | _JSON),
    h=st.dictionaries(st.sampled_from(["0,1,2", "0,1,3", "0,2,3", "1,2,3"]), _INT | _JSON),
)
_CASES = [
    (["validate", "--space", "{file}"], _SPACE),
    (["validate", "--coeff", "{file}"], _COEFF),
    (["validate", "--space", "circle3", "--coeff", "discrete:Z2", "--cocycle", "{file}"], _COCYCLE),
    (["validate", "--space", "sphere2", "--coeff", "z2z4", "--cocycle", "{file}"], _COCYCLE),
    (["h1", "--space", "{file}", "--coeff", "discrete:S3"], _SPACE),
    (["h1", "--space", "sphere2", "--coeff", "{file}"], _COEFF),
    (["verify", "lemma2", "--ses", "{file}", "--space", "circle3"], _SES),
    (["verify", "lemma3", "--ses", "{file}", "--space", "circle3"], _SES),
]
_FUZZ = st.one_of([st.tuples(st.just(command), shaped | _JSON) for command, shaped in _CASES])


@settings(max_examples=400, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_FUZZ)
def test_fuzzed_json_inputs(tmp_path_factory, case):
    """Whatever JSON the files hold, ``main`` returns an exit code 0-3 and
    prints exactly one JSON object with an ``ok`` key."""
    command, obj = case
    code, lines = _main_on_file(tmp_path_factory, command, obj)
    assert code in (0, 1, 2, 3)
    assert len(lines) == 1 and "ok" in json.loads(lines[0])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ng=st.integers(1, 3), nh=st.integers(1, 3), data=st.data())
def test_fuzzed_action_tables(tmp_path_factory, ng, nh, data):
    """A crossed-module file of cyclic groups and the trivial t, whose action
    rows may hold values outside H: ``validate`` exits 0 or 1 and prints one
    JSON object."""
    alpha = data.draw(st.lists(_action_row(nh), min_size=ng, max_size=ng))
    obj = {"G": group_to_json(cyclic_group(ng)), "H": group_to_json(cyclic_group(nh)), "t": [0] * nh, "alpha": alpha}
    code, lines = _main_on_file(tmp_path_factory, ["validate", "--coeff", "{file}"], obj)
    assert code in (0, 1)
    assert len(lines) == 1 and json.loads(lines[0])["ok"] is (code == 0)


def _main_on_file(tmp_path_factory, command, obj):
    """``main`` on a command whose {file} is obj as JSON: its exit code and
    its stdout lines."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"  # examples run one at a time
    path.write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([arg.format(file=path) for arg in command])
    return code, out.getvalue().splitlines()


class TestOversizedSpace:
    """A space file whose closure would outgrow MAX_FACES is refused before
    any face is built: exit 3 and one JSON object."""

    @pytest.mark.parametrize(
        "obj,faces",
        [({"vertices": 30, "maximal": [list(range(30))]}, 30 + 2**30 - 1), ({"vertices": 3_000_000, "maximal": [[0, 1]]}, 3_000_003)],
        ids=["30-vertex-simplex", "3e6-vertices"],
    )
    def test_refused_before_the_closure(self, tmp_path, monkeypatch, obj, faces):
        from cech2 import complexes

        def no_closure(simplices):
            raise AssertionError("the closure was built")

        monkeypatch.setattr(complexes, "_closure", no_closure)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(obj))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["validate", "--space", str(path)])
        assert code == 3
        assert json.loads(out.getvalue()) == {
            "ok": False,
            "error": "budget",
            "detail": f"workload {faces} exceeds budget {complexes.MAX_FACES}",
        }


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

    @pytest.mark.parametrize("row", [[0, 1, 5], [0, 1, -1]], ids=["above", "negative"])
    def test_action_row_out_of_range(self, tmp_path, row):
        z3 = group_to_json(cyclic_group(3))
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps({"G": Z2, "H": z3, "t": [0, 0, 0], "alpha": [[0, 1, 2], row]}))
        res = run("validate", "--coeff", str(path))
        assert res.returncode == 1, res.stdout + res.stderr
        report = json.loads(res.stdout)
        assert report["error"] == "NotAutomorphism" and "not a permutation" in report["detail"]
        assert "Traceback" not in res.stderr

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

    def test_out_of_memory_is_reported(self, tmp_path, monkeypatch, capsys):
        def exhausted(cx, xm, budget):
            raise MemoryError()

        monkeypatch.setattr(cli, "classify_h1", exhausted)
        out = tmp_path / "report.json"
        code = cli.main(["h1", "--space", "torus7", "--coeff", "aut:Z3", "--budget", str(10**20), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and "Traceback" not in captured.err
        report = {"ok": False, "error": "memory", "detail": "out of memory"}
        assert json.loads(captured.out) == json.loads(out.read_text()) == report

    def test_byte_identical_reruns(self):
        a = run("h1", "--space", "circle3", "--coeff", "discrete:S3")
        b = run("h1", "--space", "circle3", "--coeff", "discrete:S3")
        assert a.stdout == b.stdout

    def test_report_shape(self):
        res = run("h1", "--space", "circle3", "--coeff", "discrete:Z4")
        report = json.loads(res.stdout)
        assert set(report) >= {"classes", "sizes", "base_class", "representatives"} and report["ok"] is True
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
        report = json.loads(res.stdout)
        assert report["ok"] is True and report["levels"] == [4, 8, 16, 32, 64]

    def test_depth_flag(self):
        res = run("nerve", "--coeff", "aut:Z3", "--depth", "2")
        assert res.returncode == 0
        assert json.loads(res.stdout)["levels"] == [2, 6, 18]

    def test_negative_depth_is_an_input_error(self):
        res = run("nerve", "--coeff", "z2z4", "--depth", "-1")
        assert res.returncode == 2
        assert json.loads(res.stdout) == {"ok": False, "error": "input", "detail": "--depth must be at least 0, got -1"}
        assert "Traceback" not in res.stderr

    def test_level_order_guard(self, tmp_path):
        # the cap is on the top level's generator columns, n (1 + k):
        # aut:S3 at its default depth 4 has 7776 * 11 of them and passes;
        # shift:Z32 at depth 4 has 32^4 * (1 + 4) and is refused
        res = run("nerve", "--coeff", "aut:S3")
        assert res.returncode == 0
        assert json.loads(res.stdout)["levels"] == [6, 36, 216, 1296, 7776]
        path = tmp_path / "z32.json"
        path.write_text(json.dumps({"name": "Z32", "table": [[(a + b) % 32 for b in range(32)] for a in range(32)]}))
        res = run("nerve", "--coeff", f"shift:{path}")
        assert res.returncode == 3
        assert json.loads(res.stdout) == {
            "ok": False,
            "error": "budget",
            "detail": "workload 5242880 exceeds budget 4194304",
        }
