import copy
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from morpheq import cli

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
SRC = str(ROOT / "src")


def run_cli(*args, env=None):
    """Run the CLI in a child process that imports morpheq from ``src``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "morpheq.cli", *args],
        capture_output=True, text=True, env=env,
    )


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout)


# --------------------------------------------------------------- the verbs


def test_validate_clean_two_category():
    code, doc = run_json("--input", str(INSTANCES / "terminal_two_category.json"),
                         "--verb", "validate")
    assert code == 0
    assert doc["valid"] is True
    assert doc["schema_version"] == 1
    assert doc["verb"] == "validate"


def test_equiv_reports_the_golden_witness():
    code, doc = run_json("--input", str(INSTANCES / "arrow_equiv.json"),
                         "--verb", "equiv")
    assert code == 0
    assert doc["equivalent"] is True
    assert doc["pair"] == ["m", "mt"]
    w = doc["witness"]
    assert (w["u1"], w["u2"], w["v1"], w["v2"]) == ("idB", "idA", "idB", "idA")
    assert (w["phi"], w["phi_tilde"]) == ("ab", "ba")
    assert w["verified"] is True


def test_classes_partitions_the_arrow_instance():
    code, doc = run_json("--input", str(INSTANCES / "arrow_equiv.json"),
                         "--verb", "classes")
    assert code == 0
    assert doc["classes"] == [["idA"], ["idB"], ["m", "mt"]]
    assert doc["count"] == 3


def test_orbit_check_cross_validates():
    code, doc = run_json("--input", str(INSTANCES / "z2_orbit.json"),
                         "--verb", "orbit-check")
    assert code == 0
    assert doc["all_agree"] is True
    assert doc["orbit_partition"] == [["a", "b"], ["c"]]
    assert all(p["agree"] for p in doc["pairs"])
    assert len(doc["pairs"]) == 9


def test_preord_check_runs_the_interchange_suite():
    code, doc = run_json("--input", str(INSTANCES / "preord_demo.json"),
                         "--verb", "preord-check")
    assert code == 0
    assert doc["all_ok"] is True
    assert doc["interchange_checked"] > 0
    assert doc["interchange_failures"] == []
    assert all(ok for ok in doc["cells"].values())


def test_frame_reports_tight_mercedes():
    code, doc = run_json("--input", str(INSTANCES / "mercedes.json"),
                         "--verb", "frame")
    assert code == 0
    assert doc["is_frame"] is True and doc["tight"] is True
    assert doc["lower_bound"] == pytest.approx(1.5, rel=1e-9)
    assert doc["upper_bound"] == pytest.approx(1.5, rel=1e-9)
    assert doc["onb_witness_valid"] is True


def test_bridge_demo_round_trips():
    code, doc = run_json("--input", str(INSTANCES / "bridge_demo.json"),
                         "--verb", "bridge")
    assert code == 0
    assert doc["equivalent"] is True
    assert doc["matches_direct_test"] is True
    assert doc["staged_closed_dev"] <= 1e-12
    for c in doc["cells"]:
        assert c == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ determinism


def test_reports_are_byte_stable():
    for fmt in ("json", "text"):
        runs = [
            run_cli("--input", str(INSTANCES / "bridge_demo.json"),
                    "--verb", "bridge", "--format", fmt, "--seed", "3")
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0


def test_validate_report_does_not_depend_on_hash_seed(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["c"]["compose"] = doc["c"]["compose"][3:]
    p = tmp_path / "gaps.json"
    p.write_text(json.dumps(doc))
    runs = [
        run_cli("--input", str(p), "--verb", "validate",
                env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("0", "2")
    ]
    assert runs[0].returncode == runs[1].returncode == 1
    assert "compose-missing" in runs[0].stdout
    assert runs[0].stdout == runs[1].stdout


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    direct = run_cli("--input", str(INSTANCES / "mercedes.json"),
                     "--verb", "frame", "--format", "json")
    filed = run_cli("--input", str(INSTANCES / "mercedes.json"),
                    "--verb", "frame", "--format", "json",
                    "--out", str(target))
    assert filed.returncode == 0
    assert filed.stdout == ""
    assert target.read_text() == direct.stdout


def test_text_format_is_flat_sorted_lines():
    proc = run_cli("--input", str(INSTANCES / "mercedes.json"),
                   "--verb", "frame", "--format", "text")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == sorted(keys)
    assert "is_frame = true" in lines
    assert "verb = \"frame\"" in lines


# ------------------------------------------------------- falsy verdicts


def test_equiv_false_pair_exits_one(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["pair"] = ["idA", "idB"]
    p = tmp_path / "no.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "equiv")
    assert code == 1
    assert out["equivalent"] is False
    assert "witness" not in out or out["witness"] is None


def test_frame_false_for_deficient_family(tmp_path):
    p = tmp_path / "lone.json"
    p.write_text(json.dumps({
        "kind": "family",
        "field": "real",
        "dim": 2,
        "weights": [1.0],
        "vectors": [[1.0, 0.0]],
    }))
    code, out = run_json("--input", str(p), "--verb", "frame")
    assert code == 1
    assert out["is_frame"] is False


def test_validate_broken_category_exits_one(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    cat = dict(doc["c"], kind="category")
    cat["compose"] = [t for t in cat["compose"] if t[:2] != ["idB", "m"]]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cat))
    code, out = run_json("--input", str(p), "--verb", "validate")
    assert code == 1
    assert out["valid"] is False
    assert any(v["code"] == "compose-missing" for v in out["violations"])


def test_validate_reports_parameter_violations(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["tau1"]["objects"] = {"A": "B", "B": "A"}
    p = tmp_path / "disagree.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "validate")
    assert code == 1
    assert out["valid"] is False
    assert "object-map-disagree" in [v["code"] for v in out["violations"]]


# ----------------------------------------------------------- input errors


def test_missing_file_exits_two(tmp_path):
    code, out = run_json("--input", str(tmp_path / "absent.json"), "--verb", "frame")
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def test_malformed_json_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, out = run_json("--input", str(p), "--verb", "frame")
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def _set_u1_entry(doc):
    doc["u1"][0][0] = float("nan")


def _set_vector_entry(doc):
    doc["vectors"][0][0] = float("nan")


def _set_seminorm_scale(doc):
    doc["seminorm"]["scale"] = float("inf")


@pytest.mark.parametrize("name, verb, tamper", [
    ("bridge_demo.json", "bridge", _set_u1_entry),
    ("mercedes.json", "frame", _set_vector_entry),
    ("bridge_demo.json", "bridge", _set_seminorm_scale),
])
def test_non_finite_constant_exits_two(tmp_path, name, verb, tamper):
    doc = json.loads((INSTANCES / name).read_text())
    tamper(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))  # writes NaN / Infinity, which strict JSON lacks
    code, out = run_json("--input", str(p), "--verb", verb)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def test_schema_violation_exits_two(tmp_path):
    p = tmp_path / "extra.json"
    p.write_text(json.dumps({
        "kind": "family", "field": "real", "dim": 2,
        "weights": [1.0, 1.0], "vectors": [[1.0, 0.0], [0.0, 1.0]],
        "surprise": True,
    }))
    code, out = run_json("--input", str(p), "--verb", "frame")
    assert code == 2
    assert out["error"]["type"] == "SchemaError"


def test_wrong_kind_for_verb_exits_two():
    code, out = run_json("--input", str(INSTANCES / "mercedes.json"),
                         "--verb", "orbit-check")
    assert code == 2
    assert out["error"]["type"] == "SchemaError"


def test_broken_carrier_is_an_input_error_for_equiv(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["c"]["compose"] = [t for t in doc["c"]["compose"] if t[:2] != ["idB", "m"]]
    p = tmp_path / "broken_equiv.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "equiv")
    assert code == 2
    assert out["error"]["type"] == "InvalidInstance"


def test_reserved_carrier_name_is_an_input_error_for_orbit_check(tmp_path):
    doc = json.loads((INSTANCES / "z2_orbit.json").read_text())
    rename = {"a": "a,x"}
    doc["carrier"] = [rename.get(x, x) for x in doc["carrier"]]
    doc["act"] = [[g, rename.get(x, x), rename.get(y, y)] for g, x, y in doc["act"]]
    p = tmp_path / "comma_orbit.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "orbit-check")
    assert code == 2
    assert out["error"]["type"] == "InvalidParameter"


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def crash(doc, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_equiv", crash)
    code = cli.main(["--input", str(INSTANCES / "arrow_equiv.json"), "--verb", "equiv"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_nonpositive_tolerance_rejected():
    proc = run_cli("--input", str(INSTANCES / "mercedes.json"),
                   "--verb", "frame", "--tol-rank", "-1e-9")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_unknown_verb_rejected_by_parser():
    proc = run_cli("--input", str(INSTANCES / "mercedes.json"), "--verb", "spectra")
    assert proc.returncode == 2
    assert proc.stdout == ""


# ------------------------------------------------- numeric and value inputs


def run_main(capsys, doc, verb, tmp_path):
    """Run ``cli.main`` in-process on ``doc``; return (code, json report or None, stderr)."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code = cli.main(["--input", str(p), "--verb", verb, "--format", "json"])
    captured = capsys.readouterr()
    return code, (json.loads(captured.out) if captured.out else None), captured.err


def test_ill_conditioned_frame_has_a_valid_onb_witness(capsys, tmp_path):
    # frame operator eigenvalues 1, 0.1, 1e-6: u P u* with u = P^(-1/2)
    # is hermitian only up to rounding
    q, _ = np.linalg.qr(np.random.default_rng(19).standard_normal((3, 3)))
    vectors = q @ np.diag(np.sqrt([1, 0.1, 1e-6]))
    doc = {"kind": "family", "field": "real", "dim": 3, "weights": [1.0] * 3,
           "vectors": vectors.T.tolist()}
    code, out, err = run_main(capsys, doc, "frame", tmp_path)
    assert (code, err) == (0, "")
    assert out["is_frame"] is True
    assert out["onb_witness_valid"] is True


def _ragged_u(doc):
    family = {k: doc[k] for k in ("field", "dim", "weights", "vectors")}
    doc["compare"] = {"family": family, "u": [[1, 0], [0]], "u_tilde": [[1, 0], [0, 1]]}


def _ragged_vectors(doc):
    doc["vectors"][1] = [1.0]


@pytest.mark.parametrize("tamper", [_ragged_u, _ragged_vectors])
def test_ragged_matrix_exits_two(capsys, tmp_path, tamper):
    doc = json.loads((INSTANCES / "mercedes.json").read_text())
    tamper(doc)
    code, out, _ = run_main(capsys, doc, "frame", tmp_path)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def _scalar(value):
    def tamper(doc):
        doc["cells"][0]["scalar"] = value
    return tamper


def _carrier_entry(doc):
    doc["objects"][0]["carrier"][1] = "x"  # X is numeric: it has no act table


def _huge_vector_entry(doc):
    doc["vectors"][0][1] = 1e200  # the frame operator overflows


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("name, verb, tamper", [
    ("preord_demo.json", "preord-check", _scalar("0")),
    ("preord_demo.json", "preord-check", _scalar("1/0")),
    ("preord_demo.json", "preord-check", _scalar("abc")),
    ("preord_demo.json", "preord-check", _carrier_entry),
    ("mercedes.json", "frame", _huge_vector_entry),
])
def test_bad_value_exits_two(capsys, tmp_path, name, verb, tamper):
    doc = json.loads((INSTANCES / name).read_text())
    tamper(doc)
    code, out, _ = run_main(capsys, doc, verb, tmp_path)
    assert code == 2
    assert out["error"]["type"] == "InvalidValue"


def _mutate(rng, doc):
    """Change one to three numbers or rationals of ``doc``, sometimes a matrix row's length."""
    numbers, rationals, rows = [], [], []

    def walk(node, parent, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, node, k)
        elif isinstance(node, list):
            if node and all(isinstance(r, list) for r in node) and len(node[0]) > 1:
                rows.append(node)
            for i, v in enumerate(node):
                walk(v, node, i)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append((parent, key))
        elif isinstance(node, str) and key != "name":
            try:
                Fraction(node)
            except (ValueError, ZeroDivisionError):
                return
            rationals.append((parent, key))

    walk(doc, None, None)
    for _ in range(rng.randint(1, 3)):
        if rationals and (not numbers or rng.random() < 0.5):
            parent, key = rng.choice(rationals)
            parent[key] = rng.choice(["0", "-1", "1/0"])
        elif numbers:
            parent, key = rng.choice(numbers)
            how = rng.choice(["zero", "negate", "scale"])
            if how == "zero":
                parent[key] = 0
            elif how == "negate":
                parent[key] = -parent[key]
            else:
                scaled = parent[key] * 10.0 ** rng.choice([8, 12, 200, 300, -8, -12, -200, -300])
                if math.isfinite(scaled):
                    parent[key] = scaled
    if rows and rng.random() < 0.1:
        rng.choice(rng.choice(rows)).pop()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and underflow of scaled numbers
def test_fuzzed_documents_exit_zero_one_or_two(capsys, tmp_path):
    rng = random.Random(3)
    codes = []
    for name, verb in (("mercedes.json", "frame"), ("bridge_demo.json", "bridge"),
                       ("preord_demo.json", "preord-check")):
        base = json.loads((INSTANCES / name).read_text())
        for _ in range(200):
            doc = copy.deepcopy(base)
            _mutate(rng, doc)
            code, _, err = run_main(capsys, doc, verb, tmp_path)
            assert code in (0, 1, 2) and "internal error" not in err, (name, doc, err)
            codes.append(code)
    assert {0, 1, 2} <= set(codes)
