"""The batch driver: descriptors, suites, report formats, exit codes, determinism."""

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from supertower.cli import (
    RunConfig,
    build_tower,
    emit_report,
    load_spec,
    main,
    run_suites,
)
from supertower.errors import ValidationError
from supertower.superalgebra import algebra_from_dict, algebra_to_dict
from supertower.towers import clifford_base

from support import EXTERIOR_BASE, Z3_BASE, dict_table_copy

NC2 = '{"nilcoxeter": {"n_max": 2, "d": 1, "eps": 0}}'
NC3 = '{"nilcoxeter": {"n_max": 3, "d": 1, "eps": 1}}'


class TestLoadSpec:
    def test_inline_nilcoxeter(self):
        data = load_spec('{"nilcoxeter": {"n_max": 4, "d": 1, "eps": 1}}')
        cfg = RunConfig(descriptor=data, suites=["axioms"])
        tower = build_tower(cfg)
        assert tower.n_max == 4
        assert len(tower.algebras) == 5

    def test_from_file(self, tmp_path):
        p = tmp_path / "desc.json"
        p.write_text(NC2)
        assert load_spec(str(p)) == {"nilcoxeter": {"n_max": 2, "d": 1, "eps": 0}}

    def test_wreath_builtin_base(self):
        data = load_spec('{"wreath": {"base": "clifford", "n_max": 3}}')
        tower = build_tower(RunConfig(descriptor=data, suites=["axioms"]))
        assert [tower.level(n).dim for n in range(4)] == [1, 2, 8, 48]

    def test_wreath_base_from_file(self, tmp_path):
        # dump the clifford base with its trace data, then rebuild from disk
        cl = clifford_base()
        trace = [[0, 1], [1, 1]]
        spec = {"algebra": algebra_to_dict(cl.algebra),
                "frobenius": {"trace": trace, "delta": 0, "sigma": 1}}
        base_path = tmp_path / "clifford.json"
        base_path.write_text(json.dumps(spec))
        data = load_spec(json.dumps({"wreath": {"base": str(base_path), "n_max": 2}}))
        tower = build_tower(RunConfig(descriptor=data, suites=["axioms"]))
        assert tower.level(2).dim == 8

    def test_bad_json(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_spec("{nope")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown tower kind"):
            load_spec('{"mystery": {}}')

    def test_missing_field(self):
        cfg = RunConfig(descriptor={"nilcoxeter": {"n_max": 2}}, suites=["axioms"])
        with pytest.raises(ValidationError, match="missing field"):
            build_tower(cfg)

    def test_bad_structure_row_is_validation_error(self, tmp_path):
        spec = {"algebra": {"labels": ["1"], "degrees": [[0, 0]], "unit": [[1, 1]],
                            "structure": [[0, 0, 9, 1, 1]]},
                "frobenius": {"trace": [[1, 1]], "delta": 0, "sigma": 0}}
        base_path = tmp_path / "bad.json"
        base_path.write_text(json.dumps(spec))
        cfg = RunConfig(
            descriptor={"wreath": {"base": str(base_path), "n_max": 1}}, suites=["axioms"])
        with pytest.raises(ValidationError):
            build_tower(cfg)


class TestRunSuites:
    def test_empty_suites_is_usage_error(self):
        with pytest.raises(ValidationError, match="no suites"):
            run_suites(RunConfig(descriptor=json.loads(NC2), suites=[]))

    def test_unknown_suite(self):
        with pytest.raises(ValidationError, match="unknown suite"):
            run_suites(RunConfig(descriptor=json.loads(NC2), suites=["bogus"]))

    def test_all_suites_pass_small(self):
        report = run_suites(RunConfig(descriptor=json.loads(NC3), suites=[
            "axioms", "frobenius", "bialgebra", "pairing", "adjunction",
            "psi", "S2", "weyl", "fock", "faithfulness",
        ]))
        assert report.failed == 0
        assert report.passed == len(report.records)

    def test_records_sorted_and_prefixed(self):
        report = run_suites(RunConfig(descriptor=json.loads(NC2), suites=["axioms"]))
        checks = [r.check for r in report.records]
        assert checks == sorted(checks)
        assert all(c.startswith("axioms:") for c in checks)


class TestEmitReport:
    def test_json_schema_and_determinism(self):
        cfg = RunConfig(descriptor=json.loads(NC2), suites=["axioms", "pairing"])
        out1 = emit_report(run_suites(cfg), "json")
        out2 = emit_report(run_suites(cfg), "json")
        assert out1 == out2
        payload = json.loads(out1)
        assert set(payload) == {"records", "summary"}
        assert set(payload["summary"]) == {"pass", "fail", "total"}
        for rec in payload["records"]:
            assert set(rec) == {"check", "indices", "pass", "lhs", "rhs", "detail"}

    def test_text_contains_summary_and_failures(self):
        report = run_suites(RunConfig(descriptor=json.loads(NC2), suites=["axioms"]))
        text = emit_report(report, "text")
        assert "summary:" in text
        assert "[pass]" in text

    def test_text_times_the_build_before_the_suites(self, monkeypatch):
        import supertower.cli as cli
        built = []
        build = cli.build_tower

        def counted_build(cfg):  # the benchmark child stamps setup_s the same way
            built.append(cfg)
            return build(cfg)

        monkeypatch.setattr(cli, "build_tower", counted_build)
        cfg = RunConfig(descriptor=json.loads(NC2), suites=["axioms", "pairing"])
        report = run_suites(cfg)
        assert built == [cfg]
        assert list(report.elapsed) == ["build", "axioms", "pairing"]
        timings = [line.split(":")[0] for line in emit_report(report, "text").splitlines()
                   if line.startswith("-- ")]
        assert timings == ["-- build", "-- axioms", "-- pairing"]
        assert emit_report(report, "json") == emit_report(cli.Report(report.records), "json")

    def test_failing_record_serializes_both_sides(self):
        from supertower.reporting import CheckRecord
        from supertower.cli import Report
        rep = Report(records=[CheckRecord("t:c", (1,), False, lhs="1 + q", rhs="0")])
        text = emit_report(rep, "text")
        assert "1 + q" in text and "FAIL" in text
        data = json.loads(emit_report(rep, "json"))
        assert data["records"][0]["lhs"] == "1 + q"


class TestMainExitCodes:
    def test_all_pass_exit_zero(self, capsys):
        assert main(["verify", NC2, "--suites", "axioms"]) == 0
        assert "summary" in capsys.readouterr().out

    def test_usage_error_on_bad_descriptor(self, capsys):
        assert main(["verify", "{broken"]) == 64

    def test_usage_error_on_unknown_suite(self, capsys):
        assert main(["verify", NC2, "--suites", "nope"]) == 64

    def test_usage_error_no_command(self, capsys):
        assert main([]) == 64

    def test_weyl_command(self, capsys):
        assert main(["weyl", "--d", "1", "--eps", "1", "--n-max", "4"]) == 0

    def test_build_dump_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "dump"
        assert main(["build", NC2, "--dump", "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files == ["level0.json", "level1.json", "level2.json"]
        from supertower.superalgebra import algebra_from_dict, validate_algebra
        with open(out / "level2.json") as fh:
            data = json.load(fh)
        alg = algebra_from_dict(data["algebra"])
        assert validate_algebra(alg).ok
        assert data["frobenius"]["delta"] == 1

    def test_out_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPERTOWER_OUT", str(tmp_path))
        assert main(["verify", NC2, "--suites", "axioms", "--format", "json",
                     "--out", "rep.json"]) == 0
        assert (tmp_path / "rep.json").exists()

    def test_failure_exit_one(self, capsys, monkeypatch):
        # corrupt a suite to produce a failing record
        import supertower.cli as cli
        from supertower.reporting import CheckRecord

        def bad_suite(tower, layer, cfg):
            return [CheckRecord("forced-failure", (), False)]

        monkeypatch.setitem(cli.SUITE_RUNNERS, "axioms", bad_suite)
        assert main(["verify", NC2, "--suites", "axioms"]) == 1


def test_base_file_with_proper_fractions_builds(tmp_path, capsys):
    # a Clifford base with c*c = 1/4, the unit written 3/3 and the trace 2/4 on c
    spec = {"algebra": {"labels": ["1", "c"], "degrees": [[0, 0], [0, 1]],
                        "unit": [[3, 3], [0, 5]], "generators": [1],
                        "structure": [[0, 0, 0, 2, 2], [0, 1, 1, 1, 1],
                                      [1, 0, 1, 1, 1], [1, 1, 0, 1, 4]]},
            "frobenius": {"trace": [[0, 1], [2, 4]], "delta": 0, "sigma": 1}}
    alg = algebra_from_dict(spec["algebra"])
    assert alg.unit == {0: 1} and type(alg.unit[0]) is int
    assert type(alg.basis_product(0, 0)[0]) is int
    assert alg.basis_product(1, 1) == {0: Fraction(1, 4)}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(spec))
    desc = json.dumps({"wreath": {"base": str(path), "n_max": 2}})
    tower = build_tower(RunConfig(descriptor=json.loads(desc), suites=["axioms"]))
    assert tower.frobenius[1].trace == {1: Fraction(1, 2)}
    assert main(["verify", desc, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0


def test_exterior_base_level_three_verifies(tmp_path, capsys):
    # a custom base above level 2: products, Frobenius data and the Nakayama
    # closed form of the wreath levels over a dim-4 base with two odd generators
    path = tmp_path / "exterior.json"
    path.write_text(json.dumps(EXTERIOR_BASE))
    desc = json.dumps({"wreath": {"base": str(path), "n_max": 3}})
    assert main(["verify", desc, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == {"pass": 116, "fail": 0, "total": 116}


@pytest.mark.parametrize("base", [EXTERIOR_BASE, Z3_BASE], ids=["exterior", "z3"])
def test_base_file_report_matches_dict_table_load(base, tmp_path, capsys, monkeypatch):
    # a base file with one-term products loads as a signed table; loaded as
    # a dict table instead, the tower over it gives the same report
    import supertower.cli as cli
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    args = ["verify", json.dumps({"wreath": {"base": str(path), "n_max": 3}}), "--format", "json"]
    assert main(args) == 0
    signed = capsys.readouterr().out
    loaded = []

    def dict_load(data, name=""):
        alg = algebra_from_dict(data, name)
        loaded.append(alg.signed)
        return dict_table_copy(alg)

    monkeypatch.setattr(cli, "algebra_from_dict", dict_load)
    assert main(args) == 0
    assert loaded == [True]
    assert capsys.readouterr().out == signed


def test_zero_divisor_twist_verifies(capsys):
    # at d=0, eps=1 the powers' leading coefficients ([2] = 1 + pi) are zero
    # divisors; the Weyl suite compares class vectors, so every record passes
    desc = json.dumps({"nilcoxeter": {"n_max": 3, "d": 0, "eps": 1}})
    assert main(["verify", desc, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {"pass": 271, "fail": 0, "total": 271}
    weyl = sorted(r["check"] for r in payload["records"] if r["check"].startswith("weyl:"))
    assert weyl == ["weyl:power-image-invariance", "weyl:weyl-element-identity",
                    "weyl:weyl-lowering-rule", "weyl:weyl-operator-identity"]


def test_general_shift_flag_through_main(capsys):
    # d=2, eps=0 is not the (1, 0) twist the shadow runs for by default
    desc = json.dumps({"nilcoxeter": {"n_max": 4, "d": 2, "eps": 0}})
    tag = "fock:categorified-weyl-shadow-general-shift"
    assert main(["verify", desc, "--suites", "fock", "--general-shift", "--format", "json"]) == 0
    shadow = [r for r in json.loads(capsys.readouterr().out)["records"] if r["check"] == tag]
    assert shadow and all(r["pass"] for r in shadow)
    assert main(["verify", desc, "--suites", "fock", "--format", "json"]) == 0
    assert not [r for r in json.loads(capsys.readouterr().out)["records"] if r["check"] == tag]


def test_psi_suite_reaches_level_six():
    # the psi suite has no size cap: level 6 (dim 720) is checked too
    desc = {"nilcoxeter": {"n_max": 6, "d": 1, "eps": 1}}
    report = run_suites(RunConfig(descriptor=desc, suites=["psi"]))
    assert [r.indices for r in report.records] == [(n, 0) for n in range(7)]
    assert report.failed == 0


def test_parity_mismatch_in_base_file_rejected(tmp_path):
    # an even*even product landing on an odd element is structurally invalid
    spec = {"algebra": {"labels": ["1", "a"], "degrees": [[0, 0], [0, 1]],
                        "unit": [[1, 1], [0, 1]],
                        "structure": [[0, 0, 0, 1, 1], [0, 1, 1, 1, 1],
                                      [1, 0, 1, 1, 1], [1, 1, 1, 1, 1]]},
            "frobenius": {"trace": [[0, 1], [1, 1]], "delta": 0, "sigma": 1}}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(spec))
    cfg = RunConfig(descriptor={"wreath": {"base": str(path), "n_max": 1}}, suites=["axioms"])
    with pytest.raises(ValidationError, match="parity"):
        build_tower(cfg)


def test_wreath_base_with_split_unit_is_usage_error(tmp_path, capsys):
    # k x k with unit e0 + e1: the wreath levels build, but embedding a level
    # into a larger one needs the unit on the free slots as one basis vector
    spec = {"algebra": {"labels": ["e0", "e1"], "degrees": [[0, 0], [0, 0]],
                        "unit": [[1, 1], [1, 1]],
                        "structure": [[0, 0, 0, 1, 1], [1, 1, 1, 1, 1]]},
            "frobenius": {"trace": [[1, 1], [1, 1]], "delta": 0, "sigma": 0}}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(spec))
    desc = json.dumps({"wreath": {"base": str(path), "n_max": 2}})
    # rejected while the base is loaded, also for suites that never embed a level
    for suites in ("axioms", "frobenius,bialgebra,psi"):
        assert main(["verify", desc, "--suites", suites]) == 64
        err = capsys.readouterr().err
        assert err == "error: wreath embeddings need a base algebra whose unit is one basis vector\n"
        # the same exit without asserts, which python -O strips
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-m", "supertower.cli", "verify", desc,
                               "--suites", suites], capture_output=True, text=True, env=env)
        assert proc.returncode == 64, proc.stderr


@pytest.mark.parametrize("desc,message", [
    ('{"nilcoxeter": {"n_max": 0, "d": 1, "eps": 1}}', "nilcoxeter field 'n_max' must be at least 1"),
    ('{"nilcoxeter": {"n_max": "x", "d": 1, "eps": 1}}', "nilcoxeter field 'n_max' must be an integer"),
    ('{"nilcoxeter": {"n_max": 2, "d": 1, "eps": 1, "frobenius_cap": "a"}}',
     "nilcoxeter field 'frobenius_cap' must be an integer"),
    ('{"nilcoxeter": {"n_max": 2, "d": true, "eps": 1}}', "nilcoxeter field 'd' must be an integer"),
    ('{"nilcoxeter": 5}', "nilcoxeter descriptor must be an object"),
    ('{"wreath": {"base": "clifford", "n_max": 0}}', "wreath field 'n_max' must be at least 1"),
    ('{"nilcoxeter": {"n_max": 2, "d": 1, "eps": 1, "frobenius_capp": 0}}',
     "nilcoxeter descriptor has unknown field 'frobenius_capp'"),
    ('{"nilcoxeter": {"n_max": 2, "d": 1, "eps": 1, "base": "clifford"}}',
     "nilcoxeter descriptor has unknown field 'base'"),
    ('{"wreath": {"base": "clifford", "n_max": 2, "d": 1}}', "wreath descriptor has unknown field 'd'"),
    ('{"wreath": {"base": "clifford", "n_max": 2, "frobenius_cap": 0}}',
     "wreath descriptor has unknown field 'frobenius_cap'"),
    ('{"wreath": {"base": 5, "n_max": 2}}', "wreath field 'base' must be a string"),
], ids=["nc-n_max-zero", "nc-n_max-string", "nc-cap-string", "nc-d-bool", "nc-not-object",
        "wreath-n_max-zero", "nc-unknown-capp", "nc-unknown-base", "wreath-unknown-d",
        "wreath-unknown-cap", "wreath-base-int"])
def test_malformed_descriptor_is_usage_error(desc, message, capsys):
    assert main(["verify", desc, "--suites", "axioms"]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


CLIFFORD_ALGEBRA = algebra_to_dict(clifford_base().algebra)
CLIFFORD_FROBENIUS = {"trace": [[0, 1], [1, 1]], "delta": 0, "sigma": 1}


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("spec,message", [
    ([1, 2], "base algebra file must be an object"),
    ({"algebra": {}}, "base algebra file needs an object 'frobenius'"),
    ({"frobenius": CLIFFORD_FROBENIUS}, "base algebra file needs an object 'algebra'"),
    ({"algebra": "clifford", "frobenius": CLIFFORD_FROBENIUS},
     "base algebra file needs an object 'algebra'"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": [0, 1]}, "base algebra file needs an object 'frobenius'"),
    ({"algebra": {}, "frobenius": CLIFFORD_FROBENIUS}, "malformed base algebra file: KeyError: 'labels'"),
    ({"algebra": _without(CLIFFORD_ALGEBRA, "structure"), "frobenius": CLIFFORD_FROBENIUS},
     "malformed base algebra file: KeyError: 'structure'"),
    *[({"algebra": CLIFFORD_ALGEBRA, "frobenius": _without(CLIFFORD_FROBENIUS, key)},
       f"base frobenius data missing field {key!r}") for key in ("trace", "delta", "sigma")],
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, trace=[0, 1])},
     "trace entry 0 must be [num, den] with integers num and den != 0"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, delta="one")},
     "base frobenius field 'delta' must be an integer"),
    # non-integer indices, degrees, generators and Frobenius degrees, non-string labels,
    # over-long unit and trace
    ({"algebra": dict(CLIFFORD_ALGEBRA, structure=[[0, 0, 0.0, 1, 1], *CLIFFORD_ALGEBRA["structure"][1:]]),
      "frobenius": CLIFFORD_FROBENIUS},
     "structure row (0,0,0.0) indices must be integers"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, generators=[1.0]), "frobenius": CLIFFORD_FROBENIUS},
     "generators [1.0] must be integers"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, degrees=[["a", 0], [0, 1]]), "frobenius": CLIFFORD_FROBENIUS},
     "degrees must be pairs of integers"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, labels=[None, "c"]), "frobenius": CLIFFORD_FROBENIUS},
     "labels must be a list of strings"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, trace=[[0, 1], [1, 1], [1, 1]])},
     "base frobenius trace and algebra disagree in length"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, unit=[[1, 1], [0, 1], [1, 1]]), "frobenius": CLIFFORD_FROBENIUS},
     "unit and labels disagree in length"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, delta=0.5)},
     "base frobenius field 'delta' must be an integer"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, delta="0")},
     "base frobenius field 'delta' must be an integer"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, sigma=True)},
     "base frobenius field 'sigma' must be an integer"),
    # a rational is exactly two JSON integers with a nonzero denominator, and each
    # structure constant is given once; without these rules all but the last file verify
    ({"algebra": dict(CLIFFORD_ALGEBRA, unit=[[True, True], [0, 1]]), "frobenius": CLIFFORD_FROBENIUS},
     "unit entry 0 must be [num, den] with integers num and den != 0"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, unit=[[1, 1, 9], [0, 1]]), "frobenius": CLIFFORD_FROBENIUS},
     "unit entry 0 must be [num, den] with integers num and den != 0"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, trace=[[0, 1], [True, 1]])},
     "trace entry 1 must be [num, den] with integers num and den != 0"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, trace=[[0, 1], [1, 1, 7]])},
     "trace entry 1 must be [num, den] with integers num and den != 0"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, structure=[*CLIFFORD_ALGEBRA["structure"][:3], [1, 1, 0, True, 1]]),
      "frobenius": CLIFFORD_FROBENIUS},
     "structure row (1,1,0) value must be [num, den] with integers num and den != 0"),
    # c c = 1, then c c = 5: a second row for one (i, j, k) is an error, not an overwrite
    ({"algebra": dict(CLIFFORD_ALGEBRA, structure=[*CLIFFORD_ALGEBRA["structure"], [1, 1, 0, 5, 1]]),
      "frobenius": CLIFFORD_FROBENIUS},
     "structure row (1,1,0) appears twice"),
    # a zero row stores nothing, but it still is a row: after a nonzero one, and before one
    ({"algebra": dict(CLIFFORD_ALGEBRA, structure=[*CLIFFORD_ALGEBRA["structure"], [0, 1, 1, 0, 1]]),
      "frobenius": CLIFFORD_FROBENIUS},
     "structure row (0,1,1) appears twice"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, structure=[*CLIFFORD_ALGEBRA["structure"], [1, 1, 1, 0, 1],
                                                   [1, 1, 1, 2, 1]]),
      "frobenius": CLIFFORD_FROBENIUS},
     "structure row (1,1,1) appears twice"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, unit=[[1, 0], [0, 1]]), "frobenius": CLIFFORD_FROBENIUS},
     "unit entry 0 must be [num, den] with integers num and den != 0"),
    # a misspelt field is an error, not a field left out; labels are a list
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": CLIFFORD_FROBENIUS, "nmae": "clifford"},
     "base algebra file has unknown field 'nmae'"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, generator=[1]), "frobenius": CLIFFORD_FROBENIUS},
     "base algebra has unknown field 'generator'"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": dict(CLIFFORD_FROBENIUS, delt=0)},
     "base frobenius data has unknown field 'delt'"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, labels="1c"), "frobenius": CLIFFORD_FROBENIUS},
     "labels must be a list of strings"),
    ({"algebra": dict(CLIFFORD_ALGEBRA, labels={"1": 0, "c": 1}), "frobenius": CLIFFORD_FROBENIUS},
     "labels must be a list of strings"),
    ({"algebra": CLIFFORD_ALGEBRA, "frobenius": CLIFFORD_FROBENIUS, "name": 3},
     "base algebra file field 'name' must be a string"),
], ids=["not-object", "no-frobenius", "no-algebra", "algebra-string", "frobenius-list",
        "algebra-empty", "no-structure", "no-trace", "no-delta", "no-sigma", "trace-flat",
        "delta-word", "structure-float-index", "generators-float", "degree-string",
        "label-none", "trace-too-long", "unit-too-long", "delta-float", "delta-digit-string",
        "sigma-bool", "unit-bool", "unit-three-fields", "trace-bool", "trace-three-fields",
        "structure-bool-value", "structure-twice", "structure-zero-twice",
        "structure-zero-then-nonzero", "unit-zero-den", "top-unknown-field",
        "algebra-unknown-field", "frobenius-unknown-field", "labels-string", "labels-object",
        "name-not-string"])
def test_malformed_base_file_is_usage_error(spec, message, tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(spec))
    desc = json.dumps({"wreath": {"base": str(path), "n_max": 2}})
    assert main(["verify", desc, "--suites", "axioms"]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def test_zero_structure_row_stores_nothing(tmp_path, capsys):
    # [0, 1, 0, 0, 1] says "1 c has 0 times 1": a stored zero would reach the
    # kernels, which assume sparse vectors without zeros
    path = tmp_path / "base.json"
    spec = {"algebra": CLIFFORD_ALGEBRA, "frobenius": CLIFFORD_FROBENIUS}
    zero_row = dict(CLIFFORD_ALGEBRA, structure=[*CLIFFORD_ALGEBRA["structure"], [0, 1, 0, 0, 1]])
    alg = algebra_from_dict(zero_row)
    assert alg.basis_product(0, 1) == {1: 1}
    assert all(c for col in alg.struct_consts().values() for c in col.values())
    desc = json.dumps({"wreath": {"base": str(path), "n_max": 3}})
    reports = []
    for algebra in (CLIFFORD_ALGEBRA, zero_row):
        path.write_text(json.dumps(dict(spec, algebra=algebra)))
        assert main(["verify", desc, "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_unreadable_base_file_is_usage_error(tmp_path, capsys):
    bad_json = tmp_path / "base.json"
    bad_json.write_text("{nope")
    desc = json.dumps({"wreath": {"base": str(bad_json), "n_max": 2}})
    assert main(["verify", desc, "--suites", "axioms"]) == 64
    assert capsys.readouterr().err.startswith("error: base algebra file is not valid JSON")
    desc = json.dumps({"wreath": {"base": str(tmp_path), "n_max": 2}})  # a directory
    assert main(["verify", desc, "--suites", "axioms"]) == 64
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("exc", [KeyError("level"), AssertionError("broken"), ZeroDivisionError("x")])
def test_unexpected_exception_exits_two(exc, capsys, monkeypatch):
    import supertower.cli as cli

    def crashing_suite(tower, layer, cfg):
        raise exc

    monkeypatch.setitem(cli.SUITE_RUNNERS, "axioms", crashing_suite)
    assert main(["verify", NC2, "--suites", "axioms"]) == 2
    err = capsys.readouterr().err
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("generators,message", [
    ([], "base algebra invalid: generators do not span at ()"),
    ([1, 2], "generators [1, 2] out of range"),
], ids=["generators-empty", "generators-out-of-range"])
def test_base_with_bad_generators_is_usage_error(generators, message, tmp_path, capsys):
    algebra = dict(algebra_to_dict(clifford_base().algebra), generators=generators)
    spec = {"algebra": algebra, "frobenius": {"trace": [[0, 1], [1, 1]], "delta": 0, "sigma": 1}}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(spec))
    desc = json.dumps({"wreath": {"base": str(path), "n_max": 2}})
    assert main(["verify", desc, "--suites", "axioms"]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def test_empty_report_text():
    from supertower.cli import Report
    text = emit_report(Report(), "text")
    assert "0 total" in text


# -- descriptor fuzz: every input ends in a documented exit, never an internal error

JUNK = hst.one_of(
    hst.integers(-2, 3), hst.floats(-3, 3), hst.booleans(), hst.text(max_size=3), hst.none(),
    hst.lists(hst.integers(-1, 2), max_size=3), hst.just({}),
)


def _assert_documented_exit(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 64), err.getvalue()
    assert "internal" not in err.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(n_max=hst.integers(1, 3),
       fields=hst.fixed_dictionaries({}, optional={key: hst.one_of(hst.integers(-2, 4), JUNK)
                                                   for key in ("d", "eps", "frobenius_cap")}))
def test_fuzz_nilcoxeter_descriptor(n_max, fields):
    body = dict(fields, n_max=n_max)
    _assert_documented_exit(["verify", json.dumps({"nilcoxeter": body}), "--format", "json"])


CLIFFORD_BASE = {"algebra": CLIFFORD_ALGEBRA, "frobenius": CLIFFORD_FROBENIUS}


def _field_paths(node, path=()):
    """Every key or index path into a JSON value, containers included."""
    if path:
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _field_paths(child, path + (key,))


def _mutations(base):
    return hst.tuples(hst.sampled_from(list(_field_paths(base))), hst.one_of(JUNK, hst.just("<delete>")))


MUTATION = _mutations(CLIFFORD_BASE)


def _mutated_base(base, mutations, tmp_path) -> str:
    """A wreath descriptor over a base file with fields replaced or deleted in
    turn; a path that an earlier mutation removed is skipped."""
    spec = copy.deepcopy(base)
    for path, value in mutations:
        try:
            parent = spec
            for key in path[:-1]:
                parent = parent[key]
            if value == "<delete>":
                del parent[path[-1]]
            else:
                # a copy: JUNK's one shared {} could otherwise be nested into itself
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue
    base = tmp_path / "base.json"  # one file, rewritten by each example
    base.write_text(json.dumps(spec))
    return json.dumps({"wreath": {"base": str(base), "n_max": 2}})


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=MUTATION)
def test_fuzz_clifford_base_file(mutation, tmp_path):
    _assert_documented_exit(["verify", _mutated_base(CLIFFORD_BASE, [mutation], tmp_path), "--format", "json"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=hst.lists(MUTATION, min_size=2, max_size=3))
def test_fuzz_clifford_base_file_several_fields(mutations, tmp_path):
    _assert_documented_exit(["verify", _mutated_base(CLIFFORD_BASE, mutations, tmp_path), "--format", "json"])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=hst.lists(_mutations(EXTERIOR_BASE), min_size=1, max_size=3))
def test_fuzz_exterior_base_file(mutations, tmp_path):
    # the dim-4 exterior base: generators, a nontrivial sign and a degree-2 trace
    _assert_documented_exit(["verify", _mutated_base(EXTERIOR_BASE, mutations, tmp_path), "--format", "json"])


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_workloads() -> dict:
    """``WORKLOADS`` of ``perfbench/run.py``, loaded without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.WORKLOADS


@pytest.mark.parametrize("workload", ["smoke-nc3", "smoke-sergeev2", "nc5", "sergeev4", "nc6-groth"])
def test_report_bytes_match_benchmark_reference(workload, tmp_path):
    # the benchmark accepts a report only when its bytes hash to the recorded digest
    job = _benchmark_workloads()[workload]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[workload]
    out = tmp_path / "report.json"
    code = main(["verify", json.dumps(job["descriptor"]), "--format", "json", "--jobs", "1",
                 "--suites", ",".join(job["suites"]), "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference["bytes_sha256"]


@pytest.mark.parametrize("workload", ["smoke-nc3", "smoke-sergeev2"])
def test_report_bytes_match_benchmark_reference_under_optimize(workload, tmp_path):
    # python -O strips asserts; the recorded digest must not depend on one
    job = _benchmark_workloads()[workload]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[workload]
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-m", "supertower.cli", "verify",
                           json.dumps(job["descriptor"]), "--format", "json", "--jobs", "1",
                           "--suites", ",".join(job["suites"]), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference["bytes_sha256"]


# digests of the Heisenberg suites at the twists the benchmark does not run
HEISENBERG_DIGESTS = {
    (0, 0): "524d0f001a64dd3760ab2c551fcb17b96ed3ec806efa4e2c6db653b0223e2baa",
    (0, 1): "1944afd65a346a831edea58867beaad21a944a7e781aded86a5f07f6c82df0b7",
    (2, 0): "5d8e412b2ad2ecec0d64b4e04d1375524344de4e7de0409344becc47504efcba",
    (2, 1): "4e15c2d6ce83ae68d4f2b356de583351be65b5fe224689b14d55c486c23c4829",
}


@pytest.mark.parametrize("d,eps", sorted(HEISENBERG_DIGESTS))
def test_heisenberg_report_bytes_at_other_twists(d, eps, tmp_path):
    out = tmp_path / "report.json"
    desc = {"nilcoxeter": {"n_max": 4, "d": d, "eps": eps}}
    code = main(["verify", json.dumps(desc), "--format", "json", "--suites", "weyl,fock,faithfulness",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"] == {"fail": 0, "pass": 8, "total": 8}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HEISENBERG_DIGESTS[(d, eps)]
