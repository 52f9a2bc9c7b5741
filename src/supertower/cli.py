"""Batch driver: build towers, run verification suites, emit reports.

Three commands: ``verify`` runs suites on a described tower, ``weyl`` the
Weyl suite on a nilCoxeter tower, ``build`` builds a tower and may dump its
levels as algebra files, the format a wreath base file is read back in.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 an
internal-inconsistency error fired (a guaranteed identity broke) or any
other unexpected exception escaped, 64 usage or input-validation error.

JSON reports are byte-identical across runs: records are sorted by (suite,
check, indices), keys are emitted in a fixed order, and timing is reported
only in the text format.  Suites run one after another in one thread:
``--jobs`` is parsed and ignored, because running suites in threads
measured slower than running them in one (the work is pure Python).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import InternalInconsistencyError, SupertowerError, ValidationError
from .frobenius import FrobeniusStructure, check_dual_iso, check_frobenius
from .grothendieck import (
    G_SIDE,
    K_SIDE,
    GrothLayer,
    check_adjunction_kappa,
    check_hopf_pairing,
    check_psi_invariance,
    check_twisted_bialgebra,
)
from .heisenberg import (
    HeisenbergDouble,
    categorified_weyl_shadow,
    check_action_compat,
    check_faithfulness_truncated,
    check_general_relation,
    weyl_check,
)
from .reporting import CheckRecord
from .superalgebra import algebra_from_dict, algebra_to_dict, read_rational, validate_algebra
from .towers import (
    FROBENIUS_CAP,
    SPLIT_UNIT_ERROR,
    TowerSpec,
    build_nilcoxeter_tower,
    build_wreath_tower,
    check_nakayama_closed_form,
    check_S2_dimensions,
    check_double_coset_sizes,
    check_tower_axioms,
    check_wr_commutation,
    clifford_base,
    unit_basis_index,
)
from .values import Record

USAGE_ERROR = 64
OUTPUT_DIR_ENV = "SUPERTOWER_OUT"

ALL_SUITES = [
    "axioms", "frobenius", "bialgebra", "pairing", "adjunction",
    "psi", "S2", "weyl", "fock", "faithfulness",
]

# one-line statements of what each suite verifies, printed in text reports
SUITE_NOTES = {
    "axioms": "tower axioms: ground level, external products, two-sided freeness, perfect pairing, shift arithmetic",
    "frobenius": "trace forms: gram invertibility, nakayama closed forms, dual bimodule identification",
    "bialgebra": "coproduct is multiplicative up to the twist, on both class modules",
    "pairing": "pairing intertwines products and coproducts up to the twist",
    "adjunction": "pairing against induced products equals twisted pairing of restricted coproducts",
    "psi": "conjugating the coproduct by the level automorphisms fixes projective classes",
    "S2": "double-coset dimension identity, crossing commutation signs, coset partitions",
    "weyl": "lowering-raising commutation: element identity, operator identity, lowering rule",
    "fock": "smash associativity, vacuum module law, product rule of the regular action",
    "faithfulness": "bounded monomials act independently on the doubled vacuum window",
}


class RunConfig(Record):
    def __init__(self, descriptor: dict, suites: list[str], n_max: int | None = None,
                 fmt: str = "text", out: str | None = None, general_shift: bool = False):
        self.descriptor = descriptor
        self.suites = suites
        self.n_max = n_max
        self.fmt = fmt
        self.out = out
        self.general_shift = general_shift


class Report(Record):
    """The check records, sorted within each suite, and the seconds the build
    and each suite took, in run order."""

    def __init__(self, records: list[CheckRecord] | None = None):
        self.records = [] if records is None else records
        self.elapsed: dict[str, float] = {}

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.passed)


def load_spec(source: str) -> dict:
    """Parse a tower descriptor from a file path or inline JSON."""
    text = source
    if not source.lstrip().startswith("{"):
        if not os.path.exists(source):
            raise ValidationError(f"descriptor file not found: {source}")
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"descriptor is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or len(data) != 1:
        raise ValidationError("descriptor must be an object with one of: nilcoxeter, wreath")
    kind = next(iter(data))
    if kind not in ("nilcoxeter", "wreath"):
        raise ValidationError(f"unknown tower kind {kind!r}")
    return data


BODY_FIELDS = {
    "nilcoxeter": ("n_max", "d", "eps", "frobenius_cap"),
    "wreath": ("base", "n_max"),
}


def _check_fields(what: str, data: dict, known) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(f"{what} has unknown field {unknown[0]!r}")


def _check_body(kind: str, body: dict) -> None:
    """Only known fields, integer fields integers and ``n_max`` at least one."""
    _check_fields(f"{kind} descriptor", body, BODY_FIELDS[kind])
    for key in ("n_max", "d", "eps", "frobenius_cap"):
        if key in body and type(body[key]) is not int:  # bool is no integer here
            raise ValidationError(f"{kind} field {key!r} must be an integer")
    if "base" in body and not isinstance(body["base"], str):
        raise ValidationError(f"{kind} field 'base' must be a string")
    if body["n_max"] < 1:
        raise ValidationError(f"{kind} field 'n_max' must be at least 1")


def build_tower(cfg: RunConfig) -> TowerSpec:
    data = dict(cfg.descriptor)
    kind = next(iter(data))
    if not isinstance(data[kind], dict):
        raise ValidationError(f"{kind} descriptor must be an object")
    body = dict(data[kind])
    if cfg.n_max is not None:
        body["n_max"] = cfg.n_max
    if kind == "nilcoxeter":
        for key in ("n_max", "d", "eps"):
            if key not in body:
                raise ValidationError(f"nilcoxeter descriptor missing field {key!r}")
        _check_body(kind, body)
        cap = body.get("frobenius_cap", FROBENIUS_CAP)
        return build_nilcoxeter_tower(body["n_max"], body["d"], body["eps"], frobenius_cap=cap)
    if "n_max" not in body or "base" not in body:
        raise ValidationError("wreath descriptor needs fields base and n_max")
    _check_body(kind, body)
    base = body["base"]
    if base == "clifford":
        base_frob = clifford_base()
    else:
        if not os.path.exists(base):
            raise ValidationError(f"base algebra file not found: {base}")
        base_frob = _load_base(base)
    return build_wreath_tower(base_frob, body["n_max"])


def _load_base(path: str) -> FrobeniusStructure:
    """A Frobenius base algebra from a file written like ``build --dump`` output."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"base algebra file is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("base algebra file must be an object")
    for key in ("algebra", "frobenius"):
        if not isinstance(spec.get(key), dict):
            raise ValidationError(f"base algebra file needs an object {key!r}")
    _check_fields("base algebra file", spec, ("algebra", "frobenius", "name"))
    _check_fields("base algebra", spec["algebra"], ("labels", "degrees", "unit", "structure", "generators"))
    _check_fields("base frobenius data", spec["frobenius"], ("trace", "delta", "sigma"))
    if not isinstance(spec.get("name", ""), str):
        raise ValidationError("base algebra file field 'name' must be a string")
    fr = spec["frobenius"]
    for key in ("trace", "delta", "sigma"):
        if key not in fr:
            raise ValidationError(f"base frobenius data missing field {key!r}")
    try:
        alg = algebra_from_dict(spec["algebra"], name=spec.get("name", "base"))
        trace = {i: c for i, p in enumerate(fr["trace"]) if (c := read_rational(p, f"trace entry {i}"))}
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed base algebra file: {type(exc).__name__}: {exc}") from exc
    for key in ("delta", "sigma"):
        if type(fr[key]) is not int:  # not bool, float or a string of digits
            raise ValidationError(f"base frobenius field {key!r} must be an integer")
    if len(fr["trace"]) != alg.dim:
        raise ValidationError("base frobenius trace and algebra disagree in length")
    report = validate_algebra(alg)
    if not report.ok:
        kind, idx = report.violations[0]
        raise ValidationError(f"base algebra invalid: {kind} at {idx}")
    if unit_basis_index(alg) is None:
        raise ValidationError(SPLIT_UNIT_ERROR)
    return check_frobenius(alg, trace, fr["delta"], fr["sigma"])


# -- suites ---------------------------------------------------------------------


def _suite_axioms(tower: TowerSpec, layer, cfg: RunConfig) -> list[CheckRecord]:
    return check_tower_axioms(tower)


def _suite_frobenius(tower: TowerSpec, layer, cfg: RunConfig) -> list[CheckRecord]:
    records = []
    for lv in range(tower.n_max + 1):
        if tower.frobenius[lv] is None:
            continue
        records.append(check_nakayama_closed_form(tower, lv))
        if tower.level(lv).dim <= 64:
            rep = check_dual_iso(tower.frobenius[lv])
            records.append(CheckRecord(
                "dual-bimodule-identification", (lv,), rep.ok,
                detail="" if rep.ok else str(rep.violations[:3]),
            ))
    return records


def _grothendieck_bound(tower: TowerSpec) -> int:
    bound = 0
    while bound < tower.n_max and tower.has_declared(bound + 1):
        bound += 1
    return bound


def _suite_bialgebra(tower, layer, cfg) -> list[CheckRecord]:
    bound = _grothendieck_bound(tower)
    out = check_twisted_bialgebra(layer, G_SIDE, bound)
    out += check_twisted_bialgebra(layer, K_SIDE, bound)
    if tower.kind == "nilcoxeter":
        # the equivalent presentation with the twist on the first slot
        out += check_twisted_bialgebra(layer, G_SIDE, bound, chi=(tower.kappa, 0))
        out += check_twisted_bialgebra(layer, K_SIDE, bound, chi=(-tower.kappa, 0))
    return out


def _suite_pairing(tower, layer, cfg) -> list[CheckRecord]:
    return check_hopf_pairing(layer, _grothendieck_bound(tower))


def _suite_adjunction(tower, layer, cfg) -> list[CheckRecord]:
    return check_adjunction_kappa(layer, _grothendieck_bound(tower))


def _suite_psi(tower, layer, cfg) -> list[CheckRecord]:
    bound = _grothendieck_bound(tower)
    while bound and tower.frobenius[bound] is None:
        bound -= 1
    return check_psi_invariance(layer, bound)


def _suite_S2(tower, layer, cfg) -> list[CheckRecord]:
    records = []
    for total in range(2, tower.n_max + 1):
        for n in range(total + 1):
            m = total - n
            for k in range(total + 1):
                l = total - k
                records += check_S2_dimensions(tower, n, m, k, l)
                if 1 <= n < total and 1 <= k < total:
                    for r in range(max(0, n - l), min(n, k) + 1):
                        records += check_wr_commutation(tower, n, m, k, l, r)
        if total <= 5:
            records += check_double_coset_sizes(tower, max(1, total - 1), total - max(1, total - 1),
                                                max(1, total - 1), total - max(1, total - 1))
    return records


def _suite_weyl(tower, layer, cfg) -> list[CheckRecord]:
    if tower.kind != "nilcoxeter":
        return [CheckRecord("weyl-suite", (), True, detail="skipped: not a nilcoxeter tower")]
    double = HeisenbergDouble(layer)
    return weyl_check(double, _grothendieck_bound(tower))


def _suite_fock(tower, layer, cfg) -> list[CheckRecord]:
    if tower.kind != "nilcoxeter":
        return [CheckRecord("fock-suite", (), True, detail="skipped: not a nilcoxeter tower")]
    double = HeisenbergDouble(layer)
    bound = min(_grothendieck_bound(tower), 5)
    out = check_action_compat(double, bound)
    out += check_general_relation(double, min(bound, 4))
    if (tower.twist.d, tower.twist.eps) == (1, 0) and tower.n_max >= 2:
        out += categorified_weyl_shadow(tower, min(tower.n_max - 1, 5))
    elif cfg.general_shift and tower.n_max >= 2:
        out += categorified_weyl_shadow(tower, min(tower.n_max - 1, 5), general_shift=True)
    return out


def _suite_faithfulness(tower, layer, cfg) -> list[CheckRecord]:
    if tower.kind != "nilcoxeter":
        return [CheckRecord("faithfulness-suite", (), True, detail="skipped: not a nilcoxeter tower")]
    double = HeisenbergDouble(layer)
    bound = min(3, tower.n_max // 2)
    return check_faithfulness_truncated(double, bound)


SUITE_RUNNERS = {
    "axioms": _suite_axioms,
    "frobenius": _suite_frobenius,
    "bialgebra": _suite_bialgebra,
    "pairing": _suite_pairing,
    "adjunction": _suite_adjunction,
    "psi": _suite_psi,
    "S2": _suite_S2,
    "weyl": _suite_weyl,
    "fock": _suite_fock,
    "faithfulness": _suite_faithfulness,
}


def run_suites(cfg: RunConfig) -> Report:
    """Execute the selected suites; record merging is deterministic."""
    if not cfg.suites:
        raise ValidationError("no suites selected")
    for s in cfg.suites:
        if s not in SUITE_RUNNERS:
            raise ValidationError(f"unknown suite {s!r}")
    report = Report()
    t0 = time.monotonic()
    tower = build_tower(cfg)
    report.elapsed["build"] = time.monotonic() - t0
    layer = GrothLayer(tower)
    for name in cfg.suites:
        t0 = time.monotonic()
        recs = SUITE_RUNNERS[name](tower, layer, cfg)
        report.elapsed[name] = time.monotonic() - t0
        for r in recs:
            r.check = f"{name}:{r.check}"
        recs.sort(key=lambda r: (r.check, repr(r.indices)))
        report.records.extend(recs)
    return report


def emit_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "records": [r.to_dict() for r in report.records],
            "summary": {"pass": report.passed, "fail": report.failed,
                        "total": len(report.records)},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []
    width = max([len(r.check) for r in report.records] or [20])
    current_suite = None
    for r in report.records:
        suite = r.check.split(":", 1)[0]
        if suite != current_suite:
            current_suite = suite
            note = SUITE_NOTES.get(suite, "")
            lines.append(f"== {suite}: {note}")
        status = "pass" if r.passed else "FAIL"
        line = f"  [{status}] {r.check:<{width}} {r.indices}"
        if not r.passed:
            if r.lhs or r.rhs:
                line += f"  lhs={r.lhs} rhs={r.rhs}"
            if r.detail:
                line += f"  ({r.detail})"
        lines.append(line)
    lines.append("")
    for name, dt in report.elapsed.items():
        lines.append(f"-- {name}: {dt:.2f}s")
    lines.append(f"summary: {report.passed} passed, {report.failed} failed, "
                 f"{len(report.records)} total")
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    path = out if (os.path.isabs(out) or base is None) else os.path.join(base, out)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="supertower",
                                     description="verify graded-superalgebra tower identities")
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser("verify", help="run verification suites on a tower")
    p_verify.add_argument("descriptor", help="descriptor file or inline JSON")
    p_verify.add_argument("--suites", action="append", default=None,
                          help="comma-separated suite names (repeatable); default: all")
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="accepted and ignored; suites run in one thread")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--general-shift", action="store_true",
                          help="also run the extrapolated general-twist shadow")

    p_weyl = sub.add_parser("weyl", help="run the lowering-raising commutation suite")
    p_weyl.add_argument("--d", type=int, required=True)
    p_weyl.add_argument("--eps", type=int, required=True)
    p_weyl.add_argument("--n-max", type=int, default=8)
    p_weyl.add_argument("--format", choices=("text", "json"), default="text")
    p_weyl.add_argument("--out", default=None)

    p_build = sub.add_parser("build", help="build a tower and dump its algebra files")
    p_build.add_argument("descriptor")
    p_build.add_argument("--dump", action="store_true")
    p_build.add_argument("--n-max", type=int, default=None)
    p_build.add_argument("--out", default=None, help="output directory for dumps")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage()
        return USAGE_ERROR

    try:
        if args.command == "verify":
            suites = []
            if args.suites:
                for chunk in args.suites:
                    suites.extend(s for s in chunk.split(",") if s)
            else:
                suites = list(ALL_SUITES)
            cfg = RunConfig(
                descriptor=load_spec(args.descriptor),
                suites=suites,
                n_max=args.n_max,
                fmt=args.format,
                out=args.out,
                general_shift=args.general_shift,
            )
            report = run_suites(cfg)
            _write_output(emit_report(report, cfg.fmt), cfg.out)
            return 0 if report.failed == 0 else 1
        if args.command == "weyl":
            cfg = RunConfig(
                descriptor={"nilcoxeter": {"n_max": args.n_max, "d": args.d, "eps": args.eps,
                                           "frobenius_cap": 0}},
                suites=["weyl"],
                fmt=args.format,
                out=args.out,
            )
            report = run_suites(cfg)
            _write_output(emit_report(report, cfg.fmt), cfg.out)
            return 0 if report.failed == 0 else 1
        # build
        cfg = RunConfig(descriptor=load_spec(args.descriptor), suites=["axioms"],
                        n_max=args.n_max)
        tower = build_tower(cfg)
        if args.dump:
            outdir = args.out or os.environ.get(OUTPUT_DIR_ENV, ".")
            os.makedirs(outdir, exist_ok=True)
            for lv in range(tower.n_max + 1):
                data = algebra_to_dict(tower.level(lv))
                fr = tower.frobenius[lv]
                if fr is not None:
                    trace = [[0, 1]] * tower.level(lv).dim
                    for i, c in fr.trace.items():
                        trace[i] = [c.numerator, c.denominator]
                    data = {"algebra": data,
                            "frobenius": {"trace": trace, "delta": fr.delta, "sigma": fr.sigma}}
                path = os.path.join(outdir, f"level{lv}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            sys.stdout.write(f"dumped {tower.n_max + 1} levels to {outdir}\n")
        else:
            sys.stdout.write(f"built {tower.name}\n")
        return 0
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 2
    except (SupertowerError, OSError) as exc:  # bad input, or an unusable path
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:  # a broken guarantee, not bad input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
