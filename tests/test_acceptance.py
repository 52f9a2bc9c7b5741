"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every expected value is exact; tolerances are equality in the coefficient
ring.  Criterion 9 note: the simple-side coproduct is asserted literally;
the projective-side coefficients are asserted in both available readings,
namely the positive summand-multiplicity series read off the restriction
(equal to the twisted binomial) and the class-level coefficient (its bar,
forced by the projective-side grading convention that keeps the pairing
bilinear).
"""

import json
import time

from supertower.frobenius import check_dual_iso, frobenius_tensor, tensor_nakayama_matrix
from supertower.ground import (
    COLLAPSED,
    GroundElem,
    TwistScalar,
    bar_involution,
    divide_by_int,
    qpi_binomial,
    qpi_factorial,
)
from supertower.grothendieck import (
    G_SIDE,
    K_SIDE,
    GrothLayer,
    check_adjunction_kappa,
    check_hopf_pairing,
    check_twisted_bialgebra,
)
from supertower.heisenberg import (
    HeisenbergDouble,
    categorified_weyl_shadow,
    check_action_compat,
    check_faithfulness_truncated,
    weyl_check,
)
from supertower.reporting import all_passed
from supertower.superalgebra import graded_dim, hom_graded_dim, regular_module, validate_algebra
from supertower.towers import (
    build_nilcoxeter,
    build_nilcoxeter_tower,
    check_S2_dimensions,
    check_wr_commutation,
    clifford_base,
    nilcoxeter_frobenius,
    nilcoxeter_nakayama_closed_form,
    perm_length,
    wreath_nakayama_closed_form,
)

PAIRS = [(1, 0), (1, 1), (2, 1)]


def _report(criterion: str, ok: bool, t0: float, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"criterion {criterion}: {state} ({time.monotonic() - t0:.1f}s){extra}")
    assert ok, f"criterion {criterion} failed"


def poincare_oracle(n: int, d: int, eps: int) -> GroundElem:
    """Independent oracle: the length generating function over permutations."""
    import itertools
    terms = {}
    for p in itertools.permutations(range(n)):
        ell = perm_length(p)
        key = (d * ell, (eps * ell) & 1)
        terms[key] = terms.get(key, 0) + 1
    return GroundElem(terms)


def test_criterion_01_graded_dimension_law():
    t0 = time.monotonic()
    ok = True
    for (d, eps) in PAIRS:
        for n in range(1, 7):
            alg, _ = build_nilcoxeter(n, d, eps)
            got = graded_dim(regular_module(alg))
            ok = ok and got == qpi_factorial(n, TwistScalar(d, eps))
            if n <= 5:
                ok = ok and got == poincare_oracle(n, d, eps)
    _report("1 (graded dimension law)", ok, t0)


def test_criterion_02_cocycle_coherence():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 6):
        alg, _ = build_nilcoxeter(n, 1, 1)
        rep = validate_algebra(alg)
        ok = ok and rep.ok
    _report("2 (cocycle coherence / associativity audit)", ok, t0)


def test_criterion_03_frobenius_suite(sergeev3):
    t0 = time.monotonic()
    ok = True
    for n in range(1, 6):
        alg, basis = build_nilcoxeter(n, 1, 1)
        frob = nilcoxeter_frobenius(alg, basis)  # gram invertibility + invariance
        ok = ok and frob.nakayama == nilcoxeter_nakayama_closed_form(alg, basis)
    for n in range(1, 4):
        frob = sergeev3.frobenius[n]
        ok = ok and frob.nakayama == wreath_nakayama_closed_form(
            sergeev3.base_frob, sergeev3.bases[n])
    _report("3 (frobenius suite with nakayama closed forms)", ok, t0)


def test_criterion_04_tensor_frobenius():
    t0 = time.monotonic()
    a2, b2 = build_nilcoxeter(2, 1, 1)
    a3, b3 = build_nilcoxeter(3, 1, 1)
    f2, f3 = nilcoxeter_frobenius(a2, b2), nilcoxeter_frobenius(a3, b3)
    ok = frobenius_tensor(f2, f3).nakayama == tensor_nakayama_matrix(f2, f3)
    cl = clifford_base()
    ok = ok and frobenius_tensor(cl, cl).nakayama == tensor_nakayama_matrix(cl, cl)
    _report("4 (tensor-frobenius nakayama)", ok, t0)


def test_criterion_05_dual_bimodule(sergeev3):
    t0 = time.monotonic()
    ok = True
    for n in range(1, 5):
        alg, basis = build_nilcoxeter(n, 1, 1)
        ok = ok and check_dual_iso(nilcoxeter_frobenius(alg, basis)).ok
    for n in (1, 2):
        ok = ok and check_dual_iso(sergeev3.frobenius[n]).ok
    _report("5 (dual bimodule identification)", ok, t0)


def test_criterion_06_hopf_pairing_and_bialgebra(layer6_11):
    t0 = time.monotonic()
    recs = check_hopf_pairing(layer6_11, 6)           # gamma = (0, nm), c = q pi
    recs += check_twisted_bialgebra(layer6_11, G_SIDE, 6)
    recs += check_twisted_bialgebra(layer6_11, K_SIDE, 6)
    recs += check_twisted_bialgebra(layer6_11, G_SIDE, 6, chi=(1, 0))
    recs += check_twisted_bialgebra(layer6_11, K_SIDE, 6, chi=(-1, 0))
    _report("6 (hopf pairing axioms and twisted bialgebra)", all_passed(recs), t0,
            f"{len(recs)} identities")


def test_criterion_07_adjunction_shadow(layer6_11):
    t0 = time.monotonic()
    recs = check_adjunction_kappa(layer6_11, 6)
    _report("7 (adjunction with twist power)", all_passed(recs), t0,
            f"{len(recs)} triples")


def test_criterion_08_S2_identity(nc6_11, sergeev3):
    t0 = time.monotonic()
    recs = []
    for total in range(2, 6):
        for n in range(total + 1):
            for k in range(total + 1):
                m, l = total - n, total - k
                recs += check_S2_dimensions(nc6_11, n, m, k, l)
                if 1 <= n < total and 1 <= k < total:
                    for r in range(max(0, n - l), min(n, k) + 1):
                        recs += check_wr_commutation(nc6_11, n, m, k, l, r)
    for total in (2, 3):
        for n in range(total + 1):
            for k in range(total + 1):
                m, l = total - n, total - k
                recs += check_S2_dimensions(sergeev3, n, m, k, l)
                if 1 <= n < total and 1 <= k < total:
                    for r in range(max(0, n - l), min(n, k) + 1):
                        recs += check_wr_commutation(sergeev3, n, m, k, l, r)
    _report("8 (bimodule dimension identity and crossing signs)", all_passed(recs), t0,
            f"{len(recs)} identities")


def test_criterion_09_coproduct_coefficients(layer6_10):
    t0 = time.monotonic()
    c = TwistScalar(1, 0)
    ok = True
    for n in range(7):
        got = layer6_10.basis_delta(G_SIDE, (n, 0))
        expected = {((k, 0), (n - k, 0)): layer6_10.one() for k in range(n + 1)}
        ok = ok and got == expected
    for n in range(7):
        for k in range(n + 1):
            # positive multiplicity series recovered from the explicit restriction
            mult = layer6_10.restriction_multiplicity_genfn(n, k)
            ok = ok and mult == qpi_binomial(n, k, c)
            # class-level coefficient: the bar, per the projective-side convention
            coeff = layer6_10.basis_delta(K_SIDE, (n, 0))[((k, 0), (n - k, 0))]
            ok = ok and coeff == bar_involution(qpi_binomial(n, k, c))
    _report("9 (coproduct coefficients from explicit restrictions)", ok, t0)


def test_criterion_10_quantum_weyl():
    t0 = time.monotonic()
    ok = True
    for (d, eps) in PAIRS + [(0, 0)]:
        tower = build_nilcoxeter_tower(8, d, eps, frobenius_cap=0)
        dbl = HeisenbergDouble(GrothLayer(tower))
        recs = weyl_check(dbl, 8)  # element identity, operators to degree 8,
        ok = ok and all_passed(recs)  # lowering rule [n] for n <= 8
    _report("10 (quantum weyl relation, four twists)", ok, t0)


def test_criterion_11_fock_module_law(layer6_11):
    t0 = time.monotonic()
    dbl = HeisenbergDouble(layer6_11)
    recs = check_action_compat(dbl, 5)
    recs += check_faithfulness_truncated(dbl, 3)
    _report("11 (fock module law, smash associativity, faithfulness)",
            all_passed(recs), t0)


def test_criterion_12_categorified_weyl_shadow(nc6_10):
    t0 = time.monotonic()
    recs = categorified_weyl_shadow(nc6_10, 5)
    _report("12 (categorified weyl shadow)", all_passed(recs), t0,
            f"{len(recs)} modules")


def test_criterion_13_type_q_pairing(sergeev3, sergeev_layer):
    t0 = time.monotonic()
    p1 = sergeev3.declared_projectives(1)[0].module
    v1 = sergeev3.declared_simples(1)[0].module
    full = hom_graded_dim(p1, v1)
    ok = full == GroundElem.one() + GroundElem.monomial(0, 1)
    collapsed = sergeev_layer.norm(1, 0)
    ok = ok and collapsed == GroundElem.from_int(2, COLLAPSED)
    ok = ok and divide_by_int(collapsed, 2) == GroundElem.one(COLLAPSED)
    one_vec = sergeev_layer.class_in_G(regular_module(sergeev3.level(1)), 1)
    ok = ok and one_vec.entries[(1, 0)] == GroundElem.one(COLLAPSED)
    _report("13 (type-Q pairing and collapsed division)", ok, t0)


def test_criterion_14_determinism(tmp_path):
    t0 = time.monotonic()
    from supertower.cli import main
    desc = '{"nilcoxeter": {"n_max": 3, "d": 1, "eps": 1}}'
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["verify", desc, "--jobs", "1", "--format", "json", "--out", str(out1)])
    code2 = main(["verify", desc, "--jobs", "4", "--format", "json", "--out", str(out2)])
    ok = code1 == 0 and code2 == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    ok = ok and b1 == b2
    payload = json.loads(b1)
    ok = ok and payload["summary"]["fail"] == 0
    _report("14 (byte-identical reports across parallelism)", ok, t0,
            f"{payload['summary']['total']} records")
