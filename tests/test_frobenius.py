"""Trace forms, Gram matrices, Nakayama maps, tensor structures, dual identification."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from supertower.cli import RunConfig, _suite_frobenius, build_tower
from supertower.errors import CocycleError, InternalInconsistencyError, ValidationError
from supertower.frobenius import (
    FrobeniusStructure,
    check_dual_iso,
    check_frobenius,
    frobenius_tensor,
    tensor_nakayama_matrix,
)
from supertower.linalg import Mat, solve
from supertower.superalgebra import (
    AlgebraHom,
    Degree,
    algebra_from_dict,
    algebra_to_dict,
    read_rational,
    validate_algebra,
    validate_automorphism,
)
from supertower.towers import (
    SignedPermBasis,
    WreathBasis,
    apply_s,
    build_nilcoxeter,
    build_wreath,
    check_nakayama_closed_form,
    clifford_base,
    identity_perm,
    longest_element,
    nilcoxeter_frobenius,
    nilcoxeter_nakayama_closed_form,
    wreath_nakayama_closed_form,
)

from support import EXTERIOR_BASE, Z3_BASE, all_perms, check_form_invariance, entry


@pytest.fixture(scope="module")
def clifford():
    return clifford_base()


class TestCheckFrobenius:
    @pytest.mark.parametrize("n,d,eps", [(2, 1, 1), (3, 1, 1), (4, 1, 0), (5, 2, 1)])
    def test_nilcoxeter_longest_trace(self, n, d, eps):
        alg, basis = build_nilcoxeter(n, d, eps)
        frob = nilcoxeter_frobenius(alg, basis)
        ell = comb(n, 2)
        assert (frob.delta, frob.sigma) == (d * ell, (eps * ell) & 1)

    def test_group_algebra_trace(self):
        # the wreath over the one-dimensional trivial base is the plain group algebra
        from supertower.superalgebra import Degree, SuperAlgebra
        triv = SuperAlgebra(["1"], [Degree(0, 0)], {0: Fraction(1)},
                            products={(0, 0): {0: Fraction(1)}}, generators=[])
        base = check_frobenius(triv, {0: Fraction(1)}, 0, 0)
        alg, frob = build_wreath(base, WreathBasis(base.algebra, 3))
        assert alg.dim == 6
        assert (frob.delta, frob.sigma) == (0, 0)

    def test_trace_on_identity_fails(self):
        # graded (supported in bidegree (0,0)) but the Gram matrix is singular
        alg, _ = build_nilcoxeter(2, 1, 0)
        unit_idx = next(iter(alg.unit))
        with pytest.raises(ValidationError, match="not Frobenius"):
            check_frobenius(alg, {unit_idx: Fraction(1)}, 0, 0)

    def test_off_degree_trace_rejected(self):
        alg, basis = build_nilcoxeter(2, 1, 0)
        w0 = basis.index[(1, 0)]
        with pytest.raises(ValidationError, match="trace not graded"):
            check_frobenius(alg, {w0: Fraction(1)}, 0, 0)

    def test_degenerate_trace_fails(self):
        # trace supported on a non-top homogeneous element: graded but singular
        alg, basis = build_nilcoxeter(3, 1, 0)
        from supertower.towers import apply_s, identity_perm
        s1 = basis.index[apply_s(identity_perm(3), 0)]
        with pytest.raises(ValidationError, match="not Frobenius"):
            check_frobenius(alg, {s1: Fraction(1)}, 1, 0)


class TestNakayama:
    def test_symmetric_even_case_is_identity(self):
        from supertower.superalgebra import Degree, SuperAlgebra
        # the even group algebra of Z/2: symmetric form, identity automorphism
        alg = SuperAlgebra(["1", "g"], [Degree(0, 0), Degree(0, 0)],
                           {0: Fraction(1)},
                           products={(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
                                     (1, 0): {1: Fraction(1)}, (1, 1): {0: Fraction(1)}})
        frob = check_frobenius(alg, {0: Fraction(1)}, 0, 0)
        assert frob.nakayama == Mat.identity(2)

    def test_clifford_identity(self, clifford):
        assert clifford.nakayama == Mat.identity(2)

    @pytest.mark.parametrize("n,d,eps", [(2, 1, 1), (3, 1, 1), (4, 1, 1), (4, 2, 1)])
    def test_nilcoxeter_reversal(self, n, d, eps):
        alg, basis = build_nilcoxeter(n, d, eps)
        frob = nilcoxeter_frobenius(alg, basis)
        assert frob.nakayama == nilcoxeter_nakayama_closed_form(alg, basis)

    def test_defining_identity(self, clifford):
        alg, basis = build_nilcoxeter(3, 1, 1)
        frob = nilcoxeter_frobenius(alg, basis)
        for a in range(alg.dim):
            pa = alg.degrees[a].par
            for b in range(alg.dim):
                sign = -1 if (pa and alg.degrees[b].par) else 1
                lhs = entry(frob.gram, a, b)
                rhs = sign * sum(c * entry(frob.gram, b, t) for t, c in frob.nakayama.col(a).items())
                assert lhs == rhs


@pytest.mark.parametrize("desc", [
    {"nilcoxeter": {"n_max": 1, "d": 1, "eps": 1}},
    {"nilcoxeter": {"n_max": 1, "d": 3, "eps": 0}},
    {"wreath": {"base": "clifford", "n_max": 1}},
], ids=["nilcoxeter-11", "nilcoxeter-30", "clifford-wreath"])
def test_level_zero_closed_form_is_the_identity(desc):
    # the closed forms need no level-0 special case: both give the 1 x 1 identity
    tower = build_tower(RunConfig(descriptor=desc, suites=["frobenius"]))
    if tower.kind == "nilcoxeter":
        closed = nilcoxeter_nakayama_closed_form(tower.level(0), tower.bases[0])
    else:
        closed = wreath_nakayama_closed_form(tower.base_frob, tower.bases[0])
    assert closed == Mat.identity(1) == tower.frobenius[0].nakayama
    assert check_nakayama_closed_form(tower, 0).passed


class TestWreathNakayama:
    def test_even_commutative_base_fixes_transposition(self):
        from supertower.superalgebra import Degree, SuperAlgebra
        triv = SuperAlgebra(["1"], [Degree(0, 0)], {0: Fraction(1)},
                            products={(0, 0): {0: Fraction(1)}}, generators=[])
        base = check_frobenius(triv, {0: Fraction(1)}, 0, 0)
        alg, frob = build_wreath(base, WreathBasis(base.algebra, 2))
        # sigma = 0 and the reversal fixes the single transposition
        assert frob.nakayama == wreath_nakayama_closed_form(base, WreathBasis(base.algebra, 2))
        assert frob.nakayama == Mat.identity(alg.dim)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_clifford_base_matches_closed_form(self, clifford, n):
        alg, frob = build_wreath(clifford, WreathBasis(clifford.algebra, n))
        assert frob.nakayama == wreath_nakayama_closed_form(clifford, WreathBasis(clifford.algebra, n))

    def test_transposition_sign(self, clifford):
        # with an odd trace degree the transposition picks up the sign
        alg, frob = build_wreath(clifford, WreathBasis(clifford.algebra, 2))
        perms = all_perms(2)
        s1_idx = 0 * len(perms) + perms.index((1, 0))
        got = frob.nakayama.col(s1_idx)
        assert got == {s1_idx: Fraction(-1)}

    def test_tensor_reversal_sign(self, clifford):
        # psi(c (x) c) = -(c (x) c): two odd factors reversed
        alg, frob = build_wreath(clifford, WreathBasis(clifford.algebra, 2))
        perms = all_perms(2)
        cc_idx = (1 * 2 + 1) * len(perms) + perms.index((0, 1))
        assert frob.nakayama.col(cc_idx) == {cc_idx: Fraction(-1)}


class TestFrobeniusTensor:
    def test_unit_factor(self, clifford):
        from supertower.superalgebra import Degree, SuperAlgebra
        triv = SuperAlgebra(["1"], [Degree(0, 0)], {0: Fraction(1)},
                            products={(0, 0): {0: Fraction(1)}}, generators=[])
        triv_frob = check_frobenius(triv, {0: Fraction(1)}, 0, 0)
        combined = frobenius_tensor(clifford, triv_frob)
        assert (combined.delta, combined.sigma) == (clifford.delta, clifford.sigma)
        assert combined.nakayama == tensor_nakayama_matrix(clifford, triv_frob)

    def test_degrees_add(self):
        a2, b2 = build_nilcoxeter(2, 1, 1)
        a3, b3 = build_nilcoxeter(3, 1, 1)
        f2 = nilcoxeter_frobenius(a2, b2)
        f3 = nilcoxeter_frobenius(a3, b3)
        combined = frobenius_tensor(f2, f3)
        assert combined.delta == f2.delta + f3.delta
        assert combined.sigma == (f2.sigma + f3.sigma) & 1

    def test_nakayama_is_signed_tensor(self, clifford):
        a2, b2 = build_nilcoxeter(2, 1, 1)
        a3, b3 = build_nilcoxeter(3, 1, 1)
        f2 = nilcoxeter_frobenius(a2, b2)
        f3 = nilcoxeter_frobenius(a3, b3)
        assert frobenius_tensor(f2, f3).nakayama == tensor_nakayama_matrix(f2, f3)
        assert frobenius_tensor(clifford, clifford).nakayama == \
            tensor_nakayama_matrix(clifford, clifford)


class TestDualIso:
    def test_builtins_pass(self, clifford):
        assert check_dual_iso(clifford).ok
        for n in (2, 3):
            alg, basis = build_nilcoxeter(n, 1, 1)
            assert check_dual_iso(nilcoxeter_frobenius(alg, basis)).ok

    def test_one_dimensional(self):
        from supertower.superalgebra import Degree, SuperAlgebra
        triv = SuperAlgebra(["1"], [Degree(0, 0)], {0: Fraction(1)},
                            products={(0, 0): {0: Fraction(1)}}, generators=[])
        assert check_dual_iso(check_frobenius(triv, {0: Fraction(1)}, 0, 0)).ok

    def test_identity_replacement_fails(self):
        alg, basis = build_nilcoxeter(3, 1, 0)
        frob = nilcoxeter_frobenius(alg, basis)
        tampered = FrobeniusStructure(frob.algebra, frob.trace, frob.delta, frob.sigma,
                                      frob.gram, Mat.identity(alg.dim))
        rep = check_dual_iso(tampered)
        assert not rep.ok
        assert any(kind == "nakayama compatibility" for kind, _ in rep.violations)

    @pytest.mark.parametrize("family,n", [("sergeev", 1), ("nilcoxeter", 3), ("sergeev", 2)])
    def test_off_degree_gram_entry_fails_degree_zero(self, family, n):
        # one Gram entry planted where the form cannot land: phi(e_j) is then
        # nonzero on e_i outside the shifted dual's degree
        rng = random.Random(f"degree-zero{family}{n}")
        for _ in range(3):
            frob = _fresh_structure(family, n)
            alg, target = frob.algebra, Degree(frob.delta, frob.sigma)
            i, j = rng.choice([(i, j) for i in range(alg.dim) for j in range(alg.dim)
                               if alg.degrees[i] + alg.degrees[j] != target])
            gram = Mat(frob.gram.nrows, frob.gram.ncols, frob.gram.cols)
            gram.add_entry(i, j, Fraction(rng.choice([-1, 1, 2])))
            tampered = FrobeniusStructure(alg, frob.trace, frob.delta, frob.sigma,
                                          gram, frob.nakayama)
            rep = check_dual_iso(tampered)
            violations = rep.violations
            assert [v for v in violations if v[0] == "degree zero"] == [("degree zero", (j, i))]
            assert violations[0] == ("degree zero", (j, i))
            oracle = dense_dual_iso(tampered)
            assert rep.ok == (oracle == [])
            assert violations == leading_dual_iso(tampered, oracle)

    def test_odd_length_columns_negated_fail_both_records(self):
        # psi with the columns of odd-length w negated is still an automorphism,
        # but neither the closed form nor the twisted right action accepts it
        cfg = RunConfig(descriptor={"nilcoxeter": {"n_max": 4, "d": 1, "eps": 1}},
                        suites=["frobenius"])
        tower = build_tower(cfg)
        frob, basis = tower.frobenius[3], tower.bases[3]
        odd = {i for i, w in enumerate(basis.perms) if basis.lengths[w] & 1}
        psi = Mat(frob.nakayama.nrows, frob.nakayama.ncols,
                  {j: {i: -c for i, c in col.items()} if j in odd else col
                   for j, col in frob.nakayama.cols.items()})
        assert validate_automorphism(frob.algebra, psi).ok
        tower.frobenius[3] = FrobeniusStructure(frob.algebra, frob.trace, frob.delta, frob.sigma,
                                                frob.gram, psi)
        bad = [r for r in _suite_frobenius(tower, None, cfg) if not r.passed]
        assert [(r.check, r.indices) for r in bad] == [("nakayama-closed-form", (3,)),
                                                       ("dual-bimodule-identification", (3,))]
        # u_1 has odd length; the closed form sends it to u_2
        assert bad[0].detail == "first differing column 1: computed {2: -1}, closed form {2: 1}"
        violations = check_dual_iso(tower.frobenius[3]).violations
        assert violations[0] == ("nakayama compatibility", (0, 1, 3))
        assert violations[0] == dense_dual_iso(tower.frobenius[3])[0]

    @pytest.mark.parametrize("family,n", [("nilcoxeter", 3), ("nilcoxeter", 4), ("sergeev", 2)])
    def test_doubled_generator_column_fails(self, family, n):
        frob = _fresh_structure(family, n)
        alg = frob.algebra
        for g in alg.generating_set():
            psi = Mat(frob.nakayama.nrows, frob.nakayama.ncols, frob.nakayama.cols)
            psi.cols[g] = {i: 2 * c for i, c in psi.cols[g].items()}
            tampered = FrobeniusStructure(alg, frob.trace, frob.delta, frob.sigma, frob.gram, psi)
            rep = check_dual_iso(tampered)
            assert not rep.ok
            assert any(kind == "nakayama compatibility" and where[1] == g
                       for kind, where in rep.violations)
            assert rep.violations == leading_dual_iso(tampered, dense_dual_iso(tampered))

    @pytest.mark.parametrize("family,n", [("sergeev", 3), ("nilcoxeter", 5)])
    def test_work_is_leading_factors_times_dim(self, family, n):
        # pins work, not time: a return to all basis pairs reads dim^2 products
        frob = _fresh_structure(family, n)
        alg = frob.algebra
        reads = []
        product = alg.basis_product

        def counted(i, j):
            reads.append((i, j))
            return product(i, j)

        alg.basis_product = counted
        assert check_dual_iso(frob).ok
        assert 0 < len(reads) <= 6 * len(alg.leading_factors()) * alg.dim < alg.dim ** 2


# -- dense oracles for the row-sparse audits --------------------------------------


def dense_form_invariance(alg, gram):
    """The all-triples loop: ``(e_i e_j, e_k) == (e_i, e_j e_k)`` one triple at a time."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            pij = alg.basis_product(i, j)
            for k in range(alg.dim):
                lhs = sum((c * entry(gram, t, k) for t, c in pij.items()), Fraction(0))
                rhs = sum((c * entry(gram, i, t) for t, c in alg.basis_product(j, k).items()),
                          Fraction(0))
                if lhs != rhs:
                    raise ValidationError(f"form not invariant at triple ({i},{j},{k})")


def dense_dual_iso(frob):
    """The dense dual-bimodule audit, evaluating every functional at every basis element."""
    alg = frob.algebra
    dim = alg.dim
    bad = []

    def phi(bvec):
        out = {}
        for a in range(dim):
            pa = alg.degrees[a].par
            val = Fraction(0)
            for b, c in bvec.items():
                g = entry(frob.gram, a, b)
                if g:
                    val += -c * g if (pa and alg.degrees[b].par) else c * g
            if val:
                out[a] = val
        return out

    target = Degree(frob.delta, frob.sigma)
    for b in range(dim):
        for a in phi({b: Fraction(1)}):
            if alg.degrees[a] + alg.degrees[b] != target:
                bad.append(("degree zero", (b, a)))
    for c in range(dim):
        pc = alg.degrees[c].par
        for b in range(dim):
            lhs = phi(alg.basis_product(c, b))
            f = phi({b: Fraction(1)})
            rhs = {}
            for a in range(dim):
                val = sum((co * f.get(k, 0) for k, co in alg.basis_product(a, c).items()), Fraction(0))
                if val:
                    sign = -1 if (pc and ((alg.degrees[b].par + alg.degrees[a].par) & 1)) else 1
                    rhs[a] = sign * val
            if lhs != rhs:
                bad.append(("left module map", (c, b)))
    for b in range(dim):
        f = phi({b: Fraction(1)})
        for a in range(dim):
            twisted = phi(alg.product_vec({b: Fraction(1)}, frob.nakayama.col(a)))
            for x in range(dim):
                val = sum((co * f.get(k, 0) for k, co in alg.basis_product(a, x).items()), Fraction(0))
                if val != twisted.get(x, Fraction(0)):
                    bad.append(("nakayama compatibility", (b, a, x)))
    return bad


def psi_violations(frob):
    """What ``check_dual_iso`` adds after the identities: ``psi`` as an algebra map."""
    alg = frob.algebra
    psi = AlgebraHom(alg, alg, [frob.nakayama.col(j) for j in range(alg.dim)]).validate()
    return [(f"nakayama {kind}", where) for kind, where in psi.violations]


def leading_dual_iso(frob, oracle):
    """The all-pairs oracle's violations at leading factors, then ``psi``'s own."""
    leading = set(frob.algebra.leading_factors())
    kept = [(kind, where) for kind, where in oracle
            if kind == "degree zero"
            or (kind == "left module map" and where[0] in leading)
            or (kind == "nakayama compatibility" and where[1] in leading)]
    return kept + psi_violations(frob)


def _invariance_outcome(audit, alg, gram):
    try:
        audit(alg, gram)
    except ValidationError as exc:
        return str(exc)
    return None


def _fresh_structure(family, n):
    """A newly built algebra with its Frobenius structure, safe to corrupt in place."""
    if family == "nilcoxeter":
        alg, basis = build_nilcoxeter(n, 1, 1)
        return nilcoxeter_frobenius(alg, basis)
    cl = clifford_base()
    return build_wreath(cl, WreathBasis(cl.algebra, n))[1]


def _corrupt_entry(mat, rng):
    """A copy of ``mat`` with one stored entry shifted by a nonzero rational."""
    j = rng.choice(sorted(mat.cols))
    i = rng.choice(sorted(mat.cols[j]))
    out = Mat(mat.nrows, mat.ncols, mat.cols)
    out.add_entry(i, j, Fraction(rng.choice([-2, -1, 1, 3])))
    return out


def _corrupt_product(frob, rng):
    """``frob`` with one structure constant of ``e_i e_j`` shifted, and whether
    the shift was made in place in the signed table.

    A product left with at most one term is rewritten in the signed table of
    the built level; a second term needs the dict table, so that shift is
    made on a dict-table copy of the level, with the same form.
    """
    alg = frob.algebra
    alg.struct_consts()
    i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
    prod = dict(alg.basis_product(i, j))
    t = rng.randrange(alg.dim)
    prod[t] = prod.get(t, Fraction(0)) + rng.choice([-1, 1, 2])
    prod = {k: c for k, c in prod.items() if c}
    if len(prod) <= 1:
        alg._products[(i, j)] = next(((c, k) for k, c in prod.items()), None)
        return frob, True
    copy = algebra_from_dict(algebra_to_dict(alg), name=alg.name)
    copy._products[(i, j)] = prod
    return FrobeniusStructure(copy, frob.trace, frob.delta, frob.sigma, frob.gram, frob.nakayama), False


STRUCTURES = [("nilcoxeter", n) for n in (1, 2, 3, 4)] + [("sergeev", n) for n in (1, 2, 3)]
CORRUPTIONS = ["gram", "nakayama", "product"]


class TestSparseAuditsMatchDenseOracles:
    @pytest.mark.parametrize("family,n", STRUCTURES)
    def test_builtin_structures(self, family, n):
        frob = _fresh_structure(family, n)
        assert _invariance_outcome(check_form_invariance, frob.algebra, frob.gram) is None
        assert _invariance_outcome(dense_form_invariance, frob.algebra, frob.gram) is None
        assert check_dual_iso(frob).violations == dense_dual_iso(frob) == []

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @pytest.mark.parametrize("family,n", [("nilcoxeter", 3), ("nilcoxeter", 4), ("sergeev", 2)])
    def test_seeded_corruptions(self, family, n, kind):
        in_place = []
        for seed in range(6):
            rng = random.Random(f"{family}{n}{kind}{seed}")
            frob = _fresh_structure(family, n)
            if kind == "gram":
                frob = FrobeniusStructure(frob.algebra, frob.trace, frob.delta, frob.sigma,
                                          _corrupt_entry(frob.gram, rng), frob.nakayama)
            elif kind == "nakayama":
                frob = FrobeniusStructure(frob.algebra, frob.trace, frob.delta, frob.sigma,
                                          frob.gram, _corrupt_entry(frob.nakayama, rng))
            else:
                assert frob.algebra.signed
                frob, signed = _corrupt_product(frob, rng)
                in_place.append(signed)
            sparse = _invariance_outcome(check_form_invariance, frob.algebra, frob.gram)
            assert sparse == _invariance_outcome(dense_form_invariance, frob.algebra, frob.gram)
            # the invariance audit reads the form and the products, not the nakayama map
            assert (sparse is None) == (kind == "nakayama")
            rep, oracle = check_dual_iso(frob), dense_dual_iso(frob)
            if kind == "product":
                # a shifted structure constant can break the associativity the
                # leading-factor rule rests on; then validate_algebra says so
                assert not validate_algebra(frob.algebra).ok or rep.ok == (oracle == [])
                continue
            assert rep.ok == (oracle == []) and oracle
            assert rep.violations == leading_dual_iso(frob, oracle)
        if kind == "product" and family == "nilcoxeter":
            # these seeds shift both tables: the signed one in place, the dict one on a copy
            assert True in in_place and False in in_place

    @pytest.mark.parametrize("kind", ["none", "gram", "nakayama"])
    def test_generator_free_base_leads_with_every_element(self, kind):
        # no declared generators: every basis element is leading, so the
        # check is the all-pairs oracle, plus psi's own violations
        data = {k: v for k, v in EXTERIOR_BASE["algebra"].items() if k != "generators"}
        alg = algebra_from_dict(data, name="exterior")
        trace = {i: read_rational(p, "trace") for i, p in enumerate(EXTERIOR_BASE["frobenius"]["trace"])}
        frob = check_frobenius(alg, trace, 2, 0)
        assert alg.leading_factors() == list(range(alg.dim))
        for seed in range(4):
            rng = random.Random(f"exterior{kind}{seed}")
            gram, psi = frob.gram, frob.nakayama
            if kind == "gram":
                gram = _corrupt_entry(gram, rng)
            elif kind == "nakayama":
                psi = _corrupt_entry(psi, rng)
            tampered = FrobeniusStructure(alg, frob.trace, frob.delta, frob.sigma, gram, psi)
            oracle = dense_dual_iso(tampered)
            assert (oracle == []) == (kind == "none")
            assert check_dual_iso(tampered).violations == oracle + psi_violations(tampered)


@pytest.mark.parametrize("desc", [
    {"nilcoxeter": {"n_max": 6, "d": 1, "eps": 0}},
    {"nilcoxeter": {"n_max": 6, "d": 1, "eps": 1}},
    {"wreath": {"base": "clifford", "n_max": 3}},
    {"wreath": {"base": "exterior.json", "n_max": 2}},
], ids=["nilcoxeter-eps0", "nilcoxeter-eps1", "clifford", "exterior"])
def test_every_built_level_passes_certificate_and_oracle(desc, tmp_path, monkeypatch):
    """The build certifies each level from its tables, and the invariance audit agrees."""
    import supertower.towers as towers

    if desc.get("wreath", {}).get("base") == "exterior.json":
        path = tmp_path / "exterior.json"
        path.write_text(json.dumps(EXTERIOR_BASE))
        desc = {"wreath": {"base": str(path), "n_max": 2}}
    certified = []
    check = towers.check_coxeter_relations

    def counted(ops, nil, distant_sign):
        certified.append(len(ops))
        check(ops, nil, distant_sign)

    monkeypatch.setattr(towers, "check_coxeter_relations", counted)
    tower = build_tower(RunConfig(descriptor=desc, suites=["axioms"]))
    assert certified == list(range(tower.n_max))
    for frob in tower.frobenius[1:]:
        check_form_invariance(frob.algebra, frob.gram)


class TestInvarianceMutation:
    def test_corrupted_structure_constant_caught_at_level5(self, monkeypatch):
        alg, basis = build_nilcoxeter(5, 1, 1)
        gram = nilcoxeter_frobenius(alg, basis).gram
        s1, s2 = (basis.index[apply_s(identity_perm(5), i)] for i in (0, 1))
        alg.struct_consts()
        # u_1 u_2 is a basis element of length 2, so the Gram matrix does not read it;
        # its signed-table entry is negated
        c, k = alg.signed_product(s1, s2)
        alg._products[(s1, s2)] = (-c, k)
        with pytest.raises(ValidationError, match="form not invariant at triple"):
            check_form_invariance(alg, gram)
        # the solved Nakayama map of the corrupted algebra is not multiplicative
        with pytest.raises(InternalInconsistencyError, match="not an automorphism"):
            nilcoxeter_frobenius(alg, basis)
        # the same sign negated in the table, the entry behind u_1 u_2, fails the build
        init = SignedPermBasis.__init__

        def negated(self, n, d, eps):
            init(self, n, d, eps)
            sign, tgt = self._left[0][s2]
            self._left[0][s2] = (-sign, tgt)

        monkeypatch.setattr(SignedPermBasis, "__init__", negated)
        with pytest.raises(CocycleError):
            build_nilcoxeter(5, 1, 1)


# -- the dim^2 Gram loop and the per-column Nakayama solve, kept as oracles -------


def dense_gram(alg, trace):
    """Oracle: every basis pair, screened by the support of its product."""
    gram = Mat(alg.dim, alg.dim)
    trace_support = frozenset(trace)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if not (frozenset(alg.basis_product(i, j)) & trace_support):
                continue
            val = sum((c * trace.get(k, 0) for k, c in alg.basis_product(i, j).items()), Fraction(0))
            if val:
                gram.cols.setdefault(j, {})[i] = val
    return gram


def column_nakayama(alg, gram):
    """Oracle: one solve per column, right-hand side read entry by entry."""
    psi = Mat(alg.dim, alg.dim)
    for a in range(alg.dim):
        pa = alg.degrees[a].par
        rhs = {}
        for b in range(alg.dim):
            g = entry(gram, a, b)
            if g:
                rhs[b] = -g if (pa and alg.degrees[b].par) else g
        col = solve(gram, Mat(alg.dim, 1, {0: rhs}))
        assert col is not None
        if col.cols:
            psi.cols[a] = col.col(0)
    return psi


def _same_layout(got, want):
    """Equal matrices with the same column order and the same entry order per column."""
    assert list(got.cols) == list(want.cols)
    for j, col in want.cols.items():
        assert list(got.cols[j].items()) == list(col.items())


PARTNER_CASES = ([("nilcoxeter", n, eps) for n in (1, 2, 3, 4, 5) for eps in (0, 1)]
                 + [("sergeev", n, None) for n in (1, 2, 3, 4)])


class TestGramPartnersMatchDenseOracles:
    @pytest.mark.parametrize("family,n,eps", PARTNER_CASES)
    def test_builtin_families(self, family, n, eps):
        if family == "nilcoxeter":
            alg, basis = build_nilcoxeter(n, 1, eps)
            frob = nilcoxeter_frobenius(alg, basis)
        else:
            cl = clifford_base()
            alg, frob = build_wreath(cl, WreathBasis(cl.algebra, n))
        _same_layout(frob.gram, dense_gram(alg, frob.trace))
        _same_layout(frob.nakayama, column_nakayama(alg, frob.gram))

    def test_base_file_wreath_tower(self, tmp_path):
        path = tmp_path / "exterior.json"
        path.write_text(json.dumps(EXTERIOR_BASE))
        tower = build_tower(RunConfig(descriptor={"wreath": {"base": str(path), "n_max": 2}},
                                      suites=["axioms"]))
        for lv in (1, 2):
            frob = tower.frobenius[lv]
            _same_layout(frob.gram, dense_gram(frob.algebra, frob.trace))
            _same_layout(frob.nakayama, column_nakayama(frob.algebra, frob.gram))

    def test_base_file_with_two_entry_gram_rows(self, tmp_path):
        # Z/3 with trace 1* + g*: tr(g^a g^b) is nonzero for two b per a, so
        # each wreath partner list is a product of two-element slot supports
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(Z3_BASE))
        tower = build_tower(RunConfig(descriptor={"wreath": {"base": str(path), "n_max": 3}},
                                      suites=["axioms"]))
        for lv in (1, 2, 3):
            frob = tower.frobenius[lv]
            basis = tower.bases[lv]
            rows = tower.base_frob.gram.transpose().cols
            assert all(len(basis.gram_partners(i, rows)) == 2 ** lv for i in range(frob.algebra.dim))
            _same_layout(frob.gram, dense_gram(frob.algebra, frob.trace))
            _same_layout(frob.nakayama, column_nakayama(frob.algebra, frob.gram))

    def test_nilcoxeter_partner_is_the_complement_to_w0(self):
        alg, basis = build_nilcoxeter(4, 1, 1)
        w0 = basis.index[longest_element(4)]
        for i in range(alg.dim):
            (j,) = basis.gram_partners(i)
            assert alg.basis_product(i, j).keys() == {w0}

    def test_trace_off_w0_is_inconsistent(self, clifford):
        # wreath degrees ignore the permutation, so a trace moved to the identity
        # permutation is still graded, but it is no partner of the unit
        alg, frob = build_wreath(clifford, WreathBasis(clifford.algebra, 2))
        basis = WreathBasis(clifford.algebra, 2)
        moved = {basis.index(basis.unindex(k)[0], identity_perm(2)): c for k, c in frob.trace.items()}
        rows = clifford.gram.transpose().cols
        with pytest.raises(InternalInconsistencyError, match="Gram partners"):
            check_frobenius(alg, moved, frob.delta, frob.sigma,
                            partners=lambda i: basis.gram_partners(i, rows))
        # it is the group-algebra trace there, a Frobenius form the generic loop finds
        generic = check_frobenius(alg, moved, frob.delta, frob.sigma)
        _same_layout(generic.gram, dense_gram(alg, moved))
