"""Supermodule sign calculus: tensors, homs, shifts, induction, restriction."""

import functools
import inspect
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from supertower.ground import GroundElem, TwistScalar, qpi_binomial, qpi_factorial
from supertower.linalg import Mat, invert
from supertower.superalgebra import (
    AlgebraHom,
    Degree,
    SuperAlgebra,
    SuperModule,
    algebra_from_dict,
    algebra_to_dict,
    graded_dim,
    hom_graded_dim,
    induce_module,
    kron,
    outer_tensor,
    regular_module,
    restrict_module,
    tensor_algebra,
    twist_module,
    validate_algebra,
    validate_automorphism,
)
from supertower.towers import (
    WreathBasis,
    build_nilcoxeter,
    build_wreath,
    clifford_base,
    trivial_level_algebra,
)

from support import (
    eliminated_induction,
    hom_by_elimination,
    identity_hom,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_scale,
    module_apply,
    shift_module,
    validate_module,
)


def hom_dim_by_full_basis(src, dst):
    """Oracle: the hom solver constrained over every algebra basis element."""
    alg = src.algebra
    saved = alg.generators
    try:
        alg.generators = None
        unshifted = SuperModule(alg, src.degrees, action={i: src.act(i) for i in range(alg.dim)})
        return hom_graded_dim(unshifted, dst)
    finally:
        alg.generators = saved


@pytest.fixture(scope="module")
def clifford():
    return clifford_base().algebra


@pytest.fixture(scope="module")
def n3():
    alg, _ = build_nilcoxeter(3, 1, 1)
    return alg


class TestValidation:
    def test_nilcoxeter_passes(self, n3):
        assert validate_algebra(n3).ok

    def test_parity_mismatch_detected(self):
        # a product connecting mismatched parities must be flagged
        alg = SuperAlgebra(
            labels=["1", "a"],
            degrees=[Degree(0, 0), Degree(1, 1)],
            unit={0: Fraction(1)},
            products={
                (0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
                (1, 0): {1: Fraction(1)}, (1, 1): {1: Fraction(1)},
            },
        )
        rep = validate_algebra(alg)
        assert any(kind == "parity additivity" for kind, _ in rep.violations)

    def test_tensor_of_valid_is_valid(self, clifford, n3):
        assert validate_algebra(tensor_algebra(clifford, clifford)).ok
        ab = tensor_algebra(n3, clifford)
        assert validate_algebra(ab).ok


class TestTensorAlgebra:
    def test_koszul_sign(self, clifford):
        ab = tensor_algebra(clifford, clifford)
        # (1 (x) c) * (c (x) 1) = -(c (x) c): both factors odd
        left = {0 * 2 + 1: Fraction(1)}
        right = {1 * 2 + 0: Fraction(1)}
        assert ab.product_vec(left, right) == {1 * 2 + 1: Fraction(-1)}
        assert ab.product_vec(right, left) == {1 * 2 + 1: Fraction(1)}

    def test_unit_factor_preserves_structure(self, n3):
        one = trivial_level_algebra()
        ab = tensor_algebra(n3, one)
        assert ab.dim == n3.dim
        for i in range(n3.dim):
            for j in range(n3.dim):
                assert ab.basis_product(i, j) == n3.basis_product(i, j)

    def test_dimension(self, clifford, n3):
        assert tensor_algebra(n3, clifford).dim == n3.dim * clifford.dim

    def test_kron_by_hand(self):
        # -(2 e_0 + 3 e_1) (x) (5 e_2 + e_0/2) in a 3-dimensional right factor
        got = kron({0: 2, 1: 3}, {2: 5, 0: Fraction(1, 2)}, 3, sign=-1)
        assert got == {2: -10, 0: -1, 5: -15, 3: Fraction(-3, 2)}
        assert kron({}, {0: 1}, 4) == {}


class TestGradedDim:
    def test_rank_two_regular(self):
        alg, _ = build_nilcoxeter(2, 2, 1)
        assert graded_dim(regular_module(alg)) == \
            GroundElem.one() + GroundElem.monomial(2, 1)

    def test_parity_shift_multiplies_by_pi(self, n3):
        m = regular_module(n3)
        assert graded_dim(shift_module(m, 0, 1)) == GroundElem.monomial(0, 1) * graded_dim(m)

    @pytest.mark.parametrize("d,eps", [(1, 0), (1, 1), (2, 1)])
    def test_factorial_law(self, d, eps):
        for n in range(1, 5):
            alg, _ = build_nilcoxeter(n, d, eps)
            assert graded_dim(regular_module(alg)) == qpi_factorial(n, TwistScalar(d, eps))


class TestHom:
    def test_clifford_endomorphisms(self, clifford):
        reg = regular_module(clifford)
        plain = SuperModule(clifford, reg.degrees,
                            action={i: reg.act(i) for i in range(2)})
        got = hom_graded_dim(plain, reg)
        assert got == GroundElem.one() + GroundElem.monomial(0, 1)

    def test_free_rank_one(self, n3):
        reg = regular_module(n3)
        simple = shift_module(reg, 2, 1)
        assert hom_graded_dim(reg, simple) == graded_dim(simple)

    def test_fast_path_matches_generic(self, n3):
        reg = regular_module(n3)
        target = shift_module(regular_module(n3), 1, 1)
        assert hom_graded_dim(reg, target) == hom_dim_by_full_basis(reg, target)

    def test_generator_constraints_match_full_basis(self, n3):
        reg = regular_module(n3)
        plain = SuperModule(n3, reg.degrees, action={i: reg.act(i) for i in range(6)})
        target = shift_module(reg, -1, 1)
        assert hom_graded_dim(plain, target) == hom_dim_by_full_basis(plain, target)

    def test_shift_isomorphism_rule(self, n3):
        # hom(M{i,e}, N{j,t}) = q^(j-i) pi^(t+e) hom(M, N)
        reg = regular_module(n3)
        plain = SuperModule(n3, reg.degrees, action={i: reg.act(i) for i in range(6)})
        base = hom_graded_dim(plain, reg)
        for (i, e, j, t) in [(1, 0, 0, 1), (2, 1, -1, 0), (0, 1, 3, 1)]:
            shifted = hom_graded_dim(shift_module(plain, i, e), shift_module(reg, j, t))
            assert shifted == GroundElem.monomial(j - i, (t + e) & 1) * base


class TestOuterTensor:
    def test_graded_dim_multiplies(self, clifford, n3):
        m = regular_module(clifford)
        n = regular_module(n3)
        assert graded_dim(outer_tensor(m, n, tensor_algebra(m.algebra, n.algebra))) == \
            graded_dim(m) * graded_dim(n)

    def test_sign_rule_instance(self, clifford):
        # (1 (x) b)(m (x) n) = -(m (x) bn) for odd b and odd m
        ab = tensor_algebra(clifford, clifford)
        mm = outer_tensor(regular_module(clifford), regular_module(clifford), ab)
        elem = {0 * 2 + 1: Fraction(1)}  # 1 (x) c
        vec = {1 * 2 + 0: Fraction(1)}   # c (x) 1
        got = module_apply(mm, elem, vec)
        assert got == {1 * 2 + 1: Fraction(-1)}

    def test_hom_multiplicativity(self, clifford, n3):
        ab = tensor_algebra(clifford, n3)
        cl_reg = regular_module(clifford)
        cl_plain = SuperModule(clifford, cl_reg.degrees,
                               action={i: cl_reg.act(i) for i in range(2)})
        n_reg = regular_module(n3)
        n_plain = SuperModule(n3, n_reg.degrees, action={i: n_reg.act(i) for i in range(6)})
        lhs = hom_graded_dim(outer_tensor(cl_plain, n_plain, ab),
                             outer_tensor(cl_reg, shift_module(n_reg, 1, 0), ab))
        rhs = hom_graded_dim(cl_plain, cl_reg) * hom_graded_dim(n_plain, shift_module(n_reg, 1, 0))
        assert lhs == rhs

    @pytest.mark.parametrize("pair", ["clifford-clifford", "nc3-clifford", "nc2-nc3"])
    def test_regular_outer_tensor_is_regular_tensor(self, pair):
        """The outer tensor's Koszul sign agrees with the tensor algebra's:
        reg(A) (box) reg(B) is reg(A (x) B), action matrix by action matrix."""
        algebras = {"clifford": clifford_base().algebra, "nc2": build_nilcoxeter(2, 1, 1)[0],
                    "nc3": build_nilcoxeter(3, 1, 1)[0]}
        a, b = (algebras[name] for name in pair.split("-"))
        ab = tensor_algebra(a, b)
        boxed = outer_tensor(regular_module(a), regular_module(b), ab)
        reg = regular_module(ab)
        for t in range(ab.dim):
            assert boxed.act(t) == reg.act(t), t

    def test_module_law_holds(self, clifford):
        ab = tensor_algebra(clifford, clifford)
        mm = outer_tensor(regular_module(clifford), regular_module(clifford), ab)
        full = SuperModule(ab, mm.degrees, action={i: mm.act(i) for i in range(4)})
        assert validate_module(full, on_generators=False).ok


class TestRestrictInduce:
    def test_identity_restriction(self, n3):
        reg = regular_module(n3)
        res = restrict_module(identity_hom(n3), reg)
        assert graded_dim(res) == graded_dim(reg)
        for i in range(n3.dim):
            assert res.act(i) == reg.act(i)

    def test_identity_induction_is_regular(self, n3):
        ind = induce_module(identity_hom(n3), regular_module(n3))
        assert graded_dim(ind) == graded_dim(regular_module(n3))
        # endomorphism fingerprint agrees with the regular module
        assert hom_graded_dim(ind, regular_module(n3)) == graded_dim(regular_module(n3))

    def test_restriction_of_regular_to_pair(self):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0)
        c = TwistScalar(1, 1)
        for (n, m) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            res = restrict_module(tower.rho(n, m), regular_module(tower.level(n + m)))
            expected = qpi_binomial(n + m, n, c) * qpi_factorial(n, c) * qpi_factorial(m, c)
            assert graded_dim(res) == expected

    def test_induce_simple_pair(self):
        from supertower.towers import build_nilcoxeter_tower
        for (d, eps) in [(1, 0), (2, 1)]:
            tower = build_nilcoxeter_tower(2, d, eps, frobenius_cap=0)
            pair = tower.pair_algebra(1, 1)
            l1 = tower.declared_simples(1)[0].module
            ind = induce_module(tower.rho(1, 1), outer_tensor(l1, l1, pair))
            assert graded_dim(ind) == GroundElem.one() + GroundElem.monomial(d, eps)

    def test_adjunction_shadow_small(self):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(3, 1, 1, frobenius_cap=0)
        pair = tower.pair_algebra(1, 2)
        rho = tower.rho(1, 2)
        n2 = tower.level(2)
        candidates_n = [
            outer_tensor(tower.declared_simples(1)[0].module,
                         shift_module(tower.declared_simples(2)[0].module, 1, 1), pair),
            outer_tensor(tower.declared_simples(1)[0].module, regular_module(n2), pair),
        ]
        candidates_m = [
            tower.declared_simples(3)[0].module,
            shift_module(regular_module(tower.level(3)), -1, 0),
        ]
        for n_mod in candidates_n:
            for m_mod in candidates_m:
                lhs = hom_graded_dim(induce_module(rho, n_mod), m_mod)
                rhs = hom_graded_dim(n_mod, restrict_module(rho, m_mod))
                assert lhs == rhs


class TestTwist:
    def test_identity_twist(self, n3):
        m = regular_module(n3)
        t = twist_module(m, Mat.identity(n3.dim))
        for i in range(n3.dim):
            assert t.act(i) == m.act(i)

    def test_twist_inverse_roundtrip(self):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(3, 1, 1, frobenius_cap=3)
        psi = tower.frobenius[3].nakayama
        m = regular_module(tower.level(3))
        round_trip = twist_module(twist_module(m, psi), invert(psi))
        for i in range(tower.level(3).dim):
            assert round_trip.act(i) == m.act(i)

    def test_twist_preserves_graded_dim(self):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(3, 1, 0, frobenius_cap=3)
        m = regular_module(tower.level(3))
        assert graded_dim(twist_module(m, tower.frobenius[3].nakayama)) == graded_dim(m)

    def test_invalid_twist_rejected(self, n3):
        # twist_module trusts its map; the validator is what rejects the zero map
        bad = Mat(n3.dim, n3.dim)
        assert validate_automorphism(n3, bad).violations == [("unit preservation", ()),
                                                              ("invertibility", ())]

    def test_augmentation_is_not_an_automorphism(self, n3):
        # killing every u_w but the unit is a unital homomorphism of rank one
        (e,) = n3.unit
        augmentation = Mat(n3.dim, n3.dim, {e: {e: Fraction(1)}})
        assert validate_automorphism(n3, augmentation).violations == [("invertibility", ())]


class TestSerialization:
    def test_algebra_roundtrip(self, clifford):
        data = algebra_to_dict(clifford)
        back = algebra_from_dict(data)
        assert back.dim == clifford.dim
        assert back.degrees == clifford.degrees
        for i in range(2):
            for j in range(2):
                assert back.basis_product(i, j) == clifford.basis_product(i, j)

    def test_bad_structure_row_rejected(self):
        from supertower.errors import ValidationError
        data = {"labels": ["1"], "degrees": [[0, 0]], "unit": [[1, 1]],
                "structure": [[0, 0, 5, 1, 1]]}
        with pytest.raises(ValidationError):
            algebra_from_dict(data)


def induction_cases(tower):
    """Maps and modules to induce: each declared module along the step into
    the next level, and its restrictions along the step below and along every
    ``rho(a, b)`` back along the same map; then the outer tensors of declared
    modules along ``rho(a, b)``, as the product of classes induces them."""
    top = tower.n_max
    for lv in range(top + 1):
        for decl in tower.declared_projectives(lv) + tower.declared_simples(lv):
            if lv < top:
                yield tower.step_hom(lv), decl.module
            maps = [tower.step_hom(lv - 1)] if lv else []
            maps += [tower.rho(a, lv - a) for a in range(1, lv)]
            for phi in maps:
                yield phi, restrict_module(phi, decl.module)
    for a in range(1, top):
        for b in range(1, top - a + 1):
            pair = tower.pair_algebra(a, b)
            for da in tower.declared_projectives(a) + tower.declared_simples(a):
                for db in tower.declared_projectives(b) + tower.declared_simples(b):
                    yield tower.rho(a, b), outer_tensor(da.module, db.module, pair)


def assert_induction_matches_oracle(phi, mod, every_matrix=True):
    """Degrees and action matrices of ``induce_module`` against row reduction alone.

    The regular module induces to the target's regular module in its own
    basis, so there only the graded dimensions compare.  Without
    ``every_matrix`` the matrices of the leading factors are compared, which
    determine the action.
    """
    got = induce_module(phi, mod)
    oracle = eliminated_induction(phi, mod)
    if mod.regular:
        assert graded_dim(got) == graded_dim(oracle)
        return
    assert got.degrees == oracle.degrees
    alg = phi.target
    for i in range(alg.dim) if every_matrix else alg.leading_factors():
        assert got.act(i) == oracle.act(i), (phi.name, mod.name, i)


class TestInduceAgainstElimination:
    @pytest.mark.parametrize("d,eps", [(0, 0), (1, 0), (1, 1), (2, 0)])
    def test_nilcoxeter_to_level_five(self, d, eps):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(5, d, eps, frobenius_cap=0)
        for phi, mod in induction_cases(tower):
            # every matrix up to level 4; at level 5 those of the generators
            assert_induction_matches_oracle(phi, mod, every_matrix=phi.target is not tower.level(5))

    def test_sergeev_to_level_three(self, sergeev3):
        for phi, mod in induction_cases(sergeev3):
            assert_induction_matches_oracle(phi, mod)


class TestInduceFastPathAgainstGeneric:
    def test_signfree_fast_path_matches_row_reduction(self):
        # the annihilated one-dimensional modules of the pair algebras, whose
        # relations are all kills, against the relation row reduction
        from supertower.towers import build_nilcoxeter_tower

        for (d, eps) in [(1, 0), (1, 1)]:
            tower = build_nilcoxeter_tower(4, d, eps, frobenius_cap=0)
            for (a, b) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
                pair = tower.pair_algebra(a, b)
                rho = tower.rho(a, b)
                la = tower.declared_simples(a)[0].module
                lb = tower.declared_simples(b)[0].module
                mod = outer_tensor(la, lb, pair)
                fast = induce_module(rho, mod)
                generic = eliminated_induction(rho, mod)
                assert fast.dim == generic.dim
                assert graded_dim(fast) == graded_dim(generic)
                assert fast.degrees == generic.degrees
                assert all(fast.act(i) == generic.act(i) for i in range(rho.target.dim))


def conjugated(mod, p, p_inv):
    """The module ``mod`` in the basis given by the columns of ``p``."""
    return SuperModule(mod.algebra, mod.degrees, name=f"conj({mod.name})",
                       action={i: mat_mul(p_inv, mat_mul(mod.act(i), p))
                               for i in range(mod.algebra.dim)})


def basis_change(n, seed):
    """A change of basis of ``n`` vectors and its inverse: ``scaled`` doubles
    ``e_1``, ``sheared`` replaces ``e_2`` by ``e_1 + e_2``."""
    p, p_inv = Mat.identity(n), Mat.identity(n)
    if seed == "scaled":
        p.cols[1] = {1: 2}
        p_inv.cols[1] = {1: Fraction(1, 2)}
    else:
        p.cols[2] = {1: 1, 2: 1}
        p_inv.cols[2] = {1: -1, 2: 1}
    assert mat_mul(p, p_inv) == Mat.identity(n)
    return p, p_inv


class TestInduceRoute:
    """How each induction imposed its relations, seen through ``SignedQuotient``:
    ``signed`` counts the edges and kills, ``rows`` the relations kept for
    elimination, and ``quotients`` the inductions that built a quotient."""

    @pytest.fixture
    def imposed(self, monkeypatch):
        import supertower.linalg as la
        seen = Counter()

        def spy(method, key):
            original = getattr(la.SignedQuotient, method)

            def wrapper(self, *args):
                seen[key] += 1
                return original(self, *args)
            monkeypatch.setattr(la.SignedQuotient, method, wrapper)

        spy("__init__", "quotients")
        spy("relate", "signed")
        spy("kill", "signed")
        spy("add_row", "rows")
        return seen

    @pytest.fixture
    def restricted(self):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(3, 1, 1, frobenius_cap=0)
        phi = tower.step_hom(2)
        return phi, restrict_module(phi, regular_module(tower.level(3)))

    @pytest.mark.parametrize("descriptor", [
        {"nilcoxeter": {"n_max": 5, "d": 1, "eps": 0}},
        {"nilcoxeter": {"n_max": 5, "d": 1, "eps": 1}},
        {"wreath": {"base": "clifford", "n_max": 3}},
    ], ids=["nc5-10", "nc5-11", "sergeev3"])
    def test_verify_inductions_keep_no_rows(self, imposed, descriptor):
        # the towers' signed-permutation bases make every relation signed
        from supertower.cli import ALL_SUITES, RunConfig, run_suites
        report = run_suites(RunConfig(descriptor=descriptor, suites=ALL_SUITES))
        assert report.failed == 0
        assert imposed["rows"] == 0
        # the Sergeev tower induces only regular modules, which need no quotient
        assert (imposed["quotients"] > 0 and imposed["signed"] > 0) == ("nilcoxeter" in descriptor)

    @pytest.mark.parametrize("seed", ["scaled", "sheared"])
    def test_seeded_non_monomial_action_keeps_some_rows(self, imposed, restricted, seed):
        # the same module in another basis: a coefficient 2 or a two-entry column
        phi, mod = restricted
        plain = induce_module(phi, mod)
        assert plain.dim == 18 and imposed["rows"] == 0 < imposed["signed"]
        imposed.clear()
        seeded = conjugated(mod, *basis_change(mod.dim, seed))
        assert validate_module(seeded).ok
        gens = [b for b in phi.source.generating_set() if not phi.source.unit.get(b)]
        assert any(len(col) > 1 or any(c not in (1, -1) for c in col.values())
                   for b in gens for col in seeded.act(b).cols.values())
        got = induce_module(phi, seeded)
        # one quotient that keeps some of its relations as rows, not all
        assert imposed["quotients"] == 1
        assert imposed["rows"] > 0 and imposed["signed"] > 0
        assert_induction_matches_oracle(phi, seeded)
        assert graded_dim(got) == graded_dim(plain)


def hom_cases(tower):
    """The one-dimensional Hom pairs of the Grothendieck layer, both ways.

    Each declared projective against each declared simple of its level; each
    restricted declared module along ``rho(a, b)`` against the outer tensors
    of the other kind of declared module, as ``basis_delta`` expands it; and
    each induced outer tensor of declared modules against the declared
    simples above, as ``basis_nabla`` expands it on the projective side.
    """
    top = tower.n_max
    for lv in range(top + 1):
        for p in tower.declared_projectives(lv):
            for s in tower.declared_simples(lv):
                yield p.module, s.module
                yield s.module, p.module
    for a in range(1, top):
        for b in range(1, top - a + 1):
            pair, rho = tower.pair_algebra(a, b), tower.rho(a, b)
            for mods, others in ((tower.declared_projectives, tower.declared_simples),
                                 (tower.declared_simples, tower.declared_projectives)):
                probes = [outer_tensor(da.module, db.module, pair)
                          for da in others(a) for db in others(b)]
                for decl in mods(a + b):
                    res = restrict_module(rho, decl.module)
                    for probe in probes:
                        yield res, probe
                        yield probe, res
            for da in tower.declared_projectives(a) + tower.declared_simples(a):
                for db in tower.declared_projectives(b) + tower.declared_simples(b):
                    ind = induce_module(rho, outer_tensor(da.module, db.module, pair))
                    for s in tower.declared_simples(a + b):
                        yield ind, s.module
                        yield s.module, ind


class TestHomAgainstElimination:
    @pytest.mark.parametrize("d,eps", [(0, 0), (1, 0), (1, 1), (2, 0)])
    def test_nilcoxeter_to_level_five(self, d, eps):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(5, d, eps, frobenius_cap=0)
        for src, dst in hom_cases(tower):
            assert hom_graded_dim(src, dst) == hom_by_elimination(src, dst), (src.name, dst.name)

    def test_sergeev_to_level_three(self, sergeev3):
        for src, dst in hom_cases(sergeev3):
            assert hom_graded_dim(src, dst) == hom_by_elimination(src, dst), (src.name, dst.name)


def idempotent_algebra():
    """``k[x]/(x^2 - x)``, all even: a one-dimensional module may have ``x = 1``."""
    return SuperAlgebra(
        labels=["1", "x"], degrees=[Degree(0, 0), Degree(0, 0)], unit={0: 1},
        products={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}},
        generators=[1],
    )


class TestHomRoute:
    """Which rows each Hom handed to the rank kernel, ``killed`` or ``general``,
    and whether any of its bidegree blocks went through the ``Eliminator``
    (``True``) rather than the support count alone (``False``)."""

    @pytest.fixture
    def routes(self, monkeypatch):
        import supertower.linalg as la
        import supertower.superalgebra as sa
        ran, general, fed = [], [], []
        constraint_rows, block_ranks, add_row = sa._constraint_rows, sa.block_ranks, la.Eliminator.add_row

        def spy_rows(*args):
            general.append(True)
            return constraint_rows(*args)

        def spy_add_row(self, row):
            fed.append(row)
            return add_row(self, row)

        def spy_ranks(rows, block):
            fed.clear()
            got = block_ranks(rows, block)
            ran.append(("general" if general else "killed", bool(fed)))
            general.clear()
            return got

        monkeypatch.setattr(sa, "_constraint_rows", spy_rows)
        monkeypatch.setattr(sa, "block_ranks", spy_ranks)
        monkeypatch.setattr(la.Eliminator, "add_row", spy_add_row)
        return ran

    @pytest.fixture
    def restricted(self):
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(3, 1, 1, frobenius_cap=0)
        phi = tower.step_hom(2)
        return restrict_module(phi, regular_module(tower.level(3))), tower.declared_simples(2)[0].module

    @staticmethod
    def expand_everything(layer, bound):
        from supertower.grothendieck import G_SIDE, K_SIDE
        for side in (K_SIDE, G_SIDE):
            keys = layer.basis_keys(side, bound)
            for ka in keys:
                layer.basis_delta(side, ka)
                for kb in keys:
                    if 0 < ka[0] + kb[0] <= bound:
                        layer.basis_nabla(side, ka, kb)

    def test_nilcoxeter_probes_take_the_support_rule(self, routes):
        from supertower.grothendieck import GrothLayer
        from supertower.towers import build_nilcoxeter_tower
        self.expand_everything(GrothLayer(build_nilcoxeter_tower(3, 1, 1, frobenius_cap=0)), 3)
        assert routes and set(routes) == {("killed", False)}

    def test_clifford_modules_fall_back(self, routes):
        from supertower.grothendieck import GrothLayer
        from supertower.towers import build_wreath_tower
        self.expand_everything(GrothLayer(build_wreath_tower(clifford_base(), 2)), 2)
        assert routes and {rule for rule, _ in routes} == {"general"}

    @pytest.mark.parametrize("way", ["to probe", "from probe"])
    def test_coefficient_two_takes_the_support_rule(self, routes, restricted, way):
        mod, simple = restricted
        seeded = conjugated(mod, *basis_change(mod.dim, "scaled"))
        gens = [b for b in mod.algebra.generating_set() if not mod.algebra.unit.get(b)]
        assert any(abs(c) == 2 for b in gens for col in seeded.act(b).cols.values()
                   for c in col.values())
        src, dst = (seeded, simple) if way == "to probe" else (simple, seeded)
        got = hom_graded_dim(src, dst)
        # Hom(k, M) takes the general rows, the same rows up to sign
        assert routes == [("killed" if way == "to probe" else "general", False)]
        assert got == hom_by_elimination(src, dst)
        assert got == (hom_graded_dim(mod, simple) if way == "to probe" else hom_graded_dim(simple, mod))

    def test_two_entry_column_falls_back(self, routes, restricted):
        # the killed rows still, but their block falls back to elimination
        mod, simple = restricted
        seeded = conjugated(mod, *basis_change(mod.dim, "sheared"))
        assert validate_module(seeded).ok
        gens = [b for b in mod.algebra.generating_set() if not mod.algebra.unit.get(b)]
        assert any(len(col) > 1 for b in gens for col in seeded.act(b).cols.values())
        got = hom_graded_dim(seeded, simple)
        assert routes == [("killed", True)]
        assert got == hom_by_elimination(seeded, simple) == hom_graded_dim(mod, simple)

    def test_colliding_rows_fall_back(self, routes):
        # s e_0 = s e_1 = e_2: singleton columns, but one general row with two
        # entries, which falls back to elimination; Hom(k, M) is
        # two-dimensional, while M has only one empty column
        from supertower.towers import build_nilcoxeter_tower
        tower = build_nilcoxeter_tower(2, 1, 1, frobenius_cap=0)
        alg = tower.level(2)
        (u,) = alg.unit
        (s,) = [b for b in alg.generating_set() if b != u]
        degrees = [Degree(0, 0), Degree(0, 0), alg.degrees[s]]
        act = Mat(3, 3, {0: {2: 1}, 1: {2: 1}})
        mod = SuperModule(alg, degrees, action={u: Mat.identity(3), s: act})
        assert validate_module(mod, on_generators=False).ok
        simple = tower.declared_simples(2)[0].module
        got = hom_graded_dim(simple, mod)
        assert routes == [("general", True)]
        assert got == hom_by_elimination(simple, mod)
        assert got == GroundElem.one() + GroundElem.monomial(alg.degrees[s].z, alg.degrees[s].par)

    @pytest.mark.parametrize("way", ["to probe", "from probe"])
    def test_probe_not_killed_falls_back(self, routes, way):
        # x acts by one on the probe and on both vectors of M, so every map is
        # a module map, while M's supports cover every basis vector
        alg = idempotent_algebra()
        assert validate_algebra(alg).ok
        probe = SuperModule(alg, [Degree(0, 0)], action={0: Mat.identity(1), 1: Mat.identity(1)})
        mod = SuperModule(alg, [Degree(0, 0)] * 2, action={0: Mat.identity(2), 1: Mat.identity(2)})
        src, dst = (mod, probe) if way == "to probe" else (probe, mod)
        got = hom_graded_dim(src, dst)
        assert [rule for rule, _ in routes] == ["general"]
        assert got == hom_by_elimination(src, dst) == GroundElem.from_int(2)


@functools.lru_cache(maxsize=None)
def nilcoxeter_four(d, eps):
    from supertower.towers import build_nilcoxeter_tower
    return build_nilcoxeter_tower(4, d, eps, frobenius_cap=0)


def graded_basis_change(degrees, rng):
    """A random invertible integer change of basis that keeps every bidegree,
    and its inverse: within each bidegree a lower triangle of shears in
    [-2, 2] over a diagonal of ±1, ±2 and ±3."""
    by_degree = {}
    for j, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(j)
    p = Mat(len(degrees), len(degrees))
    for members in by_degree.values():
        for t, j in enumerate(members):
            p.cols[j] = {j: rng.choice([1, -1, 2, -2, 3, -3])}
            for i in members[t + 1:]:
                p.add_entry(i, j, rng.randint(-2, 2))
    p_inv = invert(p)
    assert mat_mul(p, p_inv) == Mat.identity(len(degrees))
    return p, p_inv


@settings(max_examples=40, deadline=None)
@given(twist=hst.sampled_from([(1, 0), (1, 1)]), n=hst.integers(2, 4),
       rng=hst.randoms(use_true_random=False))
def test_killed_hom_is_basis_free(twist, n, rng):
    # a restricted regular module in a random graded basis: generator columns
    # with several entries and coefficients other than ±1, against the killed
    # simple of the pair algebra both ways
    tower = nilcoxeter_four(*twist)
    a = rng.randint(1, n - 1)
    pair = tower.pair_algebra(a, n - a)
    mod = restrict_module(tower.rho(a, n - a), regular_module(tower.level(n)))
    simple = outer_tensor(tower.declared_simples(a)[0].module,
                          tower.declared_simples(n - a)[0].module, pair)
    seeded = conjugated(mod, *graded_basis_change(mod.degrees, rng))
    for src, dst, plain in ((seeded, simple, (mod, simple)), (simple, seeded, (simple, mod))):
        got = hom_graded_dim(src, dst)
        assert got == hom_by_elimination(src, dst)
        assert got == hom_graded_dim(*plain)


def test_double_parity_shift_restores_action(n3):
    m = regular_module(n3)
    mm = shift_module(shift_module(m, 0, 1), 0, 1)
    for i in range(n3.dim):
        assert mm.act(i) == m.act(i)
    assert mm.degrees == m.degrees


def test_restriction_of_simple_is_trivial_pair_module():
    from supertower.towers import build_nilcoxeter_tower
    tower = build_nilcoxeter_tower(2, 1, 1, frobenius_cap=0)
    l2 = tower.declared_simples(2)[0].module
    res = restrict_module(tower.rho(1, 1), l2)
    assert res.dim == 1
    assert graded_dim(res) == GroundElem.one()
    for g in tower.pair_algebra(1, 1).generating_set():
        assert mat_is_zero(res.act(g)) or tower.pair_algebra(1, 1).unit.get(g)


rationals = hst.builds(Fraction, hst.integers(-3, 3).filter(bool), hst.integers(1, 3))


def _act_vec_by_matrix_sums(mod, v):
    """Oracle: the earlier fold of whole scaled matrices."""
    out = Mat(mod.dim, mod.dim)
    for i, c in v.items():
        if c:
            out = mat_add(out, mat_scale(mod.act(i), c))
    return out


NC3_REGULAR = regular_module(build_nilcoxeter(3, 1, 1)[0])


class TestActVec:
    @settings(max_examples=80, deadline=None)
    @given(hst.dictionaries(hst.integers(0, NC3_REGULAR.algebra.dim - 1), rationals, max_size=6))
    def test_matches_matrix_fold(self, v):
        # compared column by column, so a stored empty column would show
        assert NC3_REGULAR.act_vec(v).cols == _act_vec_by_matrix_sums(NC3_REGULAR, v).cols

    def test_cancelling_terms_leave_no_empty_column(self, clifford):
        # both basis elements act by the identity, so 1 - c acts by zero
        mod = SuperModule(clifford, [Degree(0, 0), Degree(0, 1)],
                          action={0: Mat.identity(2), 1: Mat.identity(2)})
        v = {0: Fraction(1), 1: Fraction(-1)}
        assert mod.act_vec(v).cols == _act_vec_by_matrix_sums(mod, v).cols == {}


# -- generator-led validation against the dense loops it replaced ---------------


def _dense_algebra_violations(alg):
    """Oracle: unit laws, additivity on every pair, associativity on every triple."""
    bad = []
    dim = alg.dim
    if any(alg.degrees[i] != Degree(0, 0) for i in alg.unit):
        bad.append(("unit degree", ()))
    for j in range(dim):
        ej = {j: Fraction(1)}
        if alg.product_vec(alg.unit, ej) != ej or alg.product_vec(ej, alg.unit) != ej:
            bad.append(("unit law", (j,)))
    for i in range(dim):
        for j in range(dim):
            for k, c in alg.basis_product(i, j).items():
                if c and alg.degrees[k] != alg.degrees[i] + alg.degrees[j]:
                    bad.append(("additivity", (i, j, k)))
    for i in range(dim):
        for j in range(dim):
            pij = alg.basis_product(i, j)
            for k in range(dim):
                lhs = alg.product_vec(pij, {k: Fraction(1)})
                rhs = alg.product_vec({i: Fraction(1)}, alg.basis_product(j, k))
                if lhs != rhs:
                    bad.append(("associativity", (i, j, k)))
    return bad


def _clifford_wreath2():
    cl = clifford_base()
    return build_wreath(cl, WreathBasis(cl.algebra, 2))[0]


def _small_algebras():
    clifford = clifford_base()
    yield from (build_nilcoxeter(n, 1, eps)[0] for n in range(1, 5) for eps in (0, 1))
    yield from (build_wreath(clifford, WreathBasis(clifford.algebra, n))[0] for n in (1, 2, 3))
    yield tensor_algebra(build_nilcoxeter(2, 1, 1)[0], build_wreath(clifford, WreathBasis(clifford.algebra, 2))[0])


def _split_unit_algebra(generators):
    """k x k: two orthogonal idempotents whose sum is the unit."""
    return SuperAlgebra(
        labels=["e0", "e1"], degrees=[Degree(0, 0), Degree(0, 0)],
        unit={0: Fraction(1), 1: Fraction(1)},
        products={(0, 0): {0: Fraction(1)}, (1, 1): {1: Fraction(1)}},
        generators=generators,
    )


class TestGeneratorLedAlgebra:
    def test_builtins_agree_with_dense_oracle(self):
        for alg in _small_algebras():
            assert validate_algebra(alg).ok, alg.name
            assert _dense_algebra_violations(alg) == [], alg.name

    @pytest.mark.parametrize("seed", range(6))
    def test_corrupted_structure_constant_agrees(self, seed):
        rng = random.Random(seed)
        for alg in (build_nilcoxeter(3, 1, 1)[0], build_nilcoxeter(4, 1, 0)[0],
                    _clifford_wreath2()):
            table = alg.struct_consts()
            key = rng.choice(sorted(k for k, v in table.items() if v))
            k = rng.choice(sorted(table[key]))
            # a one-term product: its signed-table entry gets the doubled coefficient
            c, t = alg.signed_product(*key)
            assert t == k
            alg._products[key] = (2 * c, k)
            assert not validate_algebra(alg).ok
            assert _dense_algebra_violations(alg)

    def test_split_unit_factor_declares_no_generators(self):
        split = _split_unit_algebra([0])
        assert validate_algebra(split).ok
        clifford = clifford_base().algebra
        for ab in (tensor_algebra(split, clifford), tensor_algebra(clifford, split)):
            # padding with one unit term gave generators spanning 3 of 4
            assert ab.generators is None
            assert validate_algebra(ab).ok
        assert tensor_algebra(clifford, clifford).generators == [2, 1]


class TestGeneratorLedModule:
    def test_scaled_longest_element_is_rejected(self, n3):
        # generator-times-generator pairs never reach u_{w0}, so scaling its
        # action matrix went unnoticed
        reg = regular_module(n3)
        w0 = max(range(n3.dim), key=lambda i: n3.degrees[i].z)
        action = {i: reg.act(i) for i in range(n3.dim)}
        assert validate_module(SuperModule(n3, reg.degrees, action=action)).ok
        action[w0] = mat_scale(action[w0], 2)
        assert not validate_module(SuperModule(n3, reg.degrees, action=action)).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_corrupted_action_agrees_with_all_pairs(self, seed):
        rng = random.Random(seed)
        for alg in (build_nilcoxeter(4, 1, 1)[0], _clifford_wreath2()):
            reg = regular_module(alg)
            action = {i: reg.act(i) for i in range(alg.dim)}
            b = rng.choice([i for i in range(alg.dim) if i not in alg.leading_factors()])
            action[b] = mat_scale(action[b], 2)
            mod = SuperModule(alg, reg.degrees, action=action)
            assert not validate_module(mod).ok
            assert not validate_module(mod, on_generators=False).ok


def _corner_leaving_maps():
    """Two non-unital maps from the dual numbers (1, x) to upper-triangular 2x2 matrices.

    Both send x to E12.  The first sends 1 to E22, and E12 E22 = E12 leaves
    the corner E22 tri; the second sends 1 to E11, and E11 E12 = E12 leaves
    tri E11.  Neither sends 1 to the unit E11 + E22.
    """
    one = Fraction(1)
    tri = SuperAlgebra(["E11", "E12", "E22"], [Degree(0, 0)] * 3, {0: one, 2: one},
                       products={(0, 0): {0: one}, (0, 1): {1: one}, (1, 2): {1: one},
                                 (2, 2): {2: one}})
    dual = SuperAlgebra(["1", "x"], [Degree(0, 0)] * 2, {0: one},
                        products={(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                        generators=[1])
    return AlgebraHom(dual, tri, [{2: one}, {1: one}]), AlgebraHom(dual, tri, [{0: one}, {1: one}])


def test_unit_rows_catch_an_image_outside_the_corner():
    # every product led by x agrees; only 1 * x shows E12 outside E22 tri,
    # and 1 goes to E22, not to the unit
    phi, _ = _corner_leaving_maps()
    assert phi.validate().violations == [("unit preservation", ()), ("multiplicativity", (0, 1))]


# restriction and induction refuse both maps, also under ``python -O``
NON_UNITAL = "\n".join([
    "from fractions import Fraction",
    "from supertower.superalgebra import (",
    "    AlgebraHom, Degree, SuperAlgebra, induce_module, regular_module, restrict_module)",
    inspect.getsource(_corner_leaving_maps),
    "for phi in _corner_leaving_maps():",
    "    for functor, mod in [(restrict_module, regular_module(phi.target)),",
    "                         (induce_module, regular_module(phi.source))]:",
    "        try:",
    "            functor(phi, mod)",
    "        except ValueError as exc:",
    "            print(exc)",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_unital_maps_are_refused(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", NON_UNITAL],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "restriction needs a unital map\ninduction needs a unital map\n" * 2
