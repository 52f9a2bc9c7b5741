"""The decategorified layer: classes, pairing, product, coproduct, twisted checks."""

import pytest

from supertower import grothendieck
from supertower.errors import ExactDivisionError, SupertowerError, TruncationError
from supertower.frobenius import tensor_nakayama_matrix
from supertower.ground import (
    COLLAPSED,
    GroundElem,
    TwistScalar,
    bar_involution,
    divide_exact,
    qpi_binomial,
    qpi_factorial,
)
from supertower.grothendieck import (
    G_SIDE,
    K_SIDE,
    GrothLayer,
    GrothVector,
    check_adjunction_kappa,
    check_hopf_pairing,
    check_psi_invariance,
    check_twisted_bialgebra,
)
from supertower.linalg import Mat
from supertower.reporting import all_passed
from supertower.superalgebra import SuperModule, hom_graded_dim, outer_tensor, regular_module, restrict_module
from supertower.towers import build_nilcoxeter_tower

from support import cartan_map, failures, lowering_elem, shift_module


class TestClasses:
    def test_class_of_regular_is_twisted_factorial(self, layer6_11):
        for n in (1, 2, 3):
            got = layer6_11.class_in_G(regular_module(layer6_11.tower.level(n)), n)
            coeff = qpi_factorial(n, TwistScalar(1, 1))
            assert got == GrothVector(G_SIDE, {(n, 0): coeff})

    def test_class_of_shifted_simple(self, layer6_11):
        l2 = layer6_11.tower.declared_simples(2)[0].module
        got = layer6_11.class_in_G(shift_module(l2, 3, 1), 2)
        assert got == GrothVector(G_SIDE, {(2, 0): GroundElem.monomial(3, 1)})

    def test_clifford_regular_class(self, sergeev_layer):
        got = sergeev_layer.class_in_G(regular_module(sergeev_layer.tower.level(1)), 1)
        assert got == GrothVector(G_SIDE, {(1, 0): GroundElem.one(COLLAPSED)})

    def test_type_q_norm(self, sergeev_layer):
        assert sergeev_layer.norm(1, 0) == GroundElem.from_int(2, COLLAPSED)
        assert sergeev_layer.norm(2, 0) == GroundElem.from_int(2, COLLAPSED)


class TestPairing:
    def test_proj_simple_delta(self, layer6_11):
        for m in range(5):
            for n in range(5):
                x = layer6_11.basis_vector(K_SIDE, m, 0)
                y = layer6_11.basis_vector(G_SIDE, n, 0)
                expected = layer6_11.one() if m == n else layer6_11.zero()
                assert layer6_11.pairing(x, y) == expected

    def test_proj_against_powers(self, layer6_11):
        c = TwistScalar(1, 1)
        y1 = layer6_11.basis_vector(G_SIDE, 1, 0)
        power = layer6_11.unit_vector(G_SIDE)
        for n in range(1, 5):
            power = layer6_11.nabla(power, y1)
            for m in range(1, 5):
                x = layer6_11.basis_vector(K_SIDE, m, 0)
                expected = qpi_factorial(n, c) if m == n else layer6_11.zero()
                assert layer6_11.pairing(x, power) == expected

    def test_zero_vector(self, layer6_11):
        z = GrothVector(G_SIDE)
        x = layer6_11.basis_vector(K_SIDE, 2, 0)
        assert layer6_11.pairing(x, z).is_zero()


class TestProduct:
    def test_projective_monoid(self, layer6_10):
        for n in (1, 2, 3):
            for m in (1, 2):
                got = layer6_10.basis_nabla(K_SIDE, (n, 0), (m, 0))
                assert got == layer6_10.basis_vector(K_SIDE, n + m, 0)

    def test_simple_product_rule(self, layer6_11):
        c = TwistScalar(1, 1)
        for n in (1, 2, 3):
            for m in (1, 2):
                got = layer6_11.basis_nabla(G_SIDE, (n, 0), (m, 0))
                assert got == GrothVector(
                    G_SIDE, {(n + m, 0): qpi_binomial(n + m, n, c)})

    def test_unit_class(self, layer6_11):
        u = layer6_11.unit_vector(G_SIDE)
        v = layer6_11.basis_vector(G_SIDE, 3, 0)
        assert layer6_11.nabla(u, v) == v
        assert layer6_11.nabla(v, u) == v

    def test_truncation_error(self, layer6_11):
        with pytest.raises(TruncationError):
            layer6_11.basis_nabla(G_SIDE, (4, 0), (3, 0))

    def test_associativity_on_bases(self, layer6_11):
        for side in (G_SIDE, K_SIDE):
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        if a + b + c > 6:
                            continue
                        va = layer6_11.basis_vector(side, a, 0)
                        vb = layer6_11.basis_vector(side, b, 0)
                        vc = layer6_11.basis_vector(side, c, 0)
                        lhs = layer6_11.nabla(layer6_11.nabla(va, vb), vc)
                        rhs = layer6_11.nabla(va, layer6_11.nabla(vb, vc))
                        assert lhs == rhs


class TestCoproduct:
    def test_simple_side_literal(self, layer6_10):
        for n in range(5):
            got = layer6_10.basis_delta(G_SIDE, (n, 0))
            expected = {((k, 0), (n - k, 0)): layer6_10.one() for k in range(n + 1)}
            assert got == expected

    def test_projective_side_barred_binomial(self, layer6_10):
        c = TwistScalar(1, 0)
        for n in range(5):
            got = layer6_10.basis_delta(K_SIDE, (n, 0))
            expected = {
                ((k, 0), (n - k, 0)): bar_involution(qpi_binomial(n, k, c))
                for k in range(n + 1)
            }
            assert got == expected

    def test_positive_multiplicities_from_heads(self, layer6_10):
        c = TwistScalar(1, 0)
        for n in range(2, 6):
            for k in range(n + 1):
                got = layer6_10.restriction_multiplicity_genfn(n, k)
                assert got == qpi_binomial(n, k, c)

    def test_head_and_class_are_bar_related(self, layer6_11):
        # the head multiplicity series and the projective-class coefficient
        # differ exactly by the bar involution (opposite shift scaling)
        for n in (2, 3, 4):
            for k in range(1, n):
                mult = layer6_11.restriction_multiplicity_genfn(n, k)
                coeff = layer6_11.basis_delta(K_SIDE, (n, 0))[((k, 0), (n - k, 0))]
                assert coeff == bar_involution(mult)

    def test_coassociativity_shadow(self, layer6_11):
        # (delta (x) id)delta == (id (x) delta)delta on basis classes
        for side in (G_SIDE, K_SIDE):
            for n in range(5):
                d = layer6_11.basis_delta(side, (n, 0))
                lhs = {}
                rhs = {}
                for ((ka, kb), c) in d.items():
                    for ((k1, k2), c2) in layer6_11.basis_delta(side, ka).items():
                        key = (k1, k2, kb)
                        lhs[key] = lhs.get(key, layer6_11.zero()) + c * c2
                    for ((k1, k2), c2) in layer6_11.basis_delta(side, kb).items():
                        key = (ka, k1, k2)
                        rhs[key] = rhs.get(key, layer6_11.zero()) + c * c2
                lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
                rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
                assert lhs == rhs

    def test_cocommutativity_shadow(self, layer6_11):
        for side in (G_SIDE, K_SIDE):
            for n in range(5):
                d = layer6_11.basis_delta(side, (n, 0))
                flipped = {(kb, ka): c for (ka, kb), c in d.items()}
                assert d == flipped

    def test_counit(self, layer6_11):
        one = layer6_11.one()
        u = layer6_11.unit_vector(G_SIDE)
        assert layer6_11.counit(u) == one
        for n in (1, 2, 3):
            assert layer6_11.counit(layer6_11.basis_vector(G_SIDE, n, 0)).is_zero()
        q = GroundElem.monomial(1)
        mixed = u.scale(q * 3).add(layer6_11.basis_vector(G_SIDE, 2, 0))
        assert layer6_11.counit(mixed) == q * 3


class TestTwistedBialgebra:
    def test_both_sides_both_presentations(self, layer4_11):
        assert all_passed(check_twisted_bialgebra(layer4_11, G_SIDE, 4))
        assert all_passed(check_twisted_bialgebra(layer4_11, K_SIDE, 4))
        assert all_passed(check_twisted_bialgebra(layer4_11, G_SIDE, 4, chi=(1, 0)))
        assert all_passed(check_twisted_bialgebra(layer4_11, K_SIDE, 4, chi=(-1, 0)))

    def test_wrong_chi_fails(self, layer4_11):
        recs = check_twisted_bialgebra(layer4_11, G_SIDE, 4, chi=(-1, 0))
        bad = failures(recs)
        assert bad
        # first mixed-level pair already fails
        assert any(r.indices[0][0] >= 1 and r.indices[1][0] >= 1 for r in bad)

    def test_wrong_chi_fails_on_the_projective_side(self):
        layer = GrothLayer(build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0))
        bad = failures(check_twisted_bialgebra(layer, K_SIDE, 3, chi=(1, 0)))
        assert (bad[0].check, bad[0].indices) == ("twisted-bialgebra-K", ((1, 0), (1, 0), (1, 0)))

    def test_trivial_tower_trivially_passes(self, sergeev_layer):
        assert all_passed(check_twisted_bialgebra(sergeev_layer, G_SIDE, 2))
        assert all_passed(check_twisted_bialgebra(sergeev_layer, K_SIDE, 2))


class TestHopfPairing:
    def test_axioms_hold(self, layer4_11):
        assert all_passed(check_hopf_pairing(layer4_11, 4))

    def test_gamma_zero_fails_with_nonzero_twist(self, layer4_11):
        recs = check_hopf_pairing(layer4_11, 2, gamma=(0, 0))
        bad = failures(recs)
        assert bad
        assert any(r.check == "pairing-coproduct-product" and r.indices == ((2, 0), (1, 0), (1, 0))
                   for r in bad)

    def test_unit_counit_axiom(self, layer4_11):
        recs = [r for r in check_hopf_pairing(layer4_11, 3)
                if r.check in ("pairing-unit-counit", "pairing-counit-unit")]
        assert recs and all_passed(recs)

    @pytest.mark.parametrize("kind", ["pairing-unit-counit", "pairing-counit-unit"])
    def test_doubled_unit_norm_fails_unit_counit(self, kind):
        layer = GrothLayer(build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0))
        layer._norms[(0, 0)] = layer.norm(0, 0) * 2
        bad = [r for r in failures(check_hopf_pairing(layer, 4)) if r.check == kind]
        assert bad[0].indices == ((0, 0),)
        assert (bad[0].lhs, bad[0].rhs) == (repr(layer.one() * 2), repr(layer.one()))

    def test_orthogonality_checks_the_library_pairing(self, monkeypatch):
        # GrothLayer.pairing pairs only equal keys, so no tower data can fail
        # this record; a pairing that crosses levels does
        monkeypatch.setattr(GrothLayer, "pairing", lambda self, k, g: self.one())
        layer = GrothLayer(build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0))
        bad = [r for r in failures(check_hopf_pairing(layer, 4)) if r.check == "pairing-orthogonality"]
        assert bad[0].indices == ((0, 0), (1, 0))


class TestAdjunction:
    def test_nilcoxeter(self, layer4_11):
        assert all_passed(check_adjunction_kappa(layer4_11, 4))

    def test_level_zero_degenerates_to_unit_pairing(self, layer4_11):
        recs = [r for r in check_adjunction_kappa(layer4_11, 0)]
        assert recs and all_passed(recs)

    def test_sergeev_trivial_twist(self, sergeev_layer):
        assert all_passed(check_adjunction_kappa(sergeev_layer, 2))

    def test_wrong_kappa_fails(self):
        tower = build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0)
        tower.kappa = 2
        bad = failures(check_adjunction_kappa(GrothLayer(tower), 4))
        assert (bad[0].check, bad[0].indices) == ("adjunction-twist", ((2, 0), (1, 0), (1, 0)))


class TestPsiInvariance:
    def test_nilcoxeter(self, layer4_11):
        assert all_passed(check_psi_invariance(layer4_11, 4))

    def test_identity_automorphisms_trivially_pass(self, sergeev_layer):
        # the Clifford base has identity Nakayama; levels 0..1 are immediate
        assert all_passed(check_psi_invariance(sergeev_layer, 1))

    def test_wrong_pair_automorphism_detected(self, nc4_11, monkeypatch):
        # every restriction is twisted by the pair's Nakayama matrix; the zero
        # matrix leaves Hom over the one-dimensional pair algebra of level 2 as
        # it is, but changes the restricted classes at level 3
        def killing(f1, f2):
            dim = f1.algebra.dim * f2.algebra.dim
            return Mat(dim, dim)

        monkeypatch.setattr(grothendieck, "tensor_nakayama_matrix", killing)
        recs = check_psi_invariance(GrothLayer(nc4_11), 3)
        assert [r.indices for r in failures(recs)] == [(3, 0)]


class TestCartan:
    def test_x_to_y1(self, layer6_11):
        x = layer6_11.basis_vector(K_SIDE, 1, 0)
        assert cartan_map(layer6_11, x) == layer6_11.basis_vector(G_SIDE, 1, 0)

    def test_powers_map_to_powers(self, layer6_11):
        c = TwistScalar(1, 1)
        for n in (1, 2, 3, 4):
            x_n = layer6_11.basis_vector(K_SIDE, n, 0)
            got = cartan_map(layer6_11, x_n)
            assert got == GrothVector(G_SIDE, {(n, 0): qpi_factorial(n, c)})

    def test_zero_maps_to_zero(self, layer6_11):
        assert cartan_map(layer6_11, GrothVector(K_SIDE)).is_zero()

    def test_antilinearity(self, layer6_11):
        q = GroundElem.monomial(1)
        x2 = layer6_11.basis_vector(K_SIDE, 2, 0)
        lhs = cartan_map(layer6_11, x2.scale(q))
        rhs = cartan_map(layer6_11, x2).scale(GroundElem.monomial(-1))
        assert lhs == rhs

    def test_multiplicative(self, layer6_11):
        x1 = layer6_11.basis_vector(K_SIDE, 1, 0)
        x2 = layer6_11.basis_vector(K_SIDE, 2, 0)
        lhs = cartan_map(layer6_11, layer6_11.nabla(x1, x2))
        rhs = layer6_11.nabla(cartan_map(layer6_11, x1), cartan_map(layer6_11, x2))
        assert lhs == rhs


class TestActionFormulaConsistency:
    def test_pairing_action_identity(self, layer4_11):
        # <r, [P] acting on [N]> = <r * [P], [N]> for the regular action:
        # the decategorified consistency of the action formula
        from supertower.heisenberg import HeisenbergDouble
        dbl = HeisenbergDouble(layer4_11)
        for lp in range(3):
            for ln in range(lp, 4):
                for lr in (ln - lp,):
                    r = layer4_11.basis_vector(K_SIDE, lr, 0)
                    p = layer4_11.basis_vector(K_SIDE, lp, 0)
                    nvec = layer4_11.basis_vector(G_SIDE, ln, 0)
                    lhs = layer4_11.pairing(r, dbl.fock_act(lowering_elem(p), nvec))
                    rhs = layer4_11.pairing(layer4_11.nabla(r, p), nvec)
                    assert lhs == rhs


def test_head_of_regular_is_one(layer6_11):
    # the regular module without its regular flag, so the killed rows run
    alg = layer6_11.tower.level(3)
    plain = SuperModule(alg, alg.degrees, action_fn=regular_module(alg).act)
    simple = layer6_11.declared(G_SIDE, 3)[0].module
    assert hom_graded_dim(plain, simple).bar() == GroundElem.one()


# -- oracles: each side's expander, one level and pair at a time, and the
# pair automorphism written out entry by entry


def _divide_norm(layer, raw, level, i):
    norm = layer.norm(level, i)
    if norm.is_one():
        return raw
    try:
        return divide_exact(raw, norm)
    except ExactDivisionError as exc:
        raise SupertowerError(f"module not expressible: level {level} basis {i}: {exc}") from exc


def _divide_pair_norm(layer, raw, la, ia, lb, ib):
    norm = layer.norm(la, ia) * layer.norm(lb, ib)
    if norm.is_one():
        return raw
    try:
        return divide_exact(raw, norm)
    except ExactDivisionError as exc:
        raise SupertowerError(f"module not expressible over pair ({la},{lb})") from exc


def oracle_class_in_G(layer, mod, level):
    simps = layer.tower.declared_simples(level)
    projs = layer.tower.declared_projectives(level)
    entries = {}
    for i, (p, s) in enumerate(zip(projs, simps)):
        raw = layer._ring(hom_graded_dim(p.module, mod))
        if not raw.is_zero():
            entries[(level, i)] = _divide_norm(layer, raw, level, i)
    return entries


def oracle_class_in_K(layer, mod, level):
    entries = {}
    for i, s in enumerate(layer.tower.declared_simples(level)):
        raw = layer._ring(hom_graded_dim(mod, s.module))
        if not raw.is_zero():
            entries[(level, i)] = _divide_norm(layer, raw, level, i)
    return entries


def oracle_class_in_pair(layer, side, mod, la, lb):
    tower = layer.tower
    probes_a = tower.declared_projectives(la) if side == G_SIDE else tower.declared_simples(la)
    probes_b = tower.declared_projectives(lb) if side == G_SIDE else tower.declared_simples(lb)
    pair = tower.pair_algebra(la, lb)
    out = {}
    for ia in range(len(tower.declared_simples(la))):
        for ib in range(len(tower.declared_simples(lb))):
            probe = outer_tensor(probes_a[ia].module, probes_b[ib].module, pair)
            raw = layer._ring(hom_graded_dim(probe, mod) if side == G_SIDE else hom_graded_dim(mod, probe))
            if not raw.is_zero():
                out[((la, ia), (lb, ib))] = _divide_pair_norm(layer, raw, la, ia, lb, ib)
    return out


def oracle_pair_automorphism(tower, a, b):
    pa, pb = tower.frobenius[a].nakayama, tower.frobenius[b].nakayama
    dim_b = tower.level(b).dim
    out = Mat(tower.level(a).dim * dim_b, tower.level(a).dim * dim_b)
    for i in range(tower.level(a).dim):
        ca = pa.cols.get(i, {})
        for j in range(dim_b):
            cb = pb.cols.get(j, {})
            for r, x in ca.items():
                for s, y in cb.items():
                    out.add_entry(r * dim_b + s, i * dim_b + j, x * y)
    return out


def _items_or_error(fn, *args):
    """The expansion's (key, coefficient) items in order, or the error it raised."""
    try:
        return list(fn(*args).items())
    except SupertowerError as exc:
        return type(exc)


@pytest.fixture(scope="module")
def nc4_10():
    return build_nilcoxeter_tower(4, 1, 0, frobenius_cap=4)


@pytest.fixture(params=["nc4_10", "nc4_11", "sergeev3"])
def oracle_tower(request):
    return request.getfixturevalue(request.param)


class TestExpandAgainstPerSideOracles:
    def test_declared_modules_and_their_restrictions(self, oracle_tower):
        layer = GrothLayer(oracle_tower)
        single = {G_SIDE: oracle_class_in_G, K_SIDE: oracle_class_in_K}
        compared = 0
        for lv in range(oracle_tower.n_max + 1):
            if not oracle_tower.has_declared(lv):
                continue
            for decl_side in (G_SIDE, K_SIDE):
                for decl in layer.declared(decl_side, lv):
                    for side in (G_SIDE, K_SIDE):
                        got = _items_or_error(layer._expand, side, decl.module, (lv,))
                        assert got == _items_or_error(single[side], layer, decl.module, lv)
                        compared += 1
                        for a in range(1, lv):
                            res = restrict_module(oracle_tower.rho(a, lv - a), decl.module)
                            got = _items_or_error(layer._expand, side, res, (a, lv - a))
                            assert got == _items_or_error(oracle_class_in_pair, layer, side, res, a, lv - a)
                            compared += 1
        assert compared >= 16

    def test_tensor_nakayama_matches_pair_automorphism(self, oracle_tower):
        levels = [lv for lv in range(oracle_tower.n_max + 1) if oracle_tower.frobenius[lv] is not None]
        assert levels == list(range(oracle_tower.n_max + 1))
        for a in levels:
            for b in levels:
                got = tensor_nakayama_matrix(oracle_tower.frobenius[a], oracle_tower.frobenius[b])
                want = oracle_pair_automorphism(oracle_tower, a, b)
                assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
                assert list(got.cols.items()) == list(want.cols.items())
