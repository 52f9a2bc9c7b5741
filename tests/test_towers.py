"""Tower builders, permutation combinatorics, and the tower-level verifications."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from supertower.errors import CocycleError, ValidationError
from supertower.ground import COLLAPSED, FULL, GroundElem, TwistScalar, qpi_factorial
from supertower.linalg import Mat, rank_of_rows
from supertower.reporting import CheckRecord, all_passed
from supertower.superalgebra import (
    AlgebraHom,
    Degree,
    SuperAlgebra,
    algebra_from_dict,
    algebra_to_dict,
    generated_dim,
    graded_dim,
    regular_module,
    tensor_algebra,
    validate_algebra,
    validate_automorphism,
)
from supertower.frobenius import check_frobenius
from supertower.towers import (
    DeclaredModule,
    WreathBasis,
    _ground_det,
    apply_s,
    block_perm,
    build_nilcoxeter,
    build_nilcoxeter_tower,
    build_wreath,
    build_wreath_tower,
    check_S2_dimensions,
    check_double_coset_sizes,
    check_nakayama_closed_form,
    check_tower_axioms,
    check_wr_commutation,
    clifford_base,
    coset_reps,
    double_coset_size,
    double_coset_wr,
    enumerate_double_coset,
    identity_perm,
    left_descents,
    perm_length,
    perm_mult,
    perm_tables,
    tower_pairing_entry,
    trivial_level_algebra,
)

from support import (
    EXTERIOR_BASE,
    all_perms,
    apply_s_by_values,
    dict_path_violations,
    failures,
    straightened_product,
    superperm_apply,
    superperm_sign,
    tensor_tuple_product,
    validate_module,
    word_perm,
)


WREATH_BASES = {
    "clifford": lambda: clifford_base().algebra,
    "exterior": lambda: algebra_from_dict(EXTERIOR_BASE["algebra"], name="exterior"),
}


def _count_fills(monkeypatch) -> list:
    """The list that every product-table fill of an algebra made from now on appends to."""
    fills = []
    init = SuperAlgebra.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fill = self._product_fn
        if fill is not None:
            def counted_fill(i, j):
                fills.append((i, j))
                return fill(i, j)
            self._product_fn = counted_fill

    monkeypatch.setattr(SuperAlgebra, "__init__", counted)
    return fills


def canonical_word(a):
    """The lexicographically minimal reduced word (smallest left descent first)."""
    return perm_tables(len(a))[2][a]


class TestPermCombinatorics:
    def test_canonical_words_are_reduced_and_lex_minimal(self):
        import itertools
        for w in all_perms(4):
            word = canonical_word(w)
            assert len(word) == perm_length(w)
            # the word multiplies out to w
            assert word_perm(word, 4) == w
        # lexicographic minimality, brute force over all reduced words at n = 3
        for w in all_perms(3):
            target = perm_length(w)
            words = [
                word for word in itertools.product(range(2), repeat=target)
                if word_perm(word, 3) == w
            ]
            if words:
                assert canonical_word(w) == min(words)

    def test_apply_s_matches_value_scan(self):
        for n in range(7):
            for a in itertools.permutations(range(n)):
                for i in range(n - 1):
                    assert apply_s(a, i) == apply_s_by_values(a, i)

    def test_coset_reps_counts_and_minimality(self):
        for (n, m) in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            reps = coset_reps(n, m)
            assert len(reps) == comb(n + m, n)
            seen = set()
            for w in reps:
                coset = {perm_mult(block_perm(a, b, n, m), w)
                         for a in all_perms(n) for b in all_perms(m)}
                assert all(perm_length(x) >= perm_length(w) for x in coset)
                seen |= coset
            assert len(seen) == factorial(n + m)

    def test_coset_reps_1_1(self):
        assert sorted(coset_reps(1, 1)) == [(0, 1), (1, 0)]

    def test_wr_examples(self):
        assert double_coset_wr(1, 1, 1, 1, 1) == (0, 1)
        assert double_coset_wr(1, 1, 1, 1, 0) == (1, 0)
        with pytest.raises(ValueError):
            double_coset_wr(1, 1, 1, 1, 2)

    def test_double_coset_size_formula(self):
        assert double_coset_size(2, 1, 2, 1, 1) == 4
        for (n, m, k, l) in [(1, 1, 1, 1), (2, 1, 2, 1), (2, 1, 1, 2), (2, 2, 2, 2), (3, 1, 2, 2)]:
            total = 0
            for r in range(max(0, n - l), min(n, k) + 1):
                w = double_coset_wr(n, m, k, l, r)
                coset = enumerate_double_coset(w, n, m, k, l)
                assert len(coset) == double_coset_size(n, m, k, l, r)
                total += len(coset)
            assert total == factorial(n + m)

    def test_superperm_sign(self):
        # swapping two odd letters flips the sign; even letters do not
        assert superperm_sign((1, 0), (1, 1)) == -1
        assert superperm_sign((1, 0), (1, 0)) == 1
        assert superperm_sign((0, 1), (1, 1)) == 1

    def test_superperm_action_is_multiplicative(self):
        # sanity for the wreath conjugation: sign(vw) = sign chain on a case
        # with all-odd entries, where the sign is the ordinary sign character
        import itertools
        for v in all_perms(3):
            for w in all_perms(3):
                sv = superperm_sign(v, (1, 1, 1))
                sw = superperm_sign(w, (1, 1, 1))
                svw = superperm_sign(perm_mult(v, w), (1, 1, 1))
                assert svw == sv * sw


class TestNilCoxeterBuild:
    def test_dimensions(self):
        for n in (1, 2, 3, 4):
            alg, _ = build_nilcoxeter(n, 1, 1)
            assert alg.dim == factorial(n)

    def test_n2_relations(self):
        alg, basis = build_nilcoxeter(2, 1, 0)
        u1 = basis.index[(1, 0)]
        assert alg.basis_product(u1, u1) == {}

    def test_far_commutation_sign(self):
        alg, basis = build_nilcoxeter(4, 1, 1)
        e = identity_perm(4)
        u1 = basis.index[apply_s(e, 0)]
        u3 = basis.index[apply_s(e, 2)]
        lhs = alg.basis_product(u1, u3)
        rhs = alg.basis_product(u3, u1)
        assert lhs == {k: -c for k, c in rhs.items()}
        alg0, basis0 = build_nilcoxeter(4, 1, 0)
        assert alg0.basis_product(u1, u3) == alg0.basis_product(u3, u1)

    @pytest.mark.parametrize("n,eps", [(3, 0), (3, 1), (4, 1)])
    def test_associativity_audit(self, n, eps):
        alg, _ = build_nilcoxeter(n, 1, eps)
        assert validate_algebra(alg).ok

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0, 1])
    def test_products_match_straightening(self, d, eps):
        for n in range(1, 6):
            alg, basis = build_nilcoxeter(n, d, eps)
            for i in range(alg.dim):
                for j in range(alg.dim):
                    assert alg.basis_product(i, j) == straightened_product(basis, i, j)

    @pytest.mark.parametrize("eps", [0, 1])
    def test_products_match_straightening_sampled_at_6(self, eps):
        alg, basis = build_nilcoxeter(6, 1, eps)
        rng = random.Random(6 + eps)
        for _ in range(2000):
            i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
            assert alg.basis_product(i, j) == straightened_product(basis, i, j)

    def test_graded_dim_is_twisted_factorial(self):
        for (n, d, eps) in [(2, 1, 1), (3, 2, 1), (4, 1, 0)]:
            alg, _ = build_nilcoxeter(n, d, eps)
            assert graded_dim(regular_module(alg)) == qpi_factorial(n, TwistScalar(d, eps))


class TestWreathBuild:
    def test_sergeev_dims(self, sergeev3):
        assert [sergeev3.level(n).dim for n in range(4)] == [1, 2, 8, 48]

    def test_level_one_is_base(self):
        cl = clifford_base()
        alg, _ = build_wreath(cl, WreathBasis(cl.algebra, 1))
        assert alg.dim == 2
        for i in range(2):
            for j in range(2):
                assert alg.basis_product(i, j) == cl.algebra.basis_product(i, j)

    def test_superswap_conjugation(self):
        cl = clifford_base()
        alg, _ = build_wreath(cl, WreathBasis(cl.algebra, 2))
        perms = all_perms(2)
        np_ = len(perms)
        s1 = (0 * 2 + 0) * np_ + perms.index((1, 0))
        cc = (1 * 2 + 1) * np_ + perms.index((0, 1))
        left = alg.product_vec(alg.basis_product(s1, cc), {s1: Fraction(1)})
        assert left == {cc: Fraction(-1)}

    def test_perm_rows_match_perm_mult(self):
        for n in range(5):
            basis = WreathBasis(clifford_base().algebra, n)
            for vx, p in enumerate(basis.perms):
                assert basis.perm_row(vx) == [basis.perm_index[perm_mult(p, q)] for q in basis.perms]

    def test_sergeev4_build_fill_count(self, monkeypatch):
        # the Gram loop reads one partner per row and the closure reads the
        # permutation rows, so a widened partner screen shows up here
        fills = _count_fills(monkeypatch)
        build_wreath_tower(clifford_base(), 4)
        assert len(fills) <= 4036

    @pytest.mark.parametrize("build,count", [
        (lambda: build_wreath_tower(clifford_base(), 4), 3976),
        (lambda: build_nilcoxeter_tower(5, 1, 1), 1087),
    ], ids=["sergeev4", "nilcoxeter5"])
    def test_tower_axioms_fill_count(self, monkeypatch, build, count):
        # the product fills of TA2 and TA3 on a freshly built tower: the pair
        # algebras' tables and the level entries that rho and the coset rows read
        fills = _count_fills(monkeypatch)
        tower = build()
        fills.clear()
        assert all_passed(check_tower_axioms(tower))
        assert len(fills) == count

    def test_wreath_algebra_validates(self, sergeev3):
        assert validate_algebra(sergeev3.level(2)).ok

    def test_sergeev_level2_simple_is_module(self, sergeev3):
        v2 = sergeev3.declared_simples(2)[0].module
        assert validate_module(v2, on_generators=False).ok
        assert graded_dim(v2) == GroundElem({(0, 0): 2, (0, 1): 2})

    @pytest.mark.parametrize("base_name", ["clifford", "exterior"])
    def test_act_table_matches_superperm_sign(self, base_name):
        base = WREATH_BASES[base_name]()
        for n in range(5):
            basis = WreathBasis(base, n)
            for p, v in enumerate(basis.perms):
                for ti, t in enumerate(basis.tuples):
                    sign, moved = superperm_apply(base, v, t)
                    assert basis.act[p][ti] == (sign, basis.tuple_index[moved]), (v, t)

    @pytest.mark.parametrize("base_name", ["clifford", "exterior"])
    def test_tensor_power_matches_tuple_product(self, base_name):
        base = WREATH_BASES[base_name]()
        for n in range(4):
            basis = WreathBasis(base, n)
            for xi, xs in enumerate(basis.tuples):
                for yi, ys in enumerate(basis.tuples):
                    expected = {basis.tuple_index[t]: c
                                for t, c in tensor_tuple_product(base, xs, ys)}
                    assert basis.tensor.basis_product(xi, yi) == expected, (xs, ys)

    def test_tower_builds_one_basis_per_level(self, monkeypatch):
        """``build_wreath``, ``tower.bases`` and the closed form share one basis a level."""
        built = []
        init = WreathBasis.__init__

        def counted(self, base, n):
            init(self, base, n)
            built.append(self)

        monkeypatch.setattr(WreathBasis, "__init__", counted)
        tower = build_wreath_tower(clifford_base(), 3)
        assert [b.n for b in built] == [0, 1, 2, 3]
        assert all(a is b for a, b in zip(built, tower.bases, strict=True))
        for level in (1, 2, 3):
            assert check_nakayama_closed_form(tower, level).passed
        assert len(built) == 4

    def test_every_single_act_flip_is_rejected(self, monkeypatch):
        """Each sign of the Clifford level-2 and level-3 act tables, flipped alone, fails
        the build, and so does a doubled sign in a generator row at level 4."""
        cl = clifford_base()
        init = WreathBasis.__init__
        for n, count in ((2, 8), (3, 48)):
            entries = [(p, t) for p, row in enumerate(WreathBasis(cl.algebra, n).act)
                       for t in range(len(row))]
            assert len(entries) == count
            for p, t in entries:
                def flipped(self, base, n, p=p, t=t):
                    init(self, base, n)
                    sign, u = self.act[p][t]
                    self.act[p][t] = (-sign, u)

                monkeypatch.setattr(WreathBasis, "__init__", flipped)
                with pytest.raises(CocycleError):
                    build_wreath(cl, WreathBasis(cl.algebra, n))

        # a sign of 2 in a transposition's row of the Sergeev level-4 table
        def doubled(self, base, n):
            init(self, base, n)
            p = self.perm_index[apply_s(identity_perm(4), 1)]
            sign, u = self.act[p][5]
            self.act[p][5] = (2 * sign, u)

        monkeypatch.setattr(WreathBasis, "__init__", doubled)
        with pytest.raises(CocycleError):
            build_wreath(cl, WreathBasis(cl.algebra, 4))


def _generator_free_exterior():
    """The exterior base, its ``generators`` field left out."""
    data = {k: v for k, v in EXTERIOR_BASE["algebra"].items() if k != "generators"}
    alg = algebra_from_dict(data, name="exterior")
    assert alg.generators is None
    frob = EXTERIOR_BASE["frobenius"]
    trace = {i: Fraction(*pair) for i, pair in enumerate(frob["trace"]) if pair[0]}
    return check_frobenius(alg, trace, frob["delta"], frob["sigma"])


class TestSlotGenerators:
    def test_generator_free_base_gives_generator_led_levels(self, monkeypatch):
        base = _generator_free_exterior()
        tower = build_wreath_tower(base, 3)
        for n in range(4):
            level = tower.level(n)
            assert level.generators is not None
            assert generated_dim(level) == level.dim
            assert validate_algebra(level).ok
        # a sign of 2 in a transposition's row still fails the build
        init = WreathBasis.__init__

        def doubled(self, base, n):
            init(self, base, n)
            p = self.perm_index[apply_s(identity_perm(3), 1)]
            sign, u = self.act[p][5]
            self.act[p][5] = (2 * sign, u)

        monkeypatch.setattr(WreathBasis, "__init__", doubled)
        with pytest.raises(CocycleError):
            build_wreath(base, WreathBasis(base.algebra, 3))


class TestTowerChecks:
    def test_axioms_nilcoxeter(self, nc4_11):
        recs = check_tower_axioms(nc4_11)
        assert all_passed(recs), failures(recs)[:3]

    def test_axioms_sergeev(self, sergeev3):
        recs = check_tower_axioms(sergeev3)
        assert all_passed(recs), failures(recs)[:3]

    def test_tampered_rho_fails(self):
        tower = build_nilcoxeter_tower(3, 1, 0, frobenius_cap=0)
        rho = tower.rho(1, 2)
        rho.images[1] = {0: Fraction(1)}  # corrupt the image of a nilpotent generator
        recs = check_tower_axioms(tower)
        assert any(r.check == "TA2-external-multiplication" and not r.passed for r in recs)

    def test_doubled_unit_image_fails_ta2(self):
        tower = build_nilcoxeter_tower(3, 1, 0, frobenius_cap=0)
        rho = tower.rho(1, 2)
        (u,) = rho.source.unit
        rho.images[u] = {k: 2 * c for k, c in rho.images[u].items()}
        bad = [r for r in failures(check_tower_axioms(tower))
               if r.check == "TA2-external-multiplication"]
        assert [r.indices for r in bad] == [(1, 2)]
        assert "unit preservation" in bad[0].detail

    def test_ta3_fails_on_dependent_rows(self, monkeypatch, sergeev3):
        # a repeated coset representative repeats rows: the rank still reaches
        # the dimension, so only the row count can reject the basis
        import supertower.towers as towers

        reps = towers.coset_reps
        monkeypatch.setattr(towers, "coset_reps", lambda n, m: reps(n, m) + reps(n, m)[:1])
        for tower in (build_nilcoxeter_tower(3, 1, 0, frobenius_cap=0), sergeev3):
            dim = tower.level(3).dim
            recs = towers._check_ta3_freeness(tower, 1, 2)
            assert [(r.check, r.passed, r.lhs, r.rhs) for r in recs] == [
                (f"TA3-{side}-freeness", False, f"rank {dim}", f"dim {dim}")
                for side in ("left", "right")
            ]

    def test_S2_instances(self, nc4_11):
        for (n, m, k, l) in [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 3, 1), (2, 2, 2, 2)]:
            recs = check_S2_dimensions(nc4_11, n, m, k, l)
            assert all_passed(recs), failures(recs)[:2]

    def test_S2_trivial_splitting(self, nc4_11):
        recs = check_S2_dimensions(nc4_11, 2, 1, 3, 0)
        assert all_passed(recs)

    def test_S2_wreath_trivial_twist(self, sergeev3):
        for (n, m, k, l) in [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 2, 1)]:
            recs = check_S2_dimensions(sergeev3, n, m, k, l)
            assert all_passed(recs), failures(recs)[:2]

    def test_S2_suite_counts_each_level_once(self, monkeypatch):
        import supertower.towers as towers
        from supertower.cli import _suite_S2

        tower = build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0)
        fresh = _suite_S2(build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0), None, None)
        counted = []
        graded_dim = towers.graded_dim

        def spy(space):
            counted.append(space)
            return graded_dim(space)

        monkeypatch.setattr(towers, "graded_dim", spy)
        runs = [_suite_S2(tower, None, None) for _ in range(2)]
        levels = [tower.level(j) for j in range(tower.n_max + 1)]
        assert sorted(levels.index(alg) for alg in counted) == list(range(tower.n_max + 1))
        assert runs[0] == runs[1] == fresh

    def test_wr_commutation_sergeev(self, sergeev3):
        recs = check_wr_commutation(sergeev3, 1, 1, 1, 1, 0)
        assert all_passed(recs)

    def test_wr_commutation_nilcoxeter_eps1(self, nc4_11):
        recs = check_wr_commutation(nc4_11, 2, 1, 2, 1, 1)
        assert all_passed(recs)

    def test_wr_commutation_max_r_trivial(self, nc4_11):
        recs = check_wr_commutation(nc4_11, 2, 2, 2, 2, 2)
        assert all_passed(recs)
        assert double_coset_wr(2, 2, 2, 2, 2) == identity_perm(4)

    def test_double_coset_checks(self, nc4_11):
        recs = check_double_coset_sizes(nc4_11, 2, 1, 2, 1)
        assert all_passed(recs)

    def test_nakayama_closed_forms(self, nc4_11, sergeev3):
        for lv in range(5):
            assert check_nakayama_closed_form(nc4_11, lv).passed
        for lv in range(4):
            assert check_nakayama_closed_form(sergeev3, lv).passed
        # a passing record carries no detail
        assert check_nakayama_closed_form(nc4_11, 3).detail == ""

    def test_step_hom_validates(self, nc4_11):
        for n in (1, 2, 3):
            assert nc4_11.step_hom(n).validate().ok

    def test_truncation_guard(self, nc4_11):
        with pytest.raises(ValidationError):
            nc4_11.level(5)


def _multiterm_base():
    """A commutative even base whose basis products have two terms: x*x = x + 1."""
    base = SuperAlgebra(
        labels=["1", "x"],
        degrees=[Degree(0, 0), Degree(0, 0)],
        unit={0: Fraction(1)},
        products={
            (0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
            (1, 0): {1: Fraction(1)}, (1, 1): {0: Fraction(1), 1: Fraction(1)},
        },
        generators=[1],
    )
    return check_frobenius(base, {1: Fraction(1)}, 0, 0)


class TestGenericWreathBase:
    def test_multiterm_base_products(self):
        # checks the generic tensor-product expansion paths
        tower = build_wreath_tower(_multiterm_base(), 2)
        assert tower.level(2).dim == 8
        assert validate_algebra(tower.level(2)).ok
        recs = check_tower_axioms(tower)
        assert all_passed(recs), failures(recs)[:3]
        for (n, m, k, l) in [(1, 1, 1, 1), (2, 0, 1, 1)]:
            assert all_passed(check_S2_dimensions(tower, n, m, k, l))
        assert all_passed(check_wr_commutation(tower, 1, 1, 1, 1, 0))
        assert check_nakayama_closed_form(tower, 2).passed

    def test_multiterm_base_takes_the_dict_path(self, monkeypatch):
        # a spy on the signed reads: over the x*x = x + 1 base, which keeps
        # dict tables at every level and pair, only the ground field's signed
        # table is read; over Clifford the levels' tables are read too
        reads = []
        signed_product = SuperAlgebra.signed_product

        def spy(self, i, j):
            reads.append(self.name)
            return signed_product(self, i, j)

        monkeypatch.setattr(SuperAlgebra, "signed_product", spy)
        for frob, signed in ((_multiterm_base(), False), (clifford_base(), True)):
            reads.clear()
            tower = build_wreath_tower(frob, 3)
            assert all_passed(check_tower_axioms(tower))
            levels = tower.algebras[1:] + list(tower._pair_algebras.values())
            assert {alg.signed for alg in levels} == {signed}
            assert bool(set(reads) - {"ground-field"}) == signed


# -- the per-family basis objects against the index logic they replaced --------


def _oracle_wreath_shift(base, inner_level, idx, offset, total_level):
    """Embedding by enumerating tuples and permutations from scratch."""
    unit_b = next(iter(base.unit))
    perms_in = all_perms(inner_level)
    ti, pi = divmod(idx, len(perms_in))
    t = list(itertools.product(range(base.dim), repeat=inner_level))[ti]
    w = perms_in[pi]
    full_t = tuple(
        t[p - offset] if offset <= p < offset + inner_level else unit_b
        for p in range(total_level)
    )
    ext = list(range(total_level))
    for p in range(inner_level):
        ext[offset + p] = w[p] + offset
    perms_out = all_perms(total_level)
    tuples_out = list(itertools.product(range(base.dim), repeat=total_level))
    return tuples_out.index(full_t) * len(perms_out) + perms_out.index(tuple(ext))


def _oracle_wreath_perm_element(base, level, w):
    unit_b = next(iter(base.unit))
    perms = all_perms(level)
    tuples = list(itertools.product(range(base.dim), repeat=level))
    return tuples.index(tuple(unit_b for _ in range(level))) * len(perms) + perms.index(w)


def _oracle_nilcoxeter_shift(inner_level, idx, offset, total_level):
    w = all_perms(inner_level)[idx]
    ext = list(range(total_level))
    for p in range(inner_level):
        ext[offset + p] = w[p] + offset
    return all_perms(total_level).index(tuple(ext))


def _oracle_canonical_word(a):
    """Strip the smallest left descent until none is left."""
    word = []
    while True:
        ds = left_descents(a)
        if not ds:
            return tuple(word)
        word.append(ds[0])
        a = apply_s(a, ds[0])


def _embedding_cases(max_total):
    for total in range(max_total + 1):
        for inner in range(total + 1):
            for offset in range(total - inner + 1):
                yield inner, offset, total


def _trivial_base():
    return check_frobenius(trivial_level_algebra(), {0: Fraction(1)}, 0, 0)


class TestBasisObjects:
    @pytest.mark.parametrize("make_base", [clifford_base, _trivial_base])
    def test_wreath_indices_match_enumeration(self, make_base):
        base_frob = make_base()
        tower = build_wreath_tower(base_frob, 3)
        base = base_frob.algebra
        for inner, offset, total in _embedding_cases(3):
            for idx in range(tower.level(inner).dim):
                got = tower.shift_basis_index(inner, idx, offset, total)
                if inner == 0:
                    assert got == next(iter(tower.level(total).unit))
                else:
                    assert got == _oracle_wreath_shift(base, inner, idx, offset, total)
        for level in range(1, 4):
            for w in all_perms(level):
                assert tower.perm_element_index(level, w) == \
                    _oracle_wreath_perm_element(base, level, w)
        assert tower.perm_element_index(0, ()) == 0

    def test_nilcoxeter_indices_match_enumeration(self, nc4_11):
        for inner, offset, total in _embedding_cases(4):
            for idx in range(nc4_11.level(inner).dim):
                got = nc4_11.shift_basis_index(inner, idx, offset, total)
                if inner == 0:
                    assert got == next(iter(nc4_11.level(total).unit))
                else:
                    assert got == _oracle_nilcoxeter_shift(inner, idx, offset, total)
        for level in range(5):
            for w in all_perms(level):
                assert nc4_11.perm_element_index(level, w) == all_perms(level).index(w)

    def test_wreath_unindex_inverts_index(self):
        for n in range(4):
            basis = WreathBasis(clifford_base().algebra, n)
            for t in basis.tuples:
                for w in basis.perms:
                    assert basis.unindex(basis.index(t, w)) == (t, w)
            assert [basis.index(*basis.unindex(i)) for i in range(2 ** n * factorial(n))] == \
                list(range(2 ** n * factorial(n)))

    def test_word_table_matches_descent_stripping(self):
        for n in range(6):
            for w in all_perms(n):
                assert canonical_word(w) == _oracle_canonical_word(w)

    def test_wreath_labels_match_old_formula(self):
        cl = clifford_base()
        base = cl.algebra
        for n in (1, 2, 3):
            alg, _ = build_wreath(cl, WreathBasis(cl.algebra, n))
            expected = []
            for t in itertools.product(range(base.dim), repeat=n):
                tlabel = "(" + ",".join(base.labels[b] for b in t) + ")"
                for p in all_perms(n):
                    plabel = "".join(f"s{i+1}" for i in _oracle_canonical_word(p)) or "e"
                    expected.append(f"{tlabel}{plabel}")
            assert alg.labels == expected

    def test_wreath_embedding_needs_single_basis_unit(self):
        from supertower.superalgebra import Degree, SuperAlgebra
        split = SuperAlgebra(
            labels=["e0", "e1"], degrees=[Degree(0, 0), Degree(0, 0)],
            unit={0: Fraction(1), 1: Fraction(1)},
            products={(0, 0): {0: Fraction(1)}, (1, 1): {1: Fraction(1)}},
        )
        basis = WreathBasis(split, 2)
        with pytest.raises(ValidationError, match="unit is one basis vector"):
            basis.perm_element((1, 0))
        with pytest.raises(ValidationError, match="unit is one basis vector"):
            basis.embed(WreathBasis(split, 1), 0, 1)
        # an embedding that fills no slot needs no unit
        assert basis.embed(basis, 3, 0) == 3


# -- generator-led validation against the all-pairs loops it replaced ----------


def _all_pairs_hom_violations(phi):
    """Oracle: the homomorphism check on every source basis pair."""
    src, tgt = phi.source, phi.target
    bad = []
    for i in range(src.dim):
        for k, c in phi.images[i].items():
            if c and tgt.degrees[k] != src.degrees[i]:
                bad.append(("degree preservation", (i, k)))
    if phi.unit_image() != tgt.unit:
        bad.append(("unit preservation", ()))
    for i in range(src.dim):
        for j in range(src.dim):
            if phi.apply_vec(src.basis_product(i, j)) != \
                    tgt.product_vec(phi.images[i], phi.images[j]):
                bad.append(("multiplicativity", (i, j)))
    return bad


def _old_automorphism_violations(alg, tau):
    """Oracle: the automorphism check with its own generator-times-basis loop."""
    bad = []
    for j in range(alg.dim):
        for i, c in tau.cols.get(j, {}).items():
            if c and alg.degrees[i] != alg.degrees[j]:
                bad.append(("degree preservation", (i, j)))
    if rank_of_rows(tau.col(j) for j in range(alg.dim)) != alg.dim:
        bad.append(("invertibility", ()))
    if tau.apply(alg.unit) != alg.unit:
        bad.append(("unit preservation", ()))
    left_factors = alg.generators if alg.generators is not None else range(alg.dim)
    for i in left_factors:
        for j in range(alg.dim):
            if tau.apply(alg.basis_product(i, j)) != alg.product_vec(tau.col(i), tau.col(j)):
                bad.append(("multiplicativity", (i, j)))
    return bad


def _tower_homs(tower):
    for n in range(tower.n_max + 1):
        for m in range(tower.n_max + 1 - n):
            yield tower.rho(n, m)
    for n in range(tower.n_max):
        yield tower.step_hom(n)


def _corrupt_image(phi, rng):
    """A copy of ``phi`` with one image coefficient doubled."""
    images = [dict(v) for v in phi.images]
    t = rng.choice([t for t, v in enumerate(images) if v])
    k = rng.choice(sorted(images[t]))
    images[t][k] *= 2
    return AlgebraHom(phi.source, phi.target, images, name=f"{phi.name}*")


class TestGeneratorLedValidation:
    @pytest.mark.parametrize("tower_name", ["nc4_11", "sergeev3"])
    def test_every_tower_map_is_unital(self, tower_name, request):
        # TA2: each rho(n, m) sends 1 (x) 1 to 1, and so does each step
        tower = request.getfixturevalue(tower_name)
        for phi in _tower_homs(tower):
            assert phi.unit_image() == phi.target.unit, phi.name

    @pytest.mark.parametrize("tower_name", ["nc4_11", "sergeev3"])
    def test_homs_agree_with_all_pairs(self, tower_name, request):
        tower = request.getfixturevalue(tower_name)
        for phi in _tower_homs(tower):
            assert phi.validate().ok
            assert _all_pairs_hom_violations(phi) == []

    @pytest.mark.parametrize("tower_name", ["nc4_11", "sergeev3"])
    def test_corrupted_rho_agrees_with_all_pairs(self, tower_name, request):
        tower = request.getfixturevalue(tower_name)
        rng = random.Random(11)
        verdicts = []
        for n in range(tower.n_max + 1):
            for m in range(tower.n_max + 1 - n):
                for _ in range(3):
                    bad = _corrupt_image(tower.rho(n, m), rng)
                    verdicts.append(bad.validate().ok)
                    assert verdicts[-1] == (not _all_pairs_hom_violations(bad))
        # doubling the image of a nilpotent element can leave a homomorphism;
        # most corruptions are not
        assert verdicts.count(False) > 2 * verdicts.count(True)

    @pytest.mark.parametrize("tower_name", ["nc4_11", "sergeev3"])
    def test_nakayama_maps_agree_with_old_loop(self, tower_name, request):
        tower = request.getfixturevalue(tower_name)
        rng = random.Random(5)
        for frob in tower.frobenius:
            if frob is None:
                continue
            alg, psi = frob.algebra, frob.nakayama
            assert validate_automorphism(alg, psi).ok
            assert _old_automorphism_violations(alg, psi) == []
            # double one entry of the map
            bad = Mat(psi.nrows, psi.ncols, psi.cols)
            j = rng.choice(sorted(bad.cols))
            i = rng.choice(sorted(bad.cols[j]))
            bad.cols[j][i] *= 2
            assert not validate_automorphism(alg, bad).ok
            assert _old_automorphism_violations(alg, bad)

    def test_declared_generators_span(self, nc4_11, sergeev3):
        for n in range(1, 6):
            alg, _ = build_nilcoxeter(n, 1, 1)
            assert generated_dim(alg) == alg.dim
        for tower in (nc4_11, sergeev3):
            for n in range(tower.n_max + 1):
                assert generated_dim(tower.level(n)) == tower.level(n).dim
                for m in range(tower.n_max + 1 - n):
                    pair = tower.pair_algebra(n, m)
                    assert pair.generators is not None
                    assert generated_dim(pair) == pair.dim


# -- the one-entry index reads of AlgebraHom.validate against the dict path ------------


HOM_TWISTS = [(1, 0), (1, 1), (0, 1), (2, 1)]


@pytest.fixture(scope="module")
def hom_towers():
    towers = {f"nc5_{d}{eps}": build_nilcoxeter_tower(5, d, eps) for d, eps in HOM_TWISTS}
    towers["sergeev3"] = build_wreath_tower(clifford_base(), 3)
    return towers


def _nakayama_hom(frob):
    alg, psi = frob.algebra, frob.nakayama
    return AlgebraHom(alg, alg, [psi.col(j) for j in range(alg.dim)], name=f"psi({alg.name})")


def _every_map(tower):
    yield from _tower_homs(tower)
    for frob in tower.frobenius:
        if frob is not None:
            yield _nakayama_hom(frob)


def _flip_sign(phi, t):
    images = [dict(v) for v in phi.images]
    images[t] = {k: -c for k, c in images[t].items()}
    return AlgebraHom(phi.source, phi.target, images)


def _swap(phi, t, u):
    images = [dict(v) for v in phi.images]
    images[t], images[u] = images[u], images[t]
    return AlgebraHom(phi.source, phi.target, images)


def _negated_entry(phi, a, b):
    """``phi`` on a signed-table copy of its source whose entry of ``e_a e_b`` is negated."""
    src = phi.source
    table = {(i, j): src.signed_product(i, j) for i in range(src.dim) for j in range(src.dim)}
    c, k = table[(a, b)]
    table[(a, b)] = (-c, k)
    negated = SuperAlgebra(src.labels, src.degrees, src.unit, products=table,
                           generators=src.generators, name=f"{src.name}-", signed=True)
    return AlgebraHom(negated, phi.target, phi.images)


def _changed_constant(phi, a, b, k):
    """``phi`` on a copy of its source whose ``e_a e_b`` has its ``e_k`` coefficient doubled."""
    src = phi.source
    products = {key: dict(v) for key, v in src.struct_consts().items()}
    products[(a, b)][k] *= 2
    changed = SuperAlgebra(src.labels, src.degrees, src.unit, products=products,
                           generators=src.generators, name=f"{src.name}*")
    return AlgebraHom(changed, phi.target, phi.images)


def _dict_table_copy(alg):
    return algebra_from_dict(algebra_to_dict(alg), name=f"{alg.name}[dict]")


def _assert_entries_match(signed, dict_table):
    """Every signed entry of ``signed`` is the dict product of ``dict_table``."""
    assert signed.signed and not dict_table.signed
    assert signed.dim == dict_table.dim
    for i in range(signed.dim):
        for j in range(signed.dim):
            got = signed.signed_product(i, j)
            assert ({got[1]: got[0]} if got else {}) == dict_table.basis_product(i, j), (i, j)


class TestSignedTableMatchesDictPath:
    @pytest.mark.parametrize("d,eps", HOM_TWISTS)
    def test_nilcoxeter_levels_and_pairs(self, d, eps):
        # the levels against their dict-table copies, and the Koszul entries
        # of each pair algebra against the tensor of those copies
        levels = [trivial_level_algebra()] + [build_nilcoxeter(n, d, eps)[0] for n in range(1, 6)]
        copies = [_dict_table_copy(alg) for alg in levels]
        for n, alg in enumerate(levels):
            _assert_entries_match(alg, copies[n])
            for m in range(1, 6 - n):
                _assert_entries_match(tensor_algebra(alg, levels[m]), tensor_algebra(copies[n], copies[m]))

    def test_sergeev_levels_and_pairs(self):
        # the same levels built over the signed Clifford table and over its
        # dict-table copy, whose tensor powers and wreath products fill dicts
        cl = clifford_base()
        dict_cl = check_frobenius(_dict_table_copy(cl.algebra), cl.trace, cl.delta, cl.sigma)
        signed_tower, dict_tower = build_wreath_tower(cl, 3), build_wreath_tower(dict_cl, 3)
        _assert_entries_match(signed_tower.level(0), _dict_table_copy(dict_tower.level(0)))
        for n in range(1, 4):
            _assert_entries_match(signed_tower.level(n), dict_tower.level(n))
            for m in range(1, 4 - n):
                _assert_entries_match(signed_tower.pair_algebra(n, m), dict_tower.pair_algebra(n, m))


class TestIndexReadsMatchDictPath:
    @pytest.mark.parametrize("name", [f"nc5_{d}{eps}" for d, eps in HOM_TWISTS] + ["sergeev3"])
    def test_tower_maps(self, name, hom_towers):
        # every rho, every step and every solved Nakayama map
        for phi in _every_map(hom_towers[name]):
            assert phi.validate().violations == dict_path_violations(phi) == [], phi.name

    @pytest.mark.parametrize("name", [f"nc5_{d}{eps}" for d, eps in HOM_TWISTS] + ["sergeev3"])
    def test_seeded_corruptions_are_caught(self, name, hom_towers):
        # each corruption breaks an injective map at a pair the validator
        # checks: the flipped or swapped images belong to products of a
        # generator, and the changed constant is a generator's
        rng = random.Random(23)
        checked = 0
        for phi in _every_map(hom_towers[name]):
            src = phi.source
            leading = src.leading_factors()
            inner = [t for t in range(src.dim) if t not in leading]
            if len(inner) < 2:
                continue
            t, u = rng.sample(inner, 2)
            a = rng.choice([g for g in leading if g not in src.unit])
            b = rng.choice([b for b in range(src.dim) if src.basis_product(a, b)])
            k = rng.choice(sorted(src.basis_product(a, b)))
            for bad in (_flip_sign(phi, t), _swap(phi, t, u), _changed_constant(phi, a, b, k),
                        _negated_entry(phi, a, b)):
                got = bad.validate().violations
                assert got, phi.name
                assert got == dict_path_violations(bad), phi.name
                checked += 1
        assert checked >= 32

    @pytest.mark.parametrize("name", [f"nc5_{d}{eps}" for d, eps in HOM_TWISTS] + ["sergeev3"])
    def test_tower_maps_take_the_signed_path(self, name, hom_towers, monkeypatch):
        # every map of these towers has one-term images between signed
        # tables, so validate reads signed entries and forms no dict product
        def refused(*args):
            raise AssertionError("dict product on the signed path")

        maps = list(_every_map(hom_towers[name]))
        assert all(phi.source.signed and phi.target.signed for phi in maps)
        monkeypatch.setattr(SuperAlgebra, "basis_product", refused)
        monkeypatch.setattr(SuperAlgebra, "product_vec", refused)
        for phi in maps:
            assert phi.validate().ok, phi.name

    def test_stored_zero_structure_constant(self):
        # x x = 0 xy stored explicitly: the one-entry reads must drop the zero
        # on whichever side it appears, as vec_axpy does.  A base file's zero
        # row stores nothing, so the zero is planted in the table
        plain = algebra_from_dict(EXTERIOR_BASE["algebra"], name="exterior")
        zeroed = algebra_from_dict(EXTERIOR_BASE["algebra"], name="exterior0")
        zeroed._products[(1, 1)] = {3: 0}
        assert zeroed.basis_product(1, 1) == {3: 0}
        ident = [{i: 1} for i in range(4)]
        for src, tgt in ((zeroed, plain), (plain, zeroed), (zeroed, zeroed)):
            phi = AlgebraHom(src, tgt, ident)
            assert phi.validate().violations == dict_path_violations(phi) == []

    def test_image_coefficient_two(self):
        ext = algebra_from_dict(EXTERIOR_BASE["algebra"], name="exterior")
        scaled = AlgebraHom(ext, ext, [{0: 1}, {1: 2}, {2: 1}, {3: 2}])
        assert scaled.validate().violations == dict_path_violations(scaled) == []
        # the same map with a stored zero in the image of x
        padded = AlgebraHom(ext, ext, [{0: 1}, {1: 2, 2: 0}, {2: 1}, {3: 2}])
        assert padded.validate().violations == dict_path_violations(padded) == []
        bad = AlgebraHom(ext, ext, [{0: 1}, {1: 2}, {2: 1}, {3: 1}])
        assert bad.validate().violations == dict_path_violations(bad) == [
            ("multiplicativity", (1, 2)), ("multiplicativity", (2, 1))]


# -- trivial splittings: the level is its own pair algebra ---------------------------


TRIVIAL_SPLIT_TOWERS = {
    "nc4_11": lambda: build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0),
    "nc4_20": lambda: build_nilcoxeter_tower(4, 2, 0, frobenius_cap=0),
    "sergeev3": lambda: build_wreath_tower(clifford_base(), 3),
}

# doubles the image of one generator of level m in rho(0, m) and rho(m, 0)
# and prints each failing TA2 record as (indices, detail)
CORRUPT_TRIVIAL_RHO = """
import json
from supertower.towers import build_nilcoxeter_tower, build_wreath_tower, check_tower_axioms, clifford_base
out = []
for tower, m in ((build_nilcoxeter_tower(3, 1, 1, frobenius_cap=0), 3),
                 (build_wreath_tower(clifford_base(), 2), 2)):
    g = tower.level(m).generating_set()[-1]
    for key in ((0, m), (m, 0)):
        rho = tower.rho(*key)
        rho.images[g] = {k: 2 * c for k, c in rho.images[g].items()}
    out.append([[list(r.indices), r.detail] for r in check_tower_axioms(tower)
                if r.check == "TA2-external-multiplication" and not r.passed])
print(json.dumps(out))
"""


class TestTrivialSplitting:
    @pytest.mark.parametrize("name", sorted(TRIVIAL_SPLIT_TOWERS))
    def test_koszul_tensor_with_the_ground_level_is_the_level(self, name):
        tower = TRIVIAL_SPLIT_TOWERS[name]()
        ground = tower.level(0)
        for n in range(tower.n_max + 1):
            alg = tower.level(n)
            assert tower.pair_algebra(0, n) is alg and tower.pair_algebra(n, 0) is alg
            assert tower.rho(0, n).source is alg and tower.rho(n, 0).source is alg
            for pair in (tensor_algebra(ground, alg), tensor_algebra(alg, ground)):
                assert pair.dim == alg.dim
                assert pair.degrees == alg.degrees
                assert pair.unit == alg.unit
                assert pair.generating_set() == alg.generating_set()
                assert pair.leading_factors() == alg.leading_factors()
                for i in range(alg.dim):
                    for j in range(alg.dim):
                        got, want = pair.basis_product(i, j), alg.basis_product(i, j)
                        assert got == want and list(got) == list(want), (name, n, i, j)
        assert not tower._pair_algebras

    def test_corrupted_trivial_split_rho_fails_ta2_as_over_the_koszul_pair(self):
        expected = []
        for tower, m in ((build_nilcoxeter_tower(3, 1, 1, frobenius_cap=0), 3),
                         (build_wreath_tower(clifford_base(), 2), 2)):
            g = tower.level(m).generating_set()[-1]
            records = []
            for n, k in ((0, m), (m, 0)):
                images = [dict(v) for v in tower.rho(n, k).images]
                images[g] = {t: 2 * c for t, c in images[g].items()}
                koszul = tensor_algebra(tower.level(n), tower.level(k))
                violations = AlgebraHom(koszul, tower.level(m), images).validate().violations
                assert violations
                records.append([[n, k], str(violations[:3])])
            expected.append(records)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-c", CORRUPT_TRIVIAL_RHO],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == expected, flags


# -- TA4 and the crossing relation on corrupted data ------------------------------------


Q, PI, ONE, ZERO = (GroundElem.monomial(1), GroundElem.monomial(0, 1),
                    GroundElem.one(), GroundElem.zero())


class TestGroundDeterminant:
    def test_two_by_two(self):
        # q * q - pi * 1
        assert _ground_det([[Q, PI], [ONE, Q]]) == GroundElem({(2, 0): 1, (0, 1): -1})

    def test_three_by_three(self):
        # expansion along the first row: 1 * (1 - 0) - q * (pi - q^2) + 0
        rows = [[ONE, Q, ZERO], [PI, ONE, Q], [Q, ZERO, ONE]]
        assert _ground_det(rows) == GroundElem({(0, 0): 1, (3, 0): 1, (1, 1): -1})

    def test_dependent_rows_give_zero(self):
        # the second row is q times the first
        rows = [[ONE, Q, PI], [Q, Q * Q, Q * PI], [PI, ONE, Q]]
        assert _ground_det(rows).is_zero()

    def test_collapsed_two_by_two(self):
        half = GroundElem({(0, 0): Fraction(1, 2)}, COLLAPSED)
        two = GroundElem.from_int(2, COLLAPSED)
        q = GroundElem.monomial(1, 0, 1, COLLAPSED)
        # 2 * 2 - q * (1/2): not a unit, unlike either diagonal entry
        det = _ground_det([[two, q], [half, two]])
        assert det == GroundElem({(0, 0): 4, (1, 0): Fraction(-1, 2)}, COLLAPSED)
        assert not det.is_unit()


class TestCorruptedTowerData:
    @pytest.mark.parametrize("build,level,mode", [
        (lambda: build_nilcoxeter_tower(2, 1, 1, frobenius_cap=0), 2, FULL),
        (lambda: build_wreath_tower(clifford_base(), 2), 1, COLLAPSED),
    ])
    def test_twice_declared_pair_fails_ta4(self, build, level, mode):
        tower = build()
        assert all_passed(check_tower_axioms(tower))
        tower.simples[level] = tower.simples[level] * 2
        tower.projectives[level] = tower.projectives[level] * 2
        bad = failures(check_tower_axioms(tower))
        assert [(r.check, r.indices, r.lhs, r.rhs) for r in bad] == [
            ("TA4-perfect-pairing", (level,), "0", "a unit of the coefficient ring")]
        entry = tower_pairing_entry(tower, tower.projectives[level][0], tower.simples[level][0])
        assert entry.mode == mode and entry.is_unit()

    @pytest.mark.parametrize("build,args,count,first", [
        (lambda: build_wreath_tower(clifford_base(), 2), (1, 1, 1, 1, 0), 4, (None, 1, None, None)),
        (lambda: build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0), (2, 2, 2, 2, 0), 4,
         (None, 1, None, None)),
    ])
    def test_negated_crossing_product_fails_commutation(self, build, args, count, first):
        # negate u_w times the second block's first generator: the first
        # tuple that reads this product carries that generator alone
        tower = build()
        n, m, k, l, r = args
        alg = tower.level(n + m)
        assert all_passed(check_wr_commutation(tower, *args))
        uw = tower.perm_element_index(n + m, double_coset_wr(*args))
        g = tower.level(n - r).generating_set()[0]
        idx = tower.shift_basis_index(n - r, g, r, n + m)
        prod = alg.basis_product(uw, idx)
        assert prod
        c, t = alg.signed_product(uw, idx)
        alg._products[(uw, idx)] = (-c, t)
        (rec,) = check_wr_commutation(tower, *args)
        assert rec == CheckRecord(
            "crossing-commutation", args, False, lhs=f"{count} generator tuples",
            rhs="crossing relation with predicted sign", detail=f"first failing tuple {first}",
        )


    def test_ground_level_of_dimension_two_fails_ta1(self):
        # the trivial splittings read A_0 as the ground field, so TA1 is the one record
        tower = build_nilcoxeter_tower(2, 1, 1, frobenius_cap=0)
        tower.algebras[0] = clifford_base().algebra
        assert [r.to_dict() for r in check_tower_axioms(tower)] == [CheckRecord(
            "TA1-ground-level", (), False, lhs="2", rhs="1").to_dict()]

    def test_shifted_level_shift_fails_biadditivity(self):
        # raising the level-2 shift breaks the difference at every pair that
        # reads it once: (1, 1) through A_2, (1, 2) and (2, 1) through A_2 alone
        tower = build_nilcoxeter_tower(3, 1, 1, frobenius_cap=0)
        assert all_passed(check_tower_axioms(tower))
        z, par = tower.shifts[2]
        tower.shifts[2] = (z + 1, par)
        bad = failures(check_tower_axioms(tower))
        assert [(r.check, r.indices, r.lhs, r.rhs) for r in bad] == [
            ("shift-biadditivity", (1, 1), "(2,1)", "(1,1)"),
            ("shift-biadditivity", (1, 2), "(1,0)", "(2,0)"),
            ("shift-biadditivity", (2, 1), "(1,0)", "(2,0)"),
        ]

    def test_negated_signed_entry_fails_ta2(self):
        # u_1 times the unit of A_2 negated in the signed table: the sources
        # A_1 (x) A_2, A_2 (x) A_1 and A_2 (x) A_2 read it and their targets do
        # not, so (1, 2) is the first failing pair.  The trivial splittings read
        # it on both sides and pass
        tower = build_nilcoxeter_tower(4, 1, 1, frobenius_cap=0)
        alg = tower.level(2)
        g, (u,) = alg.generators[0], alg.unit
        c, k = alg.signed_product(g, u)
        alg._products[(g, u)] = (-c, k)
        bad = failures(check_tower_axioms(tower))
        assert [(r.check, r.indices) for r in bad] == [
            ("TA2-external-multiplication", (1, 2)), ("TA2-external-multiplication", (2, 1)),
            ("TA2-external-multiplication", (2, 2))]
        for rec in bad:
            rho = tower.rho(*rec.indices)
            assert rho.source.signed and rho.target.signed
            violations = rho.validate().violations
            assert violations == dict_path_violations(rho)
            assert rec.detail == str(violations[:3])
        assert bad[0].detail == "[('multiplicativity', (1, 0))]"

    def test_zeroed_signed_entry_fails_ta3(self):
        # the unit times u_1 set to zero in A_2: the left coset rows of (1, 1)
        # are 1 and u_1, and the second vanishes.  TA2 still passes: rho(0, 2)
        # sends u_1 to zero, which the nilCoxeter relations allow
        tower = build_nilcoxeter_tower(2, 1, 1, frobenius_cap=0)
        alg = tower.level(2)
        g, (u,) = alg.generators[0], alg.unit
        alg._products[(u, g)] = None
        bad = failures(check_tower_axioms(tower))
        assert [(r.check, r.indices, r.lhs, r.rhs) for r in bad] == [
            ("TA3-left-freeness", (1, 1), "rank 1", "dim 2")]
        # the dict-path rank of the same rows
        (image,) = tower.rho(1, 1).images
        assert rank_of_rows(alg.product_vec(image, {uw: 1}) for uw in (u, g)) == 1


class TestCollapsedRing:
    def test_type_q_simples_collapse_the_ring(self, nc4_11, sergeev3):
        assert sergeev3.collapsed and build_wreath_tower(clifford_base(), 1).collapsed
        assert not nc4_11.collapsed
        assert not build_wreath_tower(_generator_free_exterior(), 2).collapsed

    def test_declaring_a_type_q_simple_collapses(self):
        tower = build_nilcoxeter_tower(2, 1, 1, frobenius_cap=0)
        (simple,) = tower.simples[1]
        tower.simples[1] = [DeclaredModule(simple.label, simple.module, "Q")]
        assert tower.collapsed
