"""The smash product, Fock action, Weyl relation and truncation-wide checks."""

import itertools
import random

import pytest

from supertower.errors import ExactDivisionError, TruncationError, ValidationError
from supertower.ground import GroundElem, TwistScalar, divide_exact, qpi_integer
from supertower.grothendieck import G_SIDE, K_SIDE, GrothLayer, GrothVector
from supertower.heisenberg import (
    HeisenbergDouble,
    HeisenbergElem,
    TwistDataSet,
    _laurent_rows_rank,
    _ring_multiple,
    categorified_weyl_shadow,
    check_action_compat,
    check_compatibility,
    check_faithfulness_truncated,
    check_general_relation,
    derive_xi,
    weyl_check,
)
from supertower.reporting import CheckRecord, all_passed
from supertower.towers import build_nilcoxeter_tower

from support import (
    failures,
    lowering_elem,
    rebuilt_delta,
    rebuilt_nabla,
    rebuilt_regular_action,
    unmemoised_fock_act,
    unmemoised_smash,
)


@pytest.fixture(scope="module")
def dbl11(layer6_11):
    return HeisenbergDouble(layer6_11)


@pytest.fixture(scope="module")
def dbl10(layer6_10):
    return HeisenbergDouble(layer6_10)


class TestTwistData:
    def test_xi_zero(self):
        assert derive_xi((0, 0), (0, 0)) == (0, 0)

    def test_xi_paper_presentation(self):
        # first-slot product twist with second-slot pairing twist
        assert derive_xi((1, 0), (0, 1)) == (0, -1)

    def test_xi_equal_gamma_components_cancel(self):
        for g in (-2, 1, 3):
            assert derive_xi((0, 0), (g, g)) == (0, 0)

    def test_registered_xi(self, dbl11):
        assert dbl11.twist.xi == (-1, 0)

    def test_compatibility(self):
        assert check_compatibility(TwistDataSet(TwistScalar(1, 0), (0, 0), (0, 0)))
        assert check_compatibility(TwistDataSet(TwistScalar(1, 0), (2, 0), (-2, 0)))
        assert not check_compatibility(TwistDataSet(TwistScalar(1, 0), (1, 0), (0, 1)))

    def test_incompatible_twist_rejected(self, layer6_11):
        bad = TwistDataSet(TwistScalar(1, 1), (1, 0), (0, 1))
        with pytest.raises(ValidationError):
            HeisenbergDouble(layer6_11, bad)


class TestRegularAction:
    def test_lowers_simples(self, dbl11):
        layer = dbl11.layer
        x = layer.basis_vector(K_SIDE, 1, 0)
        for m in (1, 2, 3, 4):
            got = dbl11.fock_act(lowering_elem(x), layer.basis_vector(G_SIDE, m, 0))
            assert got == layer.basis_vector(G_SIDE, m - 1, 0)

    def test_lowering_powers(self, dbl11):
        layer = dbl11.layer
        c = TwistScalar(1, 1)
        x = layer.basis_vector(K_SIDE, 1, 0)
        y = layer.basis_vector(G_SIDE, 1, 0)
        prev = layer.unit_vector(G_SIDE)
        for n in (1, 2, 3, 4):
            power = layer.nabla(prev, y)
            assert dbl11.fock_act(lowering_elem(x), power) == prev.scale(qpi_integer(n, c))
            prev = power

    def test_unit_acts_as_identity(self, dbl11):
        layer = dbl11.layer
        one = layer.unit_vector(K_SIDE)
        v = layer.basis_vector(G_SIDE, 3, 0)
        assert dbl11.fock_act(lowering_elem(one), v) == v

    def test_vacuum_annihilation(self, dbl11):
        layer = dbl11.layer
        x = layer.basis_vector(K_SIDE, 1, 0)
        assert dbl11.fock_act(lowering_elem(x), layer.unit_vector(G_SIDE)).is_zero()


class TestSmash:
    def test_weyl_commutation_element(self, dbl10):
        layer = dbl10.layer
        lower = dbl10.minus_elem((1, 0))
        raise_ = dbl10.plus_elem((1, 0))
        got = dbl10.smash_multiply(lower, raise_)
        expected = dbl10.unit().add(
            dbl10.monomial((1, 0), (1, 0), GroundElem.monomial(1)))
        assert got == expected

    def test_unit_element(self, dbl11):
        h = dbl11.monomial((2, 0), (1, 0))
        assert dbl11.smash_multiply(dbl11.unit(), h) == h
        assert dbl11.smash_multiply(h, dbl11.unit()) == h

    def test_plus_side_multiplication(self, dbl11):
        c = TwistScalar(1, 1)
        y = dbl11.plus_elem((1, 0))
        got = dbl11.smash_multiply(y, y)
        assert got == dbl11.monomial((2, 0), (0, 0), qpi_integer(2, c))

    def test_truncation_overflow(self, dbl11):
        big = dbl11.plus_elem((4, 0))
        with pytest.raises(TruncationError):
            dbl11.smash_multiply(big, dbl11.plus_elem((3, 0)))

    def test_corrupted_xi_breaks_module_law(self, layer6_10):
        good = HeisenbergDouble(layer6_10)
        twist = TwistDataSet.for_tower(layer6_10.tower)
        object.__setattr__(twist, "xi", (twist.xi[0], twist.xi[1] + 1))
        bad = HeisenbergDouble(layer6_10, twist)
        h1 = bad.minus_elem((1, 0))          # 1 # x
        h2 = bad.plus_elem((2, 0))           # y_2 # 1
        v = bad.layer.basis_vector(G_SIDE, 1, 0)
        lhs = bad.fock_act(bad.smash_multiply(h1, h2), v)
        rhs = bad.fock_act(h1, bad.fock_act(h2, v))
        assert lhs != rhs
        # sanity: with the honest twist the same instance passes
        lhs = good.fock_act(good.smash_multiply(h1, h2), v)
        rhs = good.fock_act(h1, good.fock_act(h2, v))
        assert lhs == rhs


class TestFock:
    def test_composite_action(self, dbl11):
        layer = dbl11.layer
        h = dbl11.smash_multiply(dbl11.plus_elem((1, 0)), dbl11.minus_elem((1, 0)))
        y1 = layer.basis_vector(G_SIDE, 1, 0)
        assert dbl11.fock_act(h, y1) == y1

    def test_module_law_small(self, dbl11):
        recs = check_action_compat(dbl11, 3)
        assert all_passed(recs), failures(recs)

    def test_general_relation(self, dbl11):
        assert all_passed(check_general_relation(dbl11, 3))

    @pytest.mark.parametrize("key", [((0, 0), (0, 0)), ((1, 0), (1, 0))])
    def test_corrupted_monomial_product_fails_associativity(self, layer6_11, key):
        # (1 # x)(y # 1) = 1 # 1 + q pi (y # x); double one coefficient in the memo
        assert all_passed(check_action_compat(HeisenbergDouble(layer6_11), 2))
        bad = HeisenbergDouble(layer6_11)
        seeded = bad._monomial_product((0, 0), (1, 0), (1, 0), (0, 0))
        seeded[key] = seeded[key] + seeded[key]
        recs = {r.check: r for r in check_action_compat(bad, 2)}
        assert not recs["smash-associativity"].passed


class TestWeyl:
    @pytest.mark.parametrize("d,eps", [(0, 0), (1, 0)])
    def test_weyl_small(self, d, eps):
        tower = build_nilcoxeter_tower(4, d, eps, frobenius_cap=0)
        dbl = HeisenbergDouble(GrothLayer(tower))
        recs = weyl_check(dbl, 4)
        assert all_passed(recs), failures(recs)

    def test_outside_projective_image_detected(self, dbl11):
        layer = dbl11.layer
        y1 = layer.basis_vector(G_SIDE, 1, 0)
        e2 = layer.nabla(y1, y1)
        # y_2 itself is not a multiple of e_2 = [2] y_2: [2] does not divide 1
        assert not _ring_multiple(layer.basis_vector(G_SIDE, 2, 0), e2, (2, 0))
        # the leading coefficients divide, but multiplying back misses y_1
        assert not _ring_multiple(e2.add(y1), e2, (2, 0))
        assert _ring_multiple(e2.scale(GroundElem.monomial(1, 0, 3)), e2, (2, 0))

    def test_doubled_commutator_term_fails_element_identity(self):
        # (1 # x)(y # 1) = 1 # 1 + q pi (y # x), with the 1 # 1 term doubled
        bad = nc4_double(1, 1)
        seeded = bad._monomial_product((0, 0), (1, 0), (1, 0), (0, 0))
        seeded[((0, 0), (0, 0))] = seeded[((0, 0), (0, 0))] + seeded[((0, 0), (0, 0))]
        recs = weyl_check(bad, 4)
        assert failures(recs) == [CheckRecord(
            "weyl-element-identity", (), False,
            lhs="(2)*[0:0#0:0] + (q*pi)*[1:0#1:0]", rhs="(1)*[0:0#0:0] + (q*pi)*[1:0#1:0]")]

    def test_doubled_lowering_of_y2_fails_operator_identity(self):
        # (1 # x) . y_2 = y_1, doubled: lowering e_2 = [2] y_2 gives 2 [2] e_1,
        # still a ring multiple of e_1, so only the identity and the rule fail
        bad = nc4_double(1, 1)
        seeded = bad._basis_action((0, 0), (1, 0), (2, 0))
        seeded[(1, 0)] = seeded[(1, 0)] + seeded[(1, 0)]
        recs = weyl_check(bad, 4)
        assert failures(recs) == [
            CheckRecord("weyl-operator-identity", (4,), False, detail="first failing power 1"),
            CheckRecord("weyl-lowering-rule", (4,), False, rhs="[n] times the previous power"),
        ]

    def test_vacuum_term_in_lowering_of_y2_fails_power_image_invariance(self):
        # (1 # x) . y_2 = y_1 + 1: lowering e_2 leaves the image of the powers
        bad = nc4_double(1, 1)
        seeded = bad._basis_action((0, 0), (1, 0), (2, 0))
        seeded[(0, 0)] = bad.layer.one()
        recs = weyl_check(bad, 4)
        assert failures(recs) == [
            CheckRecord("weyl-operator-identity", (4,), False, detail="first failing power 1"),
            CheckRecord("weyl-lowering-rule", (4,), False, rhs="[n] times the previous power"),
            CheckRecord("power-image-invariance", (4,), False, rhs="lowering keeps the projective image"),
        ]


class TestFaithfulness:
    def test_small_window_full_rank(self, dbl11):
        recs = check_faithfulness_truncated(dbl11, 2)
        assert all_passed(recs)

    def test_window_guard(self, dbl11):
        with pytest.raises(ValidationError):
            check_faithfulness_truncated(dbl11, 4)  # window 8 > n_max 6

    def test_single_monomial_acts_nonzero(self, dbl11):
        layer = dbl11.layer
        mono = dbl11.monomial((2, 0), (1, 0))
        hit = any(
            not dbl11.fock_act(mono, layer.basis_vector(G_SIDE, m, 0)).is_zero()
            for m in range(4)
        )
        assert hit

    def test_rows_sharing_a_pivot(self):
        # both rows lead at column 0: the second reduces to -q^2 at column 1
        # and 1 at column 2, and in the swapped pair to q^2 - 1 at column 1
        q, one = GroundElem.monomial(1), GroundElem.one()
        assert _laurent_rows_rank([{0: one, 1: q}, {0: q, 2: one}]) == 2
        assert _laurent_rows_rank([{0: q, 1: one}, {0: one, 1: q}]) == 2

    def test_dependent_rows(self):
        q, one = GroundElem.monomial(1), GroundElem.one()
        # the second row is q times the first
        assert _laurent_rows_rank([{0: one, 1: q}, {0: q, 1: q * q}]) == 1
        # the third row is the first minus q times the second, found only
        # after reducing against both pivots in turn
        rows = [{0: one, 1: q}, {1: one, 2: q}, {0: one, 2: -(q * q)}]
        assert _laurent_rows_rank(rows) == 2
        # empty rows count for nothing
        assert _laurent_rows_rank([{}, {3: q}, {}]) == 1

    def test_two_monomials_acting_alike_fail(self, layer6_11):
        # (y # y) made to act as (1 # y) on every class its row reads: the
        # two rows coincide at both evaluations of pi
        bad = HeisenbergDouble(layer6_11)
        for m in (1, 2):
            bad._actions[((1, 0), (1, 0), (m, 0))] = bad._basis_action((0, 0), (1, 0), (m, 0))
        assert check_faithfulness_truncated(bad, 1) == [CheckRecord(
            "truncated-faithfulness", (1,), False, lhs="ranks (3,3)", rhs="4 monomials")]
        assert all_passed(check_faithfulness_truncated(HeisenbergDouble(layer6_11), 1))


class TestCategorifiedShadow:
    def test_canonical_twist(self, nc6_10):
        recs = categorified_weyl_shadow(nc6_10, 3)
        assert all_passed(recs), failures(recs)

    def test_level_zero_degenerate(self, nc6_10):
        recs = [r for r in categorified_weyl_shadow(nc6_10, 0)]
        assert recs and all_passed(recs)

    def test_requires_canonical_twist(self, nc6_11):
        with pytest.raises(ValidationError):
            categorified_weyl_shadow(nc6_11, 2)

    def test_general_shift_flag(self, nc6_11):
        recs = categorified_weyl_shadow(nc6_11, 3, general_shift=True)
        assert all(r.check == "categorified-weyl-shadow-general-shift" for r in recs)
        assert all_passed(recs), failures(recs)


# -- the memoised smash product and Fock action against the unmemoised oracles -----


def _monomials(layer, max_level):
    return [(ka, kx) for ka in layer.basis_keys(G_SIDE, max_level)
            for kx in layer.basis_keys(K_SIDE, max_level)]


def _random_elem(double, rng, max_level):
    mode = double.layer.one().mode
    terms = {}
    for key in rng.sample(_monomials(double.layer, max_level), 3):
        coeff = GroundElem.zero(mode)
        for _ in range(rng.randint(1, 3)):
            coeff = coeff + GroundElem.monomial(rng.randint(-2, 2), rng.randint(0, 1),
                                                rng.choice([-2, -1, 1, 3]), mode)
        terms[key] = coeff
    return HeisenbergElem(terms)


class TestMemoisedSmash:
    @pytest.mark.parametrize("layer_name", ["layer6_10", "layer6_11"])
    def test_every_monomial_pair_to_level_three(self, layer_name, request):
        layer = request.getfixturevalue(layer_name)
        double = HeisenbergDouble(layer)  # one fresh memo shared by every pair
        monos = [double.monomial(ka, kx) for ka, kx in _monomials(layer, 3)]
        for h1, h2 in itertools.product(monos, repeat=2):
            assert double.smash_multiply(h1, h2) == unmemoised_smash(double, h1, h2)

    @pytest.mark.parametrize("layer_name", ["layer6_10", "layer6_11"])
    def test_seeded_general_elements(self, layer_name, request):
        layer = request.getfixturevalue(layer_name)
        double = HeisenbergDouble(layer)
        rng = random.Random(5)
        for _ in range(6):
            h1, h2 = _random_elem(double, rng, 2), _random_elem(double, rng, 2)
            got = double.smash_multiply(h1, h2)
            assert got == unmemoised_smash(double, h1, h2)
            # and again, now answered from the memo
            assert double.smash_multiply(h1, h2) == got

    def test_memo_is_per_double(self, layer6_10):
        # a double with another twist on the same layer keeps its own products
        good = HeisenbergDouble(layer6_10)
        twist = TwistDataSet.for_tower(layer6_10.tower)
        object.__setattr__(twist, "xi", (twist.xi[0], twist.xi[1] + 1))
        bad = HeisenbergDouble(layer6_10, twist)
        h1, h2 = good.minus_elem((1, 0)), good.plus_elem((2, 0))
        assert good.smash_multiply(h1, h2) == unmemoised_smash(good, h1, h2)
        assert bad.smash_multiply(h1, h2) == unmemoised_smash(bad, h1, h2)
        assert good.smash_multiply(h1, h2) != bad.smash_multiply(h1, h2)


def oracle_action_compat(double, max_level):
    """Oracle: the truncation-wide loop with a fresh product for every triple."""
    layer = double.layer
    records = []
    sums3 = [(a1, a2, a3) for a1 in range(max_level + 1) for a2 in range(max_level + 1 - a1)
             for a3 in range(max_level + 1 - a1 - a2)]
    ok_assoc = True
    first = None
    for (a1, a2, a3) in sums3:
        for (x1, x2, x3) in sums3:
            h1 = double.monomial((a1, 0), (x1, 0))
            h2 = double.monomial((a2, 0), (x2, 0))
            h3 = double.monomial((a3, 0), (x3, 0))
            lhs = double.smash_multiply(double.smash_multiply(h1, h2), h3)
            rhs = double.smash_multiply(h1, double.smash_multiply(h2, h3))
            if lhs != rhs:
                ok_assoc = False
                if first is None:
                    first = ((a1, x1), (a2, x2), (a3, x3))
    records.append(CheckRecord("smash-associativity", (max_level,), ok_assoc,
                               detail="" if ok_assoc else f"first failing triple {first}"))
    ok_module = True
    first = None
    for a1 in range(max_level + 1):
        for a2 in range(max_level + 1 - a1):
            for m in range(max_level + 1 - a1 - a2):
                for x1 in range(max_level + 1):
                    for x2 in range(max_level + 1 - x1):
                        h1 = double.monomial((a1, 0), (x1, 0))
                        h2 = double.monomial((a2, 0), (x2, 0))
                        v = layer.basis_vector(G_SIDE, m, 0)
                        lhs = double.fock_act(double.smash_multiply(h1, h2), v)
                        rhs = double.fock_act(h1, double.fock_act(h2, v))
                        if lhs != rhs:
                            ok_module = False
                            if first is None:
                                first = ((a1, x1), (a2, x2), m)
    records.append(CheckRecord("fock-module-law", (max_level,), ok_module,
                               detail="" if ok_module else f"first failing instance {first}"))
    return records


TWISTS4 = [(0, 0), (1, 0), (1, 1), (2, 0), (0, 1), (2, 1)]
_doubles4 = {}


def nc4_double(d, eps):
    """A fresh double over a shared nilCoxeter layer with n_max 4, one per twist."""
    if (d, eps) not in _doubles4:
        _doubles4[(d, eps)] = GrothLayer(build_nilcoxeter_tower(4, d, eps, frobenius_cap=0))
    return HeisenbergDouble(_doubles4[(d, eps)])


def _random_vector(layer, rng, max_level):
    mode = layer.one().mode
    entries = {}
    for m in rng.sample(range(max_level + 1), 2):
        entries[(m, 0)] = GroundElem.monomial(rng.randint(-2, 2), rng.randint(0, 1),
                                              rng.choice([-2, 1, 3]), mode) \
            + GroundElem.monomial(rng.randint(-2, 2), rng.randint(0, 1), 1, mode)
    return GrothVector(G_SIDE, entries)


def assert_every_bounded_product_matches(double):
    monos = _monomials(double.layer, 4)
    for (ka, kx), (kb, ky) in itertools.product(monos, repeat=2):
        if ka[0] + kb[0] > 4 or kx[0] + ky[0] > 4:
            continue
        h1, h2 = double.monomial(ka, kx), double.monomial(kb, ky)
        assert double.smash_multiply(h1, h2) == unmemoised_smash(double, h1, h2), (ka, kx, kb, ky)


def assert_every_bounded_action_matches(double):
    layer = double.layer
    for ka, kx in _monomials(layer, 4):
        for m in range(5):
            if ka[0] + m - kx[0] > 4:
                continue
            h, v = double.monomial(ka, kx), layer.basis_vector(G_SIDE, m, 0)
            got = double.fock_act(h, v)
            assert got == unmemoised_fock_act(double, h, v), (ka, kx, m)
            assert not any(c.is_zero() for c in got.entries.values())


class TestFockAgainstOracles:
    @pytest.mark.parametrize("d,eps", TWISTS4)
    def test_every_bounded_monomial_pair(self, d, eps):
        assert_every_bounded_product_matches(nc4_double(d, eps))

    @pytest.mark.parametrize("d,eps", TWISTS4)
    def test_every_bounded_monomial_on_every_class(self, d, eps):
        assert_every_bounded_action_matches(nc4_double(d, eps))

    @pytest.mark.parametrize("d,eps", TWISTS4)
    def test_seeded_multi_term_elements(self, d, eps):
        double = nc4_double(d, eps)
        layer = double.layer
        rng = random.Random(11 + 3 * d + eps)
        for _ in range(6):
            h1, h2 = _random_elem(double, rng, 2), _random_elem(double, rng, 2)
            got = double.smash_multiply(h1, h2)
            assert got == unmemoised_smash(double, h1, h2)
            assert not any(c.is_zero() for c in got.terms.values())
            v = _random_vector(layer, rng, 2)
            assert double.fock_act(h1, v) == unmemoised_fock_act(double, h1, v)
            u = _random_vector(layer, rng, 2)
            assert layer.nabla(u, v) == rebuilt_nabla(layer, u, v)
            assert layer.delta(u) == rebuilt_delta(layer, u)
            x = GrothVector(K_SIDE, {(k, 0): c for (k, _), c in u.entries.items()})
            assert double.fock_act(lowering_elem(x), v) == rebuilt_regular_action(double, x, v)

    def test_twist_exponents_the_towers_leave_zero(self):
        # every registered tower has gamma' == xi'' == 0; a compatible twist
        # with both nonzero reaches every exponent of the contraction
        twist = TwistDataSet(TwistScalar(1, 1), (-1, 1), (1, 1))
        assert twist.gamma[0] and twist.xi[1]
        double = HeisenbergDouble(nc4_double(1, 1).layer, twist)
        assert_every_bounded_product_matches(double)
        assert_every_bounded_action_matches(double)

    def test_zero_coefficients_are_dropped(self):
        double = nc4_double(1, 1)
        layer = double.layer
        one, y1 = double.unit(), double.plus_elem((1, 0))
        neg = GroundElem.from_int(-1)
        e0, v1 = layer.unit_vector(G_SIDE), layer.basis_vector(G_SIDE, 1, 0)
        # sums that cancel: the y # 1 terms of (y + 1)(1 - y), the vacuum terms
        # of (1 # x - 1) . (y + 1), and the y terms of (1 + y)(y - 1)
        got = double.smash_multiply(y1.add(one), one.add(y1.scale(neg)))
        assert got == one.add(double.plus_elem((2, 0)).scale(neg * qpi_integer(2, TwistScalar(1, 1))))
        assert set(got.terms) == {((0, 0), (0, 0)), ((2, 0), (0, 0))}
        acted = double.fock_act(double.minus_elem((1, 0)).add(one.scale(neg)), v1.add(e0))
        assert acted.entries == {(1, 0): neg}
        prod = layer.nabla(e0.add(v1), v1.add(e0.scale(neg)))
        assert set(prod.entries) == {(0, 0), (2, 0)}
        # (1 + pi)(1 - pi) == 0: every product of these terms vanishes
        plus = GroundElem({(0, 0): 1, (0, 1): 1})
        minus = GroundElem({(0, 0): 1, (0, 1): -1})
        assert double.smash_multiply(y1.scale(plus), double.minus_elem((1, 0)).scale(minus)).terms == {}
        assert double.fock_act(y1.scale(plus), v1.scale(minus)).entries == {}
        assert layer.nabla(v1.scale(plus), v1.scale(minus)).entries == {}

    def test_memo_values_are_never_mutated(self):
        double = nc4_double(1, 1)
        layer = double.layer
        h = double.minus_elem((1, 0))
        got = double.smash_multiply(h, double.plus_elem((1, 0)))
        memo = double._products[((0, 0), (1, 0), (1, 0), (0, 0))]
        assert got.terms is not memo and got.terms == memo
        y1 = layer.basis_vector(G_SIDE, 1, 0)
        acted = double.fock_act(h, y1)
        assert acted.entries is not double._actions[((0, 0), (1, 0), (1, 0))]
        snapshot = {k: dict(v) for k, v in double._actions.items()}
        double.fock_act(h.add(h), y1.add(y1))
        check_action_compat(double, 2)
        assert {k: v for k, v in double._actions.items() if k in snapshot} == snapshot

    @pytest.mark.parametrize("d,eps", TWISTS4)
    def test_action_compat_records_match_the_oracle_loop(self, d, eps):
        got = check_action_compat(nc4_double(d, eps), 3)
        assert got == oracle_action_compat(nc4_double(d, eps), 3)
        assert all_passed(got), failures(got)

    @pytest.mark.parametrize("d,eps", TWISTS4)
    def test_general_relation_records_match_the_unmemoised_action(self, d, eps):
        oracle = nc4_double(d, eps)
        oracle.fock_act = lambda h, v: unmemoised_fock_act(oracle, h, v)
        got = check_general_relation(nc4_double(d, eps), 3)
        assert got == check_general_relation(oracle, 3)
        assert all_passed(got), failures(got)

    def test_doubled_basis_action_fails_product_rule(self):
        # (1 # x) . y_2 = y_1, doubled: x acting on y_1 y_1 = [2] y_2 no longer
        # matches the product rule, which acts on each factor y_1 alone
        bad = nc4_double(1, 1)
        seeded = bad._basis_action((0, 0), (1, 0), (2, 0))
        seeded[(1, 0)] = seeded[(1, 0)] + seeded[(1, 0)]
        recs = check_general_relation(bad, 3)
        assert [r.check for r in failures(recs)] == ["regular-action-product-rule"]
        assert recs[0].detail == "first failing levels (1, 1, 1)"

    @pytest.mark.parametrize("memo_key,key", [
        (((0, 0), (1, 0), (1, 0)), (0, 0)),     # (1 # x) . y = 1
        (((1, 0), (0, 0), (1, 0)), (2, 0)),     # (y # 1) . y = [2] y_2
    ])
    def test_corrupted_basis_action_fails_module_law(self, layer6_11, memo_key, key):
        assert all_passed(check_action_compat(HeisenbergDouble(layer6_11), 2))
        bad = HeisenbergDouble(layer6_11)
        seeded = bad._basis_action(*memo_key)
        seeded[key] = seeded[key] + seeded[key]
        recs = check_action_compat(bad, 2)
        by_check = {r.check: r for r in recs}
        assert not by_check["fock-module-law"].passed
        # the monomial products read the action memo, so the corruption
        # reaches (a # x)(v # 1), built from the seeded key
        ka, kx, kv = memo_key
        h1, h2 = bad.monomial(ka, kx), bad.plus_elem(kv)
        assert bad.smash_multiply(h1, h2) != unmemoised_smash(bad, h1, h2)
        # the reuse of pair products reports the same first failure as the plain loop
        assert recs == oracle_action_compat(bad, 2)


# -- smash associativity from pure leading factors, against the full loop ----------


def _associativity(recs):
    return next(r for r in recs if r.check == "smash-associativity")


class TestAssociativityCertificate:
    def test_corrupted_factorization_is_named(self):
        # (y_1 # 1)(1 # x_1) = y_1 # x_1, doubled
        bad = nc4_double(1, 1)
        seeded = bad._monomial_product((1, 0), (0, 0), (0, 0), (1, 0))
        seeded[((1, 0), (1, 0))] = seeded[((1, 0), (1, 0))] + seeded[((1, 0), (1, 0))]
        assert _associativity(check_action_compat(bad, 2)) == CheckRecord(
            "smash-associativity", (2,), False, detail="(a # 1)(1 # x) is not a # x at (1, 1)")
        assert not _associativity(oracle_action_compat(bad, 2)).passed

    @pytest.mark.parametrize("stray", [((3, 0), (0, 0)), ((2, 1), (0, 0))])
    def test_product_term_past_the_level_bound_is_named(self, stray):
        # (y_1 # 1)(y_1 # 1) = [2] y_2 # 1, plus a term above level 2 or off index 0
        bad = nc4_double(1, 1)
        bad._monomial_product((1, 0), (0, 0), (1, 0), (0, 0))[stray] = bad.layer.one()
        assert _associativity(check_action_compat(bad, 2)) == CheckRecord(
            "smash-associativity", (2,), False,
            detail=f"product (1, 0)*(1, 0) has key {stray} past the level bound")

    def test_every_scaled_product_entry_gets_the_full_loops_verdict(self):
        # double or negate one coefficient of one memoised monomial product at
        # a time; the certificate must fail exactly when some bounded triple does
        filled = nc4_double(1, 1)
        oracle_action_compat(filled, 2)
        cases = [(memo_key, key) for memo_key, terms in filled._products.items() for key in terms]
        assert len(cases) == 46
        for memo_key, key in cases:
            for factor in (2, -1):
                bad = nc4_double(1, 1)
                seeded = bad._monomial_product(*memo_key)
                seeded[key] = seeded[key] * GroundElem.from_int(factor)
                got = _associativity(check_action_compat(bad, 2)).passed
                assert got == _associativity(oracle_action_compat(bad, 2)).passed, (memo_key, key, factor)

    def test_smash_multiply_calls_at_bound_five(self):
        # work, not time: the full loop made 6,713 calls here
        double = HeisenbergDouble(GrothLayer(build_nilcoxeter_tower(5, 1, 1, frobenius_cap=0)))
        calls = []
        smash = double.smash_multiply
        double.smash_multiply = lambda h1, h2: calls.append(None) or smash(h1, h2)
        recs = check_action_compat(double, 5)
        assert all_passed(recs), failures(recs)
        assert len(calls) <= 4300


# -- the power-coordinate Weyl check, kept as an oracle for the class-vector one --


class OraclePowerBasis:
    """Oracle: the powers of the level-one simple class as coordinates; the
    conversion back from class form divides by each power's class."""

    def __init__(self, double):
        self.double = double
        self.layer = double.layer
        self._powers = [self.layer.unit_vector(G_SIDE)]

    def power_class(self, n):
        while len(self._powers) <= n:
            y1 = self.layer.basis_vector(G_SIDE, 1, 0)
            self._powers.append(self.layer.nabla(self._powers[-1], y1))
        return self._powers[n]

    def from_powers(self, coeffs):
        out = GrothVector(G_SIDE)
        for n, c in coeffs.items():
            out = out.add(self.power_class(n).scale(c))
        return out

    def to_powers(self, v):
        out = {}
        for (lv, i), c in v.entries.items():
            if i != 0:
                return None
            lead = self.power_class(lv).entries.get((lv, 0))
            if lead is None:
                return None
            try:
                out[lv] = divide_exact(c, lead)
            except ExactDivisionError:
                return None
        return {n: c for n, c in out.items() if not c.is_zero()}

    def lower_op(self, coeffs):
        x = self.layer.basis_vector(K_SIDE, 1, 0)
        return self.to_powers(self.double.fock_act(lowering_elem(x), self.from_powers(coeffs)))

    def raise_op(self, coeffs):
        return {n + 1: c for n, c in coeffs.items()}


def _powers_eq(a, b):
    return a is not None and a == b


def oracle_weyl_check(double, max_power):
    """Oracle: the Weyl suite in power coordinates, as it stood before class vectors."""
    layer = double.layer
    records = []
    c1 = layer.scalar(1)
    lower = double.minus_elem((1, 0))
    raise_ = double.plus_elem((1, 0))
    lhs = double.smash_multiply(lower, raise_)
    rhs = double.smash_multiply(raise_, lower).scale(c1)
    records.append(CheckRecord(
        "weyl-element-identity", (), lhs.add(rhs.scale(GroundElem.from_int(-1, layer.mode))) == double.unit(),
        lhs=repr(lhs), rhs=repr(rhs.add(double.unit())),
    ))
    basis = OraclePowerBasis(double)
    ok_ops = True
    first = None
    for n in range(max_power):
        e_n = {n: layer.one()}
        via_raise = basis.lower_op(basis.raise_op(e_n))
        lowered = basis.lower_op(e_n)
        via_lower = {k: v * c1 for k, v in basis.raise_op(lowered).items()} if lowered is not None else None
        if via_raise is None or via_lower is None:
            ok_ops = False
            first = first or n
            continue
        diff = dict(via_raise)
        for k, v in via_lower.items():
            diff[k] = diff[k] - v if k in diff else GroundElem.zero(layer.mode) - v
        if not _powers_eq({k: v for k, v in diff.items() if not v.is_zero()}, e_n):
            ok_ops = False
            first = first if first is not None else n
    records.append(CheckRecord(
        "weyl-operator-identity", (max_power,), ok_ops,
        detail="" if ok_ops else f"first failing power {first}",
    ))
    ok_lower = True
    ok_invariance = True
    for n in range(1, max_power + 1):
        got = basis.lower_op({n: layer.one()})
        if got is None:
            ok_invariance = False
            ok_lower = False
            continue
        if not _powers_eq(got, {n - 1: qpi_integer(n, double.twist.c, layer.mode)}):
            ok_lower = False
    records.append(CheckRecord("weyl-lowering-rule", (max_power,), ok_lower,
                               rhs="[n] times the previous power"))
    records.append(CheckRecord("power-image-invariance", (max_power,), ok_invariance,
                               rhs="lowering keeps the projective image"))
    return records


WEYL_CHECKS = ["weyl-element-identity", "weyl-operator-identity", "weyl-lowering-rule",
               "power-image-invariance"]


def _nc5_double(d, eps):
    return HeisenbergDouble(GrothLayer(build_nilcoxeter_tower(5, d, eps, frobenius_cap=0)))


class TestWeylAgainstPowerCoordinates:
    @pytest.mark.parametrize("d,eps", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (-1, 1)])
    def test_same_records(self, d, eps):
        dbl = _nc5_double(d, eps)
        got = weyl_check(dbl, 5)
        assert [r.check for r in got] == WEYL_CHECKS
        assert got == oracle_weyl_check(dbl, 5)

    def test_zero_divisor_leads(self):
        # at d=0, eps=1 the lead of e_2 is [2] = 1 + pi, a zero divisor, so the
        # power coordinates refuse; in class form every relation holds
        dbl = _nc5_double(0, 1)
        assert [r.check for r in failures(oracle_weyl_check(dbl, 5))] == WEYL_CHECKS[1:]
        recs = weyl_check(dbl, 5)
        assert all_passed(recs), failures(recs)

    def test_invariance_falls_back_when_the_rule_fails(self):
        # a double whose twist scalar is not the tower's: the lowering rule's
        # [n] is wrong, yet lowering still keeps the projective image
        layer = GrothLayer(build_nilcoxeter_tower(5, 1, 1, frobenius_cap=0))
        tower = layer.tower
        dbl = HeisenbergDouble(layer, TwistDataSet(TwistScalar(2, 0), tower.chi, tower.gamma))
        got = weyl_check(dbl, 5)
        assert {r.check: r.passed for r in got}["weyl-lowering-rule"] is False
        assert {r.check: r.passed for r in got}["power-image-invariance"] is True
        assert got == oracle_weyl_check(dbl, 5)


@pytest.mark.parametrize("desc", [
    {"nilcoxeter": {"n_max": 3, "d": 1, "eps": 1}},
    {"nilcoxeter": {"n_max": 3, "d": 0, "eps": 1}},  # collapsed ring with zero divisors
    {"wreath": {"base": "clifford", "n_max": 2}},
])
def test_every_built_vector_and_compared_tensor_is_zero_free(desc, monkeypatch, capsys):
    # vectors, elements and tensors compare as plain dicts; that holds because
    # every GrothVector and HeisenbergElem a verify run builds, and every
    # tensor it compares, carries no zero coefficient.  The suites that compare
    # tensors write both sides into their records through ``tensor_repr``.
    import json

    import supertower.grothendieck as gr
    from supertower.cli import main

    zeros, seen = [], {"GrothVector": 0, "HeisenbergElem": 0, "compared": 0}

    def zero_keys(terms):
        return [k for k, c in terms.items() if c.is_zero()]

    def checked_init(cls, field):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            seen[cls.__name__] += 1
            if zero_keys(getattr(self, field)):
                zeros.append((cls.__name__, getattr(self, field)))
        monkeypatch.setattr(cls, "__init__", wrapper)

    def checked_compared(*tensors):
        seen["compared"] += 1
        zeros.extend(("compared", t) for t in tensors if zero_keys(t))

    def checked_eq(cls, field):
        eq = cls.__eq__

        def wrapper(a, b):
            if isinstance(b, cls):
                checked_compared(getattr(a, field), getattr(b, field))
            return eq(a, b)
        monkeypatch.setattr(cls, "__eq__", wrapper)

    tensor_repr = gr.tensor_repr

    def checked_repr(t):
        checked_compared(t)
        return tensor_repr(t)

    checked_init(GrothVector, "entries")
    checked_init(HeisenbergElem, "terms")
    checked_eq(GrothVector, "entries")
    checked_eq(HeisenbergElem, "terms")
    monkeypatch.setattr(gr, "tensor_repr", checked_repr)
    assert main(["verify", json.dumps(desc), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0
    assert zeros == []
    assert seen["GrothVector"] and seen["compared"]
    assert seen["HeisenbergElem"] or "wreath" in desc
