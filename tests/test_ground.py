"""Coefficient-ring arithmetic, checked against independent brute-force oracles."""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from supertower import cli
from supertower.errors import ExactDivisionError, ModeError
from supertower.ground import (
    COLLAPSED,
    FULL,
    GroundElem,
    TwistScalar,
    bar_involution,
    divide_by_int,
    divide_exact,
    qpi_binomial,
    qpi_factorial,
    qpi_integer,
)


def brute_mul(a: dict, b: dict) -> dict:
    """Oracle: convolution with pi-exponent reduction, independent of GroundElem."""
    out = {}
    for (qa, pa), ca in a.items():
        for (qb, pb), cb in b.items():
            k = (qa + qb, (pa + pb) % 2)
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def gauss_binomial_oracle(n: int, k: int) -> dict:
    """Oracle: the Gaussian binomial as a subset generating function.

    Sum over k-subsets S of {0..n-1} of t**(sum(S) - k(k-1)/2), enumerated
    directly; no division involved.
    """
    out = {}
    base = k * (k - 1) // 2
    for subset in itertools.combinations(range(n), k):
        e = sum(subset) - base
        out[e] = out.get(e, 0) + 1
    return out


elems = hst.builds(
    lambda d: GroundElem({(q, p): c for (q, p), c in d.items()}),
    hst.dictionaries(
        hst.tuples(hst.integers(-4, 4), hst.integers(0, 1)),
        hst.integers(-9, 9),
        max_size=5,
    ),
)


def typed(terms: dict) -> dict:
    return {k: (type(c), c) for k, c in terms.items()}


def brute_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return out


def ring_elems(mode: str):
    """Elements built through the validating constructor; dyadic in collapsed mode."""
    if mode == FULL:
        coeffs = hst.integers(-9, 9)
    else:
        coeffs = hst.builds(Fraction, hst.integers(-9, 9), hst.sampled_from([1, 2, 4]))
    return hst.dictionaries(
        hst.tuples(hst.integers(-3, 3), hst.integers(0, 1)), coeffs, max_size=4,
    ).map(lambda d: GroundElem(d, mode))


HALF = GroundElem({(0, 0): Fraction(1, 2), (1, 0): Fraction(3, 2)}, COLLAPSED)
TWO = GroundElem.from_int(2, COLLAPSED)


class TestDirectResults:
    """Ring operations skip the validating constructor; it stays as the oracle."""

    def check_ops(self, a: GroundElem, b: GroundElem) -> None:
        mode = a.mode
        one = GroundElem.one(mode)
        cases = [
            (a * b, brute_mul(a.terms, b.terms)),
            (a + b, brute_add(a.terms, b.terms)),
            (a - b, brute_add(a.terms, b.terms, -1)),
            (-a, {k: -c for k, c in a.terms.items()}),
            (a * one, a.terms),
            (one * a, a.terms),
            (a * 2, {k: 2 * c for k, c in a.terms.items()}),
        ]
        for got, oracle in cases:
            assert got.mode == mode
            assert typed(got.terms) == typed(GroundElem(oracle, mode).terms)
            assert all(got.terms.values()), "a zero coefficient is stored"
            assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
        # a unit-valued ``a`` may come back as the shared one instead
        assert a.is_one() or (a * one is a and one * a is a)

    @given(ring_elems(FULL), ring_elems(FULL))
    @settings(max_examples=80, deadline=None)
    def test_full_mode_matches_constructor(self, a, b):
        self.check_ops(a, b)

    @given(ring_elems(COLLAPSED), ring_elems(COLLAPSED))
    @settings(max_examples=80, deadline=None)
    @example(HALF, TWO)
    @example(HALF, HALF)
    def test_collapsed_mode_matches_constructor(self, a, b):
        self.check_ops(a, b)

    def test_integral_collapsed_results_are_ints(self):
        half = GroundElem({(0, 0): Fraction(1, 2)}, COLLAPSED)
        for got in (half * TWO, TWO * half, half + half, half * 2, TWO - half - half + TWO):
            assert all(type(c) is int for c in got.terms.values()), got.terms
        assert (half * TWO).terms == {(0, 0): 1} and (half * TWO).is_one()
        assert (half - half).terms == {}
        # the constructor merges pi-terms on collapse: two halves make an int
        merged = GroundElem({(2, 0): Fraction(-1, 2), (2, 1): Fraction(-1, 2)}, COLLAPSED)
        assert typed(merged.terms) == {(2, 0): (int, -1)}

    def test_single_term_factor_times_multi_term(self):
        # a one-term factor shifts the other's keys: pi exponents wrap, nothing merges
        mono = GroundElem.monomial(2, 1, -3, FULL)
        poly = GroundElem({(0, 0): 1, (1, 1): 2, (-2, 0): -5, (-2, 1): 7}, FULL)
        expected = typed(GroundElem(brute_mul(mono.terms, poly.terms), FULL).terms)
        assert expected == {(2, 1): (int, -3), (3, 0): (int, -6), (0, 1): (int, 15),
                            (0, 0): (int, -21)}
        for got in (mono * poly, poly * mono):
            assert typed(got.terms) == expected
        # a one-term factor against a zero stays zero
        assert (mono * GroundElem.zero(FULL)).is_zero()

    def test_collapsed_half_times_two_is_an_int(self):
        half = GroundElem({(0, 0): Fraction(1, 2)}, COLLAPSED)
        two_q = GroundElem({(1, 0): 2}, COLLAPSED)
        for got in (half * TWO, TWO * half, half * two_q, two_q * half):
            assert all(type(c) is int for c in got.terms.values()), got.terms
        assert (half * TWO).is_one() and typed((half * two_q).terms) == {(1, 0): (int, 1)}
        # one-term half times a multi-term element: the integral coefficient is an int
        mixed = GroundElem({(0, 0): 2, (1, 0): Fraction(3, 2), (2, 0): 1}, COLLAPSED)
        for got in (half * mixed, mixed * half):
            assert typed(got.terms) == {(0, 0): (int, 1), (1, 0): (Fraction, Fraction(3, 4)),
                                        (2, 0): (Fraction, Fraction(1, 2))}

    def test_shared_constants_survive_a_verify_run(self):
        for mode in (FULL, COLLAPSED):
            assert GroundElem.one(mode) is GroundElem.one(mode)
            assert GroundElem.zero(mode) is GroundElem.zero(mode)
        desc = json.dumps({"nilcoxeter": {"n_max": 3, "d": 1, "eps": 1}})
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", desc, "--format", "json"]) == 0
        for mode in (FULL, COLLAPSED):
            assert GroundElem.one(mode).terms == {(0, 0): 1}
            assert GroundElem.zero(mode).terms == {}
            assert GroundElem.one(mode).mode == GroundElem.zero(mode).mode == mode

    def test_unknown_mode_is_rejected(self):
        for make in (GroundElem.one, GroundElem.zero, lambda m: GroundElem({}, m)):
            with pytest.raises(ValueError, match="unknown ring mode"):
                make("half")


class TestRingArith:
    def test_pi_squares_to_one(self):
        assert GroundElem.monomial(0, 1) * GroundElem.monomial(0, 1) == GroundElem.one()

    def test_q_inverse_pair(self):
        assert GroundElem.monomial(1) * GroundElem.monomial(-1) == GroundElem.one()

    def test_one_plus_qpi_squared(self):
        e = GroundElem.one() + GroundElem.monomial(1, 1)
        expected = GroundElem({(0, 0): 1, (1, 1): 2, (2, 0): 1})
        assert e * e == expected

    def test_mode_conflict(self):
        with pytest.raises(ModeError, match="ring mode conflict"):
            GroundElem.one(FULL) + GroundElem.one(COLLAPSED)

    @given(elems, elems)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_oracle(self, a, b):
        assert (a * b).terms == brute_mul(a.terms, b.terms)

    @given(elems, elems)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(elems, elems, elems)
    @settings(max_examples=60, deadline=None)
    def test_associativity_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_canonical_serialization_order(self):
        # printing follows the q exponent, then the pi exponent, not insertion order
        e = GroundElem({(2, 0): 1, (-1, 1): 3, (-1, 0): 2})
        assert repr(e) == "2*q^-1 + 3*q^-1*pi + q^2"
        assert repr(-e) == "-2*q^-1 - 3*q^-1*pi - q^2"


class TestTwistedIntegers:
    def test_zero_convention(self):
        assert qpi_integer(0, TwistScalar(1, 1)).is_zero()
        assert qpi_factorial(0, TwistScalar(1, 1)).is_one()

    def test_two_with_odd_twist(self):
        assert qpi_integer(2, TwistScalar(1, 1)) == GroundElem.one() + GroundElem.monomial(1, 1)

    def test_three_geometric(self):
        got = qpi_integer(3, TwistScalar(1, 0))
        assert got == GroundElem({(0, 0): 1, (1, 0): 1, (2, 0): 1})

    def test_binomial_edge(self):
        for n in range(7):
            assert qpi_binomial(n, 0, TwistScalar(2, 1)).is_one()

    def test_binomial_two_one(self):
        assert qpi_binomial(2, 1, TwistScalar(1, 1)) == GroundElem.one() + GroundElem.monomial(1, 1)

    def test_binomial_four_two(self):
        got = qpi_binomial(4, 2, TwistScalar(1, 0))
        assert got == GroundElem({(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1, (4, 0): 1})

    @pytest.mark.parametrize("c", [TwistScalar(1, 0), TwistScalar(1, 1), TwistScalar(2, 1)])
    def test_binomial_matches_subset_oracle(self, c):
        for n in range(9):
            for k in range(n + 1):
                oracle = gauss_binomial_oracle(n, k)
                expected = GroundElem(
                    {(c.d * e, (c.eps * e) & 1): v for e, v in oracle.items()})
                assert qpi_binomial(n, k, c) == expected

    def test_binomial_symmetry_and_positivity(self):
        c = TwistScalar(1, 1)
        for n in range(13):
            for k in range(n + 1):
                b = qpi_binomial(n, k, c)
                assert b == qpi_binomial(n, n - k, c)
                assert all(v > 0 for v in b.terms.values())
                i = qpi_integer(n, c)
                assert all(v > 0 for v in i.terms.values()) or n == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qpi_binomial(2, 3, TwistScalar(1, 0))


class TestBarAndCollapse:
    def test_bar_examples(self):
        assert bar_involution(GroundElem.monomial(1)) == GroundElem.monomial(-1)
        e = GroundElem.one() + GroundElem.monomial(1, 1)
        assert bar_involution(e) == GroundElem.one() + GroundElem.monomial(-1, 1)

    @given(elems)
    @settings(max_examples=50, deadline=None)
    def test_bar_is_involution(self, a):
        assert bar_involution(bar_involution(a)) == a

    @given(elems, elems)
    @settings(max_examples=50, deadline=None)
    def test_bar_is_ring_hom(self, a, b):
        assert bar_involution(a * b) == bar_involution(a) * bar_involution(b)
        assert bar_involution(a + b) == bar_involution(a) + bar_involution(b)

    def test_collapse_examples(self):
        one, pi = GroundElem.one(), GroundElem.monomial(0, 1)
        assert (one + pi).collapse() == GroundElem.from_int(2, COLLAPSED)
        assert (GroundElem.monomial(1, 1) - GroundElem.monomial(1)).collapse().is_zero()
        halved = divide_by_int((one + pi).collapse(), 2)
        assert halved == GroundElem.one(COLLAPSED)

    @given(elems, elems)
    @settings(max_examples=50, deadline=None)
    def test_collapse_is_ring_hom(self, a, b):
        assert (a * b).collapse() == a.collapse() * b.collapse()
        assert (a + b).collapse() == a.collapse() + b.collapse()


class TestDivision:
    def test_exact_laurent(self):
        c = TwistScalar(1, 0)
        n6 = qpi_factorial(4, c)
        n2 = qpi_factorial(2, c)
        got = divide_exact(n6, n2)
        assert got * n2 == n6

    def test_exact_with_pi(self):
        c = TwistScalar(1, 1)
        a = qpi_factorial(4, c)
        b = qpi_factorial(3, c)
        assert divide_exact(a, b) == qpi_integer(4, c)

    def test_inexact_raises(self):
        with pytest.raises(ExactDivisionError):
            divide_exact(GroundElem.monomial(1) + GroundElem.one(),
                         GroundElem.from_int(2))

    def test_zero_divisor_detected(self):
        one_plus_pi = GroundElem.one() + GroundElem.monomial(0, 1)
        with pytest.raises(ExactDivisionError):
            divide_exact(one_plus_pi * one_plus_pi, one_plus_pi)

    def test_divide_by_int_collapsed_dyadic(self):
        e = GroundElem.from_int(3, COLLAPSED)
        assert divide_by_int(e, 2) == GroundElem({(0, 0): Fraction(3, 2)}, COLLAPSED)

    def test_collapsed_non_dyadic_quotient_is_inexact(self):
        # one half is adjoined in the collapsed ring, one third is not: no quotient
        one, three = GroundElem.one(COLLAPSED), GroundElem.from_int(3, COLLAPSED)
        with pytest.raises(ExactDivisionError):
            divide_exact(one, three)
        with pytest.raises(ExactDivisionError):
            divide_by_int(one, 3)
        with pytest.raises(ExactDivisionError):
            divide_exact(GroundElem.monomial(2, 0, 1, COLLAPSED) + one,
                         GroundElem.monomial(1, 0, 3, COLLAPSED))
        assert divide_exact(three, GroundElem.from_int(6, COLLAPSED)) == \
            GroundElem({(0, 0): Fraction(1, 2)}, COLLAPSED)


def test_unit_recognition():
    assert GroundElem.monomial(3, 1, -1).is_unit()
    assert not (GroundElem.one() + GroundElem.monomial(0, 1)).is_unit()
    assert GroundElem({(2, 0): Fraction(1, 4)}, COLLAPSED).is_unit()
    assert not GroundElem({(0, 0): Fraction(3, 2)}, COLLAPSED).is_unit()


@pytest.mark.parametrize("mode", [FULL, COLLAPSED])
def test_coefficients_are_exact(mode):
    # no floating point anywhere: a float is not taken as a dyadic rational
    for bad in (0.5, 0.1, True, "1"):
        with pytest.raises(TypeError):
            GroundElem({(0, 0): bad}, mode)
    three = GroundElem({(1, 0): Fraction(3, 1)}, mode)
    assert type(three.terms[(1, 0)]) is int and three == GroundElem.monomial(1, 0, 3, mode)
    assert three.terms == {(1, 0): 3}
    bad_fraction = Fraction(1, 2) if mode == FULL else Fraction(1, 3)
    with pytest.raises(ValueError):
        GroundElem({(0, 0): bad_fraction}, mode)
    collapsed = GroundElem({(0, 0): 1, (0, 1): 1}).collapse()
    assert collapsed.terms == {(0, 0): 2} and type(collapsed.terms[(0, 0)]) is int
