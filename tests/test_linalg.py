"""Exact sparse linear algebra plumbing."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from supertower.errors import InternalInconsistencyError
from supertower.linalg import (
    Eliminator,
    Mat,
    SignedQuotient,
    block_ranks,
    exact,
    invert,
    rank_of_rows,
    solve,
    vec_axpy,
    vec_scale,
)

from support import entry, mat_add, mat_from_entries, mat_is_zero, mat_mul, mat_scale


def dense_rank_oracle(rows, ncols):
    """Plain dense Gaussian elimination over Fraction."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    col = 0
    nr = len(m)
    while col < ncols and rank < nr:
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def solve_column(mat, rhs):
    """``solve`` on one right-hand vector, wrapped as a one-column matrix."""
    got = solve(mat, Mat(mat.nrows, 1, {0: rhs}))
    return None if got is None else got.col(0)


def random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-4, 4))
        rows.append({k: v for k, v in row.items() if v})
    return rows


def test_rank_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_rows(rng, nrows, ncols)
        assert rank_of_rows(rows) == dense_rank_oracle(rows, ncols)


SINGLETON_COLS = 6
singleton_rows = hst.one_of(
    hst.just({}),
    hst.dictionaries(hst.integers(0, SINGLETON_COLS - 1),
                     hst.integers(-3, 3).filter(bool) | hst.builds(Fraction, hst.integers(-3, 3).filter(bool),
                                                                   hst.integers(1, 3)),
                     min_size=1, max_size=1),
)
wide_rows = hst.dictionaries(hst.integers(0, SINGLETON_COLS - 1), hst.integers(-3, 3).filter(bool),
                             min_size=2, max_size=3)


class TestSingletonRanks:
    """``rank_of_rows`` counts the supports of one-entry rows and eliminates the rest."""

    @staticmethod
    def rank_and_eliminated(rows):
        fed = []
        add_row = Eliminator.add_row

        def spy(self, row):
            fed.append(row)
            return add_row(self, row)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Eliminator, "add_row", spy)
            rank = rank_of_rows(iter(rows))
        return rank, bool(fed)

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(singleton_rows, max_size=12))
    def test_singleton_rows_count_their_supports(self, rows):
        rank, eliminated = self.rank_and_eliminated(rows)
        assert rank == dense_rank_oracle(rows, SINGLETON_COLS)
        assert not eliminated

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(singleton_rows, max_size=8), hst.lists(wide_rows, min_size=1, max_size=3),
           hst.randoms(use_true_random=False))
    def test_a_mixed_list_is_eliminated(self, singles, wide, rng):
        rows = singles + wide
        rng.shuffle(rows)
        rank, eliminated = self.rank_and_eliminated(rows)
        assert rank == dense_rank_oracle(rows, SINGLETON_COLS)
        assert eliminated

    def test_zero_rows_and_repeated_supports(self):
        assert rank_of_rows([]) == 0
        assert rank_of_rows([{}, {}]) == 0
        assert rank_of_rows([{2: 3}, {2: Fraction(-1, 2)}, {}, {4: 1}, {2: 1}]) == 2
        # the two-entry row joins a support already counted: rank 2, not 3
        assert rank_of_rows([{0: 1}, {1: 2}, {0: 1, 1: -1}]) == 2


class TestBlockRanks:
    """``block_ranks`` ranks the rows of each block of columns on their own and
    refuses a row that spans two blocks."""

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(hst.integers(0, 2), min_size=SINGLETON_COLS, max_size=SINGLETON_COLS),
           hst.lists(singleton_rows | wide_rows, max_size=12))
    def test_each_block_matches_the_dense_oracle(self, block, rows):
        rows = [r for r in rows if len({block[k] for k in r}) <= 1]
        ranks = block_ranks(rows, block)
        assert set(ranks) <= set(block)
        for key in set(block):
            inside = [r for r in rows if r and block[min(r)] == key]
            assert ranks.get(key, 0) == dense_rank_oracle(inside, SINGLETON_COLS)

    def test_a_row_across_two_blocks_raises(self):
        with pytest.raises(InternalInconsistencyError):
            block_ranks([{0: 1}, {0: 1, 1: 2}], ["a", "b"])


def test_solve_and_invert():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 6)
        mat = Mat(n, n)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.6:
                    mat.add_entry(i, j, rng.randint(-3, 3))
        x_true = {j: Fraction(rng.randint(-3, 3)) for j in range(n)}
        x_true = {j: v for j, v in x_true.items() if v}
        rhs = mat.apply(x_true)
        got = solve_column(mat, rhs)
        assert got is not None
        assert mat.apply(got) == rhs
        inv = invert(mat)
        full_rank = rank_of_rows([mat.col(j) for j in range(n)]) == n
        if full_rank:
            assert inv is not None
            assert mat_mul(mat, inv) == Mat.identity(n)
            assert mat_mul(inv, mat) == Mat.identity(n)
        else:
            assert inv is None


def test_solve_inconsistent():
    mat = mat_from_entries(2, 1, [(0, 0, 1), (1, 0, 2)])
    assert solve_column(mat, {0: Fraction(1), 1: Fraction(1)}) is None


def test_eliminator_membership():
    el = Eliminator()
    el.add_row({0: Fraction(1), 1: Fraction(2)})
    el.add_row({1: Fraction(1)})
    assert not el.reduce({0: Fraction(3), 1: Fraction(-1)})
    assert el.reduce({2: Fraction(1)})


def test_matrix_algebra():
    a = mat_from_entries(2, 2, [(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    b = mat_from_entries(2, 2, [(0, 0, 1), (1, 0, 1)])
    ab = mat_mul(a, b)
    assert entry(ab, 0, 0) == 3  # 1*1 + 2*1
    assert entry(ab, 1, 0) == 3
    assert a.transpose().transpose() == a
    assert mat_is_zero(mat_add(a, mat_scale(a, -1)))


# -- the eager-RREF eliminator, kept as an oracle for the echelon-first one ----


class EagerEliminator:
    """Oracle: every insert sweeps the earlier pivot rows, keeping full RREF."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        out = {}
        row = dict(row)
        while row:
            j = min(row)
            piv = self.pivots.get(j)
            if piv is None:
                out[j] = row.pop(j)
            else:
                vec_axpy(row, -row[j], piv)
        return out

    def add_row(self, row):
        red = self.reduce(row)
        if not red:
            return False
        j = min(red)
        red = vec_scale(red, 1 / Fraction(red[j]))
        for prow in self.pivots.values():
            if j in prow:
                vec_axpy(prow, -prow[j], red)
        self.pivots[j] = red
        return True


def _rows_of(mat):
    rows = {}
    for j, col in mat.cols.items():
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return rows


def eager_solve(mat, rhs):
    marker = mat.ncols
    rows = _rows_of(mat)
    for i, b in rhs.items():
        if b:
            rows.setdefault(i, {})[marker] = b
    el = EagerEliminator()
    for i in sorted(rows):
        el.add_row(rows[i])
    if marker in el.pivots:
        return None
    x = {pj: prow[marker] for pj, prow in el.pivots.items() if prow.get(marker)}
    return x if mat.apply(x) == {i: c for i, c in rhs.items() if c} else None


def eager_invert(mat):
    n = mat.ncols
    rows = _rows_of(mat)
    el = EagerEliminator()
    for i in range(n):
        row = dict(rows.get(i, {}))
        row[n + i] = Fraction(1)
        el.add_row(row)
    if set(el.pivots) != set(range(n)):
        return None
    out = Mat(n, n)
    for pj, prow in el.pivots.items():
        for k, c in prow.items():
            if k >= n:
                out.add_entry(pj, k - n, c)
    return out


NCOLS = 7
rationals = hst.builds(Fraction, hst.integers(-4, 4).filter(bool), hst.integers(1, 3))
sparse_rows = hst.dictionaries(hst.integers(0, NCOLS - 1), rationals, max_size=4)


def square_mats(n):
    entries = hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1), rationals),
                        max_size=n * n)
    return entries.map(lambda es: mat_from_entries(n, n, es))


class TestEchelonFirstAgainstEagerRREF:
    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.tuples(sparse_rows, hst.booleans()), max_size=10),
           hst.lists(sparse_rows, max_size=4))
    def test_same_pivots_remainders_and_rref(self, steps, probes):
        new, old = Eliminator(), EagerEliminator()
        for row, read_rref in steps:
            assert new.add_row(row) == old.add_row(row)
            assert list(new.pivots) == list(old.pivots)  # same columns, same order
            assert new.rank == len(old.pivots)
            if read_rref:  # later rows must refresh what was read here
                assert list(new.rref().items()) == list(old.pivots.items())
            for v in probes + [row]:
                # the remainder on non-pivot columns, key order included
                assert list(new.reduce(v).items()) == list(old.reduce(v).items())
                assert (not new.reduce(v)) == (not old.reduce(v))
        assert list(new.rref().items()) == list(old.pivots.items())

    @settings(max_examples=150, deadline=None)
    @given(hst.integers(1, 5).flatmap(lambda n: hst.tuples(
        square_mats(n), hst.dictionaries(hst.integers(0, n - 1), rationals, max_size=n))))
    def test_solve_and_invert_match(self, case):
        mat, rhs = case
        assert solve_column(mat, rhs) == eager_solve(mat, rhs)
        assert invert(mat) == eager_invert(mat)


def test_rref_refreshed_after_a_later_row():
    el = Eliminator()
    el.add_row({0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})
    assert el.rref() == {0: {0: 1, 1: 1, 2: 1}}
    el.add_row({1: Fraction(1)})
    assert el.rref() == {0: {0: 1, 2: 1}, 1: {1: 1}}


# -- the per-column vector solve, kept as an oracle for the matrix-RHS one ----


def vector_solve(mat, rhs):
    """Oracle: one elimination of ``[mat | rhs]`` per right-hand vector."""
    marker = mat.ncols
    rows = _rows_of(mat)
    for i, b in rhs.items():
        if b:
            rows.setdefault(i, {})[marker] = b
    el = Eliminator()
    for i in sorted(rows):
        el.add_row(rows[i])
    if marker in el.pivots:
        return None
    x = {}
    for pj, prow in el.rref().items():
        b = prow.get(marker, Fraction(0))
        if b:
            x[pj] = b
    return x if mat.apply(x) == {i: c for i, c in rhs.items() if c} else None


def mats(nrows, ncols):
    if not ncols:
        return hst.just(Mat(nrows, 0))
    entries = hst.lists(hst.tuples(hst.integers(0, nrows - 1), hst.integers(0, ncols - 1), rationals),
                        max_size=nrows * ncols)
    return entries.map(lambda es: mat_from_entries(nrows, ncols, es))


systems = hst.tuples(hst.integers(1, 5), hst.integers(1, 5), hst.integers(0, 4)).flatmap(
    lambda shape: hst.tuples(mats(shape[0], shape[1]), mats(shape[0], shape[2])))


class TestMatrixSolveAgainstColumnSolves:
    @settings(max_examples=250, deadline=None)
    @given(systems)
    def test_each_column_as_its_own_system(self, system):
        mat, rhs = system
        columns = {k: vector_solve(mat, rhs.col(k)) for k in range(rhs.ncols)}
        got = solve(mat, rhs)
        if any(x is None for x in columns.values()):
            assert got is None
            return
        assert (got.nrows, got.ncols) == (mat.ncols, rhs.ncols)
        # same entries, column keys ascending, each column in pivot order
        assert list(got.cols) == [k for k in range(rhs.ncols) if columns[k]]
        for k, x in columns.items():
            assert list(got.col(k).items()) == list(x.items())

    @settings(max_examples=100, deadline=None)
    @given(hst.integers(1, 5).flatmap(square_mats))
    def test_invert_is_solve_against_identity(self, mat):
        inv = invert(mat)
        assert inv == eager_invert(mat)
        if inv is not None:
            assert mat_mul(mat, inv) == Mat.identity(mat.nrows)


# -- the integer-first kernel against the Fraction oracle ------------------------


def test_exact_normalises_and_rejects():
    assert exact(3) == 3 and type(exact(3)) is int
    assert exact(Fraction(3, 1)) == 3 and type(exact(Fraction(3, 1))) is int
    assert exact(Fraction(-6, 2)) == -3 and type(exact(Fraction(-6, 2))) is int
    assert exact(Fraction(1, 3)) == Fraction(1, 3) and type(exact(Fraction(1, 3))) is Fraction
    for bad in (0.5, 1.0, True, "1", None):
        with pytest.raises(TypeError):
            exact(bad)


def test_constructors_keep_ints():
    m = mat_from_entries(2, 2, [(0, 0, 1), (0, 0, Fraction(2)), (1, 1, Fraction(1, 2))])
    assert type(entry(m, 0, 0)) is int and entry(m, 0, 0) == 3
    assert entry(m, 1, 1) == Fraction(1, 2)
    assert type(entry(m, 1, 0)) is int
    assert all(type(c) is int for c in Mat.identity(3).cols[1].values())
    assert all(type(c) is int for c in mat_scale(m, Fraction(2)).col(0).values())
    assert all(type(c) is int for c in vec_scale({0: 1, 1: -2}, Fraction(4, 2)).values())
    with pytest.raises(TypeError):
        vec_scale({0: 1}, 0.5)
    with pytest.raises(TypeError):
        m.add_entry(0, 0, 1.5)


def values_of(*vecs):
    return [c for v in vecs for c in v.values()]


def assert_exact(values):
    """No float and no bool ever enters or leaves the kernel; zeros are not stored."""
    for c in values:
        assert type(c) in (int, Fraction), c
        assert c


# one kind of value per system: signs only, so every lead starts at +-1, wider
# integers for |lead| > 1, and ints mixed with proper fractions
value_kinds = [hst.sampled_from([-1, 1]), hst.integers(-4, 4).filter(bool),
               hst.one_of(hst.integers(-4, 4).filter(bool), rationals)]


def rows_of(values):
    return hst.dictionaries(hst.integers(0, NCOLS - 1), values, max_size=4)


def systems_of(values):
    return hst.tuples(hst.lists(rows_of(values), max_size=10), hst.lists(rows_of(values), max_size=3))


def square_systems_of(values):
    return hst.integers(1, 5).flatmap(lambda n: hst.tuples(
        hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1), values), max_size=n * n)
        .map(lambda es: mat_from_entries(n, n, es)),
        hst.dictionaries(hst.integers(0, n - 1), values, max_size=n)))


class TestIntFirstAgainstFractionOracle:
    @settings(max_examples=250, deadline=None)
    @given(hst.sampled_from(value_kinds).flatmap(systems_of))
    def test_eliminator_matches(self, system):
        rows, probes = system
        new, old = Eliminator(), EagerEliminator()
        for row in rows:
            was_int = all(type(c) is int for c in values_of(row, *new.pivots.values()))
            red = new.reduce(row)
            assert_exact(values_of(red))
            assert new.add_row(row) == old.add_row(row)
            # a pivot row must lead with 1, or the next reduce never ends
            assert all(min(prow) == j and prow[j] == 1 for j, prow in new.pivots.items())
            assert list(new.pivots) == list(old.pivots)
            assert new.rank == len(old.pivots)
            if was_int:
                assert all(type(c) is int for c in red.values())
                if red and red[min(red)] in (1, -1):
                    # a unit lead keeps the new pivot row in int
                    assert all(type(c) is int for c in new.pivots[min(red)].values())
            assert_exact(values_of(*new.pivots.values()))
            for v in probes + [row]:
                got = new.reduce(v)
                assert list(got.items()) == list(old.reduce(v).items())
                assert_exact(values_of(got))
        rref = new.rref()
        assert list(rref.items()) == list(old.pivots.items())
        assert_exact(values_of(*rref.values()))

    @settings(max_examples=150, deadline=None)
    @given(hst.sampled_from(value_kinds).flatmap(square_systems_of))
    def test_solve_and_invert_match(self, case):
        mat, rhs = case
        assert_exact(values_of(*mat.cols.values()))
        got = solve_column(mat, rhs)
        assert got == eager_solve(mat, rhs)
        inv = invert(mat)
        assert inv == eager_invert(mat)
        for x in ([got] if got is not None else []) + (list(inv.cols.values()) if inv else []):
            assert_exact(values_of(x))

    def test_signed_permutation_inverse_stays_int(self):
        # a signed permutation matrix, the shape of every built-in Gram matrix
        perm, signs = [2, 0, 3, 1], [1, -1, -1, 1]
        mat = mat_from_entries(4, 4, [(perm[j], j, signs[j]) for j in range(4)])
        inv = invert(mat)
        assert mat_mul(mat, inv) == Mat.identity(4)
        assert all(type(c) is int for col in inv.cols.values() for c in col.values())


# -- the signed-support quotient against elimination ------------------------------


def signed_rows(edges, kills):
    """The rows ``x_i - s x_j`` and ``x_i`` an ``Eliminator`` takes for the same relations."""
    rows = []
    for i, j, s in edges:
        row = {i: 1}
        row[j] = row.get(j, 0) - s
        rows.append({k: c for k, c in row.items() if c})
    return rows + [{i: 1} for i in kills]


def quotient_of(n, edges, kills, rows=()):
    quot = SignedQuotient(n)
    for i, j, s in edges:
        quot.relate(i, j, s)
    for i in kills:
        quot.kill(i)
    for row in rows:
        quot.add_row(row)
    return quot


def assert_matches_elimination(n, edges, kills, probes=(), rows=()):
    """The quotient's free columns and remainders are those of an ``Eliminator``
    fed every relation: the signed ones as rows, and the kept ``rows``."""
    quot = quotient_of(n, edges, kills, rows)
    el = Eliminator()
    for row in signed_rows(edges, kills) + list(rows):
        if row:
            el.add_row(row)
    assert quot.free() == [k for k in range(n) if k not in el.pivots]
    for v in [{k: 1} for k in range(n)] + list(probes):
        assert quot.reduce(v) == el.reduce(v)


@hst.composite
def signed_systems(draw):
    n = draw(hst.integers(1, 12))
    col = hst.integers(0, n - 1)
    edges = draw(hst.lists(hst.tuples(col, col, hst.sampled_from([1, -1])), max_size=14))
    kills = draw(hst.lists(col, max_size=3))
    probes = draw(hst.lists(hst.dictionaries(col, hst.integers(-3, 3).filter(bool), max_size=4),
                            max_size=3))
    # relations that are not signed: two or more entries, any coefficients
    coeffs = hst.one_of(hst.integers(-4, 4).filter(bool), rationals)
    rows = draw(hst.lists(hst.dictionaries(col, coeffs, min_size=2, max_size=4),
                          max_size=3)) if n > 1 else []
    return n, edges, kills, probes, rows


class TestSignedQuotient:
    @settings(max_examples=150, deadline=None)
    @given(system=signed_systems())
    def test_matches_elimination(self, system):
        # free columns and every remainder are the Eliminator's, in any order of feeding
        n, edges, kills, probes, rows = system
        assert_matches_elimination(n, edges, kills, probes, rows)
        assert_matches_elimination(n, edges[::-1], kills[::-1], probes, rows[::-1])

    def test_odd_sign_cycle_dies(self):
        # x0 = x1 = x2 = -x0: the class is 2x = 0, so nothing of it survives
        quot = quotient_of(4, [(0, 1, 1), (1, 2, 1), (2, 0, -1)], [])
        assert quot.free() == [3]
        assert quot.reduce({0: 1, 1: 5, 2: -2, 3: 7}) == {3: 7}
        assert_matches_elimination(4, [(0, 1, 1), (1, 2, 1), (2, 0, -1)], [])

    def test_even_sign_cycle_lives(self):
        edges = [(0, 1, -1), (1, 2, -1), (2, 0, 1)]
        quot = quotient_of(3, edges, [])
        assert quot.free() == [2]
        assert quot.reduce({0: 1}) == {2: 1}
        assert quot.reduce({1: 1}) == {2: -1}
        assert_matches_elimination(3, edges, [])

    def test_both_terms_on_one_column(self):
        # x = -x dies; x = x is vacuous
        quot = quotient_of(2, [(0, 0, -1), (1, 1, 1)], [])
        assert quot.free() == [1]
        assert quot.reduce({0: 3, 1: 2}) == {1: 2}
        assert_matches_elimination(2, [(0, 0, -1), (1, 1, 1)], [])

    def test_sign_products_along_a_long_chain(self):
        rng = random.Random(5)
        n = 60
        signs = [rng.choice([1, -1]) for _ in range(n - 1)]
        edges = [(k, k + 1, signs[k]) for k in range(n - 1)]
        for order in (edges, edges[::-1], rng.sample(edges, len(edges))):
            quot = quotient_of(n, order, [])
            assert quot.free() == [n - 1]
            expected = 1
            for k in range(n - 2, -1, -1):
                expected *= signs[k]
                assert quot.reduce({k: 1}) == {n - 1: expected}
        assert_matches_elimination(n, edges, [])

    def test_kill_reaches_a_class_through_a_later_union(self):
        # 0 dies first; the relations that join it to 3 and 5 come afterwards
        quot = SignedQuotient(6)
        quot.kill(0)
        quot.relate(3, 5, -1)
        quot.relate(0, 3, 1)
        quot.relate(1, 2, 1)
        assert quot.free() == [2, 4]
        assert quot.reduce({0: 1, 3: 2, 5: 1, 1: 4}) == {2: 4}
        assert_matches_elimination(6, [(3, 5, -1), (0, 3, 1), (1, 2, 1)], [0])

    def test_kept_row_is_reduced_by_the_signed_classes(self):
        # x0 = x2 makes x0 + 2 x1 read 2 x1 + x2, whose pivot 1 is dropped
        quot = quotient_of(4, [(0, 2, 1)], [], [{0: 1, 1: 2}])
        assert quot.free() == [2, 3]
        assert quot.reduce({1: 1}) == {2: Fraction(-1, 2)}
        assert quot.reduce({0: 1, 3: 1}) == {2: 1, 3: 1}
        assert_matches_elimination(4, [(0, 2, 1)], [], rows=[{0: 1, 1: 2}])

    def test_cancelling_remainders_are_dropped(self):
        quot = quotient_of(3, [(0, 2, 1), (1, 2, -1)], [])
        assert quot.reduce({0: 1, 1: 1}) == {}
        assert quot.reduce({0: 1, 1: -1}) == {2: 2}


SHAPE_CHECKS = "\n".join([
    "from supertower.linalg import Mat, invert, solve",
    "from support import mat_add, mat_mul",
    "a, b = Mat(2, 3), Mat(2, 2)",
    "for name, call in [('mul', lambda: mat_mul(a, b)), ('add', lambda: mat_add(a, b)),",
    "                   ('invert', lambda: invert(a)), ('solve', lambda: solve(b, Mat(3, 1)))]:",
    "    try:",
    "        call()",
    "    except ValueError:",
    "        print(name, 'ValueError')",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_shape_mismatches_raise(flags):
    # python -O strips assert statements; the shape checks must survive it
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
    proc = subprocess.run([sys.executable, *flags, "-c", SHAPE_CHECKS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "mul ValueError\nadd ValueError\ninvert ValueError\nsolve ValueError\n"
