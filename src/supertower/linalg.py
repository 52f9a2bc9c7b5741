"""Sparse exact linear algebra over the rationals.

Vectors are dicts ``index -> int | Fraction`` with no stored zeros; matrices
are column-major dicts of such vectors.  Values are ``int`` until a division,
and every division goes through ``Fraction``; ``exact`` is the one
normaliser at the boundary.  Everything here is artifact plumbing:
row reduction uses deterministic first-nonzero-column pivoting so quotient
bases and report output are reproducible.

``Eliminator`` is the one elimination kernel.  It keeps its rows in echelon
form only; the reduced row echelon form that ``solve`` reads is computed on
demand by back-substitution, and it is unique, so it does not depend on how
the echelon rows were reached.  Callers use it in one of three modes:

* rank: ``rank_of_rows``, for every site that needs only the rank of a set
  of rows;
* canonical remainder: ``Eliminator.add_row``, ``reduce`` and ``pivots``,
  for an incremental span, membership and a quotient basis;
* solve: ``solve``, the one linear-system kernel.  Its right-hand side is a
  matrix, and every column rides through a single elimination of
  ``[mat | rhs]``; ``invert`` is ``solve`` against the identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Vec = dict[int, int | Fraction]


def exact(c) -> int | Fraction:
    """``c`` as an exact value: an ``int``, or a ``Fraction`` that is not one."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact rational: {c!r}")


def vec_scale(a: Vec, c) -> Vec:
    c = exact(c)
    if not c:
        return {}
    return {i: x * c for i, x in a.items()}


def vec_axpy(out: Vec, c: int | Fraction, a: Vec) -> None:
    """In-place ``out += c*a``."""
    if not c:
        return
    for i, x in a.items():
        v = out.get(i, 0) + c * x
        if v:
            out[i] = v
        elif i in out:
            del out[i]


class Mat:
    """A sparse ``nrows x ncols`` matrix over the rationals."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols: dict[int, Vec] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = {} if cols is None else {j: dict(c) for j, c in cols.items() if c}

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, {j: {j: 1} for j in range(n)})

    def add_entry(self, i: int, j: int, c) -> None:
        c = exact(c)
        if not c:
            return
        col = self.cols.setdefault(j, {})
        v = col.get(i, 0) + c
        if v:
            col[i] = v
        else:
            del col[i]
            if not col:
                del self.cols[j]

    def col(self, j: int) -> Vec:
        return dict(self.cols.get(j, {}))

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for j, c in v.items():
            col = self.cols.get(j)
            if col:
                vec_axpy(out, c, col)
        return out

    def transpose(self) -> "Mat":
        out = Mat(self.ncols, self.nrows)
        for j, col in self.cols.items():
            for i, c in col.items():
                out.cols.setdefault(i, {})[j] = c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        keys = set(self.cols) | set(other.cols)
        return all(self.cols.get(j, {}) == other.cols.get(j, {}) for j in keys)

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class Eliminator:
    """Online Gaussian elimination with first-nonzero-column pivoting.

    Rows are fed one at a time; each is reduced against the pivots found so
    far and, when independent, stored normalized in echelon form (leading
    entry one, no entries left of it).  Supports rank, membership tests and
    canonical reduction of new vectors modulo the accumulated row space.
    ``rref()`` gives the fully reduced pivot rows.
    """

    def __init__(self):
        self.pivots: dict[int, Vec] = {}  # pivot column -> normalized echelon row

    def reduce(self, row: Vec) -> Vec:
        """Fully reduce a row: eliminate every pivot-column entry."""
        out: Vec = {}
        row = dict(row)
        while row:
            j = min(row)
            piv = self.pivots.get(j)
            if piv is None:
                out[j] = row.pop(j)
            else:
                vec_axpy(row, -row[j], piv)
        return out

    def add_row(self, row: Vec) -> bool:
        """Insert a row; returns True if it increased the rank."""
        red = self.reduce(row)
        if not red:
            return False
        j = min(red)
        lead = red[j]
        if lead == -1:
            red = {k: -c for k, c in red.items()}
        elif lead != 1:
            red = vec_scale(red, 1 / Fraction(lead))
        self.pivots[j] = red
        return True

    def rref(self) -> dict[int, Vec]:
        """Pivot column -> reduced row echelon row, in pivot insertion order.

        Back-substitution from the rightmost pivot: each echelon row has
        entries only right of its pivot, so subtracting the already reduced
        rows of the pivot columns it meets clears every other pivot column.
        """
        done: dict[int, Vec] = {}
        for j in sorted(self.pivots, reverse=True):
            prow = self.pivots[j]
            row = dict(prow)
            for k, c in prow.items():
                if k != j and k in done:
                    vec_axpy(row, -c, done[k])
            done[j] = row
        return {j: done[j] for j in self.pivots}

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_of_rows(rows: Iterable[Vec]) -> int:
    """The rank of the span of ``rows``: the one rank computation of the package."""
    el = Eliminator()
    for r in rows:
        el.add_row(r)
    return el.rank


def solve(mat: Mat, rhs: Mat) -> Mat | None:
    """One solution ``x`` of ``mat @ x == rhs``, or None if any column is inconsistent.

    Right-hand column ``k`` rides along as augmented column ``mat.ncols + k``
    of one elimination over the rows of ``[mat | rhs]``; a pivot there means
    some column has no solution.  Free unknowns are set to zero, so the
    answer is deterministic and each column equals the solution of its own
    system.
    """
    if rhs.nrows != mat.nrows:
        raise ValueError(f"shape mismatch: {mat!r} against right-hand side {rhs!r}")
    n = mat.ncols
    rows: dict[int, Vec] = {}
    for j, col in mat.cols.items():
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    for k, col in rhs.cols.items():
        for i, b in col.items():
            rows.setdefault(i, {})[n + k] = b
    el = Eliminator()
    for i in sorted(rows):
        el.add_row(rows[i])
    if any(j >= n for j in el.pivots):
        return None
    cols: dict[int, Vec] = {}
    for pj, prow in el.rref().items():
        for k, c in prow.items():
            if k >= n:
                cols.setdefault(k - n, {})[pj] = c
    x = Mat(n, rhs.ncols)
    x.cols = {k: cols[k] for k in sorted(cols)}
    for k in range(rhs.ncols):
        if mat.apply(x.cols.get(k, {})) != rhs.cols.get(k, {}):
            return None
    return x


def invert(mat: Mat) -> Mat | None:
    """Exact inverse of a square matrix, or None if singular."""
    if mat.nrows != mat.ncols:
        raise ValueError(f"only a square matrix has an inverse, not {mat!r}")
    return solve(mat, Mat.identity(mat.ncols))
