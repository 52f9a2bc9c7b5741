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
  of rows.  Rows of at most one entry each are counted without elimination:
  their rank is the number of distinct supports;
* canonical remainder: ``Eliminator.add_row``, ``reduce`` and ``pivots``,
  for an incremental span, membership and a quotient basis;
* solve: ``solve``, the one linear-system kernel.  Its right-hand side is a
  matrix, and every column rides through a single elimination of
  ``[mat | rhs]``; ``invert`` is ``solve`` against the identity.

``SignedQuotient`` is the canonical-remainder mode for relations of signed
support, ``x_i = ±x_j`` and ``x_i = 0``: a union-find over columns with a
sign per edge.  It returns the same free columns and remainders as an
``Eliminator`` fed the same rows, without row reduction.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

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


class SignedQuotient:
    """The quotient of the span of ``x_0 .. x_{n-1}`` by signed-support relations.

    ``relate(i, j, s)`` imposes ``x_i = s x_j`` with ``s`` one of ±1 and
    ``kill(i)`` imposes ``x_i = 0``.  Columns joined by relations form a
    class whose members are ± one another; a class dies when a member is
    killed or a cycle of relations has inconsistent signs (``x = -x``, so
    ``2x = 0`` over the rationals).  Feed every relation before the first
    ``free`` or ``reduce``.

    The answer is the ``Eliminator``'s, fed the rows ``x_i - s x_j`` and
    ``x_i`` in any order.  With first-nonzero-column pivoting the pivot set
    is the set of leading columns of the relation space, which does not
    depend on row order.  A dead class lies in that space, so all its
    columns are pivots.  The relations of a live class are the vectors
    on it whose signed coefficients sum to zero, whose leading columns are
    all its columns but the largest.  So each live class keeps only its
    largest column free, and the canonical remainder of ``x_k`` is
    ``±x_max``.
    """

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._sign = [1] * n  # x_i = sign[i] * x_parent[i]
        self._killed = bytearray(n)
        self._classes: list[tuple[int, int]] = []  # per column: its root and sign
        self._top: dict[int, int] | None = None  # live root -> largest column
        self._free: list[int] = []
        self._image: list[tuple[int, int] | None] | None = None

    def _find(self, i: int) -> tuple[int, int]:
        """The root of ``i``'s class and the sign ``s`` with ``x_i = s x_root``."""
        parent, sign = self._parent, self._sign
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        s = 1
        for k in reversed(path):  # nearest the root first
            s *= sign[k]
            parent[k] = i
            sign[k] = s
        return i, s

    def relate(self, i: int, j: int, s: int) -> None:
        ri, si = self._find(i)
        rj, sj = self._find(j)
        if ri == rj:
            if si != s * sj:
                self._killed[ri] = 1
            return
        self._parent[ri] = rj
        self._sign[ri] = si * s * sj

    def kill(self, i: int) -> None:
        self._killed[i] = 1

    def free(self) -> list[int]:
        """The columns the quotient keeps, ascending: the non-pivot columns."""
        if self._top is None:
            parent, find = self._parent, self._find
            self._classes = classes = [(k, 1) if parent[k] == k else find(k)
                                       for k in range(len(parent))]
            dead = {classes[k][0] for k, hit in enumerate(self._killed) if hit}
            top: dict[int, int] = {}
            for k, (root, _) in enumerate(classes):
                top[root] = k  # columns ascend, so the last one seen is the largest
            self._top = {root: k for root, k in top.items() if root not in dead}
            self._free = sorted(self._top.values())
        return self._free

    def reduce(self, row: Vec) -> Vec:
        """The canonical remainder of ``row``, on free columns."""
        image = self._image
        if image is None:
            # per column: its class's free column and the sign of its remainder
            self.free()
            top, classes = self._top, self._classes
            image = self._image = [None if (k := top.get(root)) is None else (k, s * classes[k][1])
                                   for root, s in classes]
        out: Vec = {}
        for k, c in row.items():
            got = image[k]
            if got is not None:
                t, s = got
                v = out.get(t, 0) + s * c
                if v:
                    out[t] = v
                else:
                    del out[t]
        return out


def rank_of_rows(rows: Iterable[Vec]) -> int:
    """The rank of the span of ``rows``: the one rank computation of the package.

    Rows with at most one entry each span the basis vectors of their
    supports, so their rank is the number of distinct supports; any other
    list goes through the ``Eliminator``.
    """
    rows = list(rows)
    if all(len(r) <= 1 for r in rows):
        return len({k for r in rows for k in r})
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
