"""Frobenius structures on graded superalgebras.

A structure packages a homogeneous trace, the Gram form ``(a, b) = tr(ab)``,
and the automorphism measuring the form's signed asymmetry,
``(a, b) == (-1)**(par(a) par(b)) * (b, psi(a))``.  Nondegeneracy is tested
as Gram invertibility over the rationals, which under invariance is
equivalent to the kernel of the trace containing no nonzero left ideal.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction

from .errors import InternalInconsistencyError, ValidationError
from .linalg import Mat, Vec, exact, rank_of_rows, solve
from .superalgebra import (
    LEFT,
    RIGHT,
    Degree,
    SuperAlgebra,
    ValidationReport,
    tensor_algebra,
    validate_automorphism,
)


class FrobeniusStructure:
    def __init__(self, algebra: SuperAlgebra, trace: Vec, delta: int, sigma: int,
                 gram: Mat, nakayama: Mat):
        self.algebra = algebra
        self.trace = trace          # value of the trace on each basis element
        self.delta = delta          # the form lands in bidegree (delta, sigma)
        self.sigma = sigma
        self.gram = gram            # row i, column j holds tr(e_i e_j)
        self.nakayama = nakayama

    def __repr__(self) -> str:
        return f"FrobeniusStructure({self.algebra.name}, degree=({self.delta},{self.sigma}))"


def _trace_of_vec(trace: Vec, v: Vec) -> int | Fraction:
    out = 0
    for k, c in v.items():
        t = trace.get(k)
        if t:
            out += c * t
    return out


def check_frobenius(
    alg: SuperAlgebra,
    trace: Vec,
    delta: int,
    sigma: int,
    partners: Callable[[int], Iterable[int]] | None = None,
) -> FrobeniusStructure:
    """Build and verify a Frobenius structure; raises on failure.

    Checks: the trace is supported in bidegree ``(delta, sigma)`` and the
    Gram matrix is invertible.  Premise: the algebra is associative (the
    tower builders certify it, ``validate_algebra`` checks it), so the form
    is invariant: ``(ab, c) - (a, bc)`` is the trace of an associator.

    ``partners(i)`` lists, ascending, every ``j`` for which ``e_i e_j`` can
    reach the trace; only those pairs enter the Gram matrix.  A family whose
    basis knows where products land (the permutation bases put the trace on
    ``w0``) supplies it; otherwise every ``j`` is a partner.  Since
    ``tr(e_j) == (1, e_j)``, every trace key must be a partner of the unit,
    or the rule is wrong.
    """
    sigma &= 1
    trace = {i: exact(c) for i, c in trace.items() if c}
    for i in trace:
        if alg.degrees[i] != Degree(delta, sigma):
            raise ValidationError("trace not graded")
    if partners is None:
        def partners(i: int) -> range:
            return range(alg.dim)
    reach = {j for u in alg.unit for j in partners(u)}
    if not reach.issuperset(trace):
        raise InternalInconsistencyError("trace support lies outside the unit's Gram partners")
    gram = Mat(alg.dim, alg.dim)
    for i in range(alg.dim):
        for j in partners(i):
            val = _trace_of_vec(trace, alg.basis_product(i, j))
            if val:
                gram.cols.setdefault(j, {})[i] = val
    if rank_of_rows(gram.cols.values()) != alg.dim:
        raise ValidationError("not Frobenius for this trace")
    psi = nakayama_matrix(alg, gram)
    return FrobeniusStructure(alg, trace, delta, sigma, gram, psi)


def _transposed_products(alg: SuperAlgebra, side: str) -> list[Mat]:
    """The transposed multiplication matrices: row ``k``, column ``t`` of
    ``out[j]`` is the coefficient of ``e_t`` in ``e_j e_k`` (in ``e_k e_j``
    for ``RIGHT``)."""
    out = [Mat(alg.dim, alg.dim) for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            a, k = (i, j) if side == LEFT else (j, i)
            for t, c in alg.basis_product(i, j).items():
                out[a].cols.setdefault(t, {})[k] = c
    return out


def _differences(u: Vec, v: Vec) -> list[int]:
    """Ascending indices where two sparse vectors (no stored zeros) differ."""
    return sorted(k for k in u.keys() | v.keys() if u.get(k) != v.get(k))


def nakayama_matrix(alg: SuperAlgebra, gram: Mat) -> Mat:
    """Solve for the automorphism and verify it.

    ``(b, psi(a)) == (-1)**(par(a) par(b)) * (a, b)`` for all basis ``b``:
    column ``a`` of the right-hand side is Gram row ``a`` with those signs,
    and one ``solve`` carries all the columns.  A non-multiplicative
    solution means the supplied data was inconsistent and raises an
    internal-inconsistency error.
    """
    par = [deg.par for deg in alg.degrees]
    rhs = Mat(alg.dim, alg.dim)
    for a, row in gram.transpose().cols.items():
        rhs.cols[a] = {b: -g if (par[a] and par[b]) else g for b, g in row.items()}
    psi = solve(gram, rhs)
    if psi is None:
        raise InternalInconsistencyError("gram system for the nakayama map is inconsistent")
    report = validate_automorphism(alg, psi)
    if not report.ok:
        raise InternalInconsistencyError(
            f"solved nakayama map is not an automorphism: {report.violations[:3]}"
        )
    return psi


def frobenius_tensor(f1: FrobeniusStructure, f2: FrobeniusStructure, algebra: SuperAlgebra | None = None) -> FrobeniusStructure:
    """The structure on the tensor algebra, with trace ``tr1 (x) tr2``."""
    ab = algebra if algebra is not None else tensor_algebra(f1.algebra, f2.algebra)
    dim2 = f2.algebra.dim
    trace: Vec = {}
    for i, a in f1.trace.items():
        for j, b in f2.trace.items():
            trace[i * dim2 + j] = a * b
    return check_frobenius(ab, trace, f1.delta + f2.delta, (f1.sigma + f2.sigma) & 1)


def tensor_nakayama_matrix(f1: FrobeniusStructure, f2: FrobeniusStructure) -> Mat:
    """The factorwise tensor ``psi1 (x) psi2`` (both maps are even, so no sign)."""
    dim1, dim2 = f1.algebra.dim, f2.algebra.dim
    out = Mat(dim1 * dim2, dim1 * dim2)
    for a in range(dim1):
        ca = f1.nakayama.cols.get(a, {})
        for b in range(dim2):
            cb = f2.nakayama.cols.get(b, {})
            col: Vec = {}
            for i, x in ca.items():
                for j, y in cb.items():
                    col[i * dim2 + j] = x * y
            if col:
                out.cols[a * dim2 + b] = col
    return out


def check_dual_iso(frob: FrobeniusStructure) -> ValidationReport:
    """Exhaustive check that the form identifies the algebra with its shifted dual.

    The candidate map sends ``b`` to the functional
    ``a -> (-1)**(par(a) par(b)) (a, b)``; it must be a degree-zero map of
    left modules, and composing with the right action must match
    multiplication through the nakayama automorphism:
    ``phi(b) . a == phi(b psi(a))`` evaluated against every basis element.
    Every basis pair and triple is covered, evaluated row-sparse: ``phi(b)``
    is read off Gram column ``b`` and both sides of each identity are
    accumulated through transposed multiplication tables.
    """
    alg = frob.algebra
    bad: list[tuple[str, tuple]] = []
    dim = alg.dim
    par = [deg.par for deg in alg.degrees]
    # functional coordinates: phi.cols[b][a] == phi(e_b)(e_a), ascending in a
    phi = Mat(dim, dim, {b: {a: -g if (par[a] and par[b]) else g for a, g in sorted(col.items())}
                         for b, col in frob.gram.cols.items()})

    # degree-zero into the shifted dual: phi(b) nonzero on e_a only when
    # deg(a) + deg(b) == (delta, sigma)
    target = Degree(frob.delta, frob.sigma)
    for b in range(dim):
        for a in phi.cols.get(b, {}):
            if alg.degrees[a] + alg.degrees[b] != target:
                bad.append(("degree zero", (b, a)))

    # left-module map: phi(c b) == (-1)**(par(c) par(phi(b))) phi(b) o rho^r_c, where
    # (c . f)(e_a) = (-1)^(pc*pf + pc*par(a)) f(e_a c) and phi(b) has b's parity
    right = _transposed_products(alg, RIGHT)
    for c in range(dim):
        for b in range(dim):
            lhs = phi.apply(alg.basis_product(c, b))
            rhs = right[c].apply(phi.cols.get(b, {}))
            if par[c]:
                rhs = {a: -v if (par[b] + par[a]) & 1 else v for a, v in rhs.items()}
            if lhs != rhs:
                bad.append(("left module map", (c, b)))

    # right action versus nakayama twist: (phi(b) . a)(e_x) = phi(b)(a e_x) == phi(b psi(a))(e_x)
    left = _transposed_products(alg, LEFT)
    for b in range(dim):
        for a in range(dim):
            acted = left[a].apply(phi.cols.get(b, {}))
            twisted = phi.apply(alg.product_vec({b: 1}, frob.nakayama.col(a)))
            for x in _differences(acted, twisted):
                bad.append(("nakayama compatibility", (b, a, x)))
    return ValidationReport(f"dual bimodule iso for {alg.name}", bad)
