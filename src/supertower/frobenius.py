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
    AlgebraHom,
    Degree,
    SuperAlgebra,
    ValidationReport,
    kron,
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
    basis knows where products land supplies it: the permutation bases put
    the trace on ``w0``, and a wreath level also matches tensor tuples slot
    by slot against the base Gram rows (``WreathBasis.gram_partners``);
    otherwise every ``j`` is a partner.  Since ``tr(e_j) == (1, e_j)``,
    every trace key must be a partner of the unit, or the rule is wrong.
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


def _multiplication(alg: SuperAlgebra, c: int, right: bool = False) -> Mat:
    """Multiplication by ``e_c``, transposed: row ``x``, column ``t`` holds the
    coefficient of ``e_t`` in ``e_c e_x`` (in ``e_x e_c`` when ``right``)."""
    out = Mat(alg.dim, alg.dim)
    for x in range(alg.dim):
        for t, v in (alg.basis_product(x, c) if right else alg.basis_product(c, x)).items():
            out.cols.setdefault(t, {})[x] = v
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


def frobenius_tensor(f1: FrobeniusStructure, f2: FrobeniusStructure) -> FrobeniusStructure:
    """The structure on the tensor algebra, with trace ``tr1 (x) tr2``."""
    trace = kron(f1.trace, f2.trace, f2.algebra.dim)
    return check_frobenius(tensor_algebra(f1.algebra, f2.algebra), trace,
                           f1.delta + f2.delta, (f1.sigma + f2.sigma) & 1)


def tensor_nakayama_matrix(f1: FrobeniusStructure, f2: FrobeniusStructure) -> Mat:
    """The factorwise tensor ``psi1 (x) psi2`` (both maps are even, so no sign)."""
    dim2 = f2.algebra.dim
    out = Mat(f1.algebra.dim * dim2, f1.algebra.dim * dim2)
    for k in range(out.ncols):
        a, b = divmod(k, dim2)
        col = kron(f1.nakayama.cols.get(a, {}), f2.nakayama.cols.get(b, {}), dim2)
        if col:
            out.cols[k] = col
    return out


def check_dual_iso(frob: FrobeniusStructure) -> ValidationReport:
    """Check that the form identifies the algebra with its shifted dual.

    The candidate map sends ``b`` to the functional ``phi(b): a ->
    (-1)**(par(a) par(b)) (a, b)``, read off Gram column ``b``.  It must be
    degree-zero (checked on every pair), a left-module map, ``phi(c b) ==
    c . phi(b)`` with ``(c . f)(e_a) == (-1)**(p_c p_f + p_c p_a) f(e_a c)``,
    and twist the right action ``(f . a)(e_x) == f(a e_x)`` by the nakayama
    map: ``phi(b) . a == phi(b psi(a))``.  Both identities run over every
    ``b`` and leading ``c`` or ``a`` only, and ``psi`` is validated as a
    unital, degree-preserving algebra map.

    Premise: the algebra is associative (the tower builders certify it,
    ``validate_algebra`` checks it) and its generators span.  Then the
    subspace of ``c`` with ``phi(c b) == c . phi(b)`` for all ``b`` holds the
    unit and is closed under products, as the sign rule is a module action
    (``f((e_a c) c') == f(e_a (c c'))``; the ``p_c p_c'`` signs cancel).  The
    subspace of ``a`` with ``phi(b) . a == phi(b psi(a))`` for all ``b`` is
    closed under products once ``psi`` is multiplicative: ``phi(b) . a a' ==
    phi(b psi(a)) . a' == phi(b psi(a) psi(a'))``.  So each identity holds
    on every basis pair exactly when it holds on the leading factors.
    """
    alg = frob.algebra
    bad: list[tuple[str, tuple]] = []
    dim = alg.dim
    par = [deg.par for deg in alg.degrees]
    leading = alg.leading_factors()
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

    # left-module map: phi(c b) == c . phi(b), read through phi(b) o rho^r_c,
    # where phi(b) has b's parity
    for c in leading:
        right = _multiplication(alg, c, right=True)
        for b in range(dim):
            lhs = phi.apply(alg.basis_product(c, b))
            rhs = right.apply(phi.cols.get(b, {}))
            if par[c]:
                rhs = {a: -v if (par[b] + par[a]) & 1 else v for a, v in rhs.items()}
            if lhs != rhs:
                bad.append(("left module map", (c, b)))

    # right action versus nakayama twist: (phi(b) . a)(e_x) = phi(b)(a e_x) == phi(b psi(a))(e_x)
    left = {a: (_multiplication(alg, a), frob.nakayama.col(a)) for a in leading}
    for b in range(dim):
        for a, (left_a, psi_a) in left.items():
            acted = left_a.apply(phi.cols.get(b, {}))
            twisted = phi.apply(alg.product_vec({b: 1}, psi_a))
            for x in _differences(acted, twisted):
                bad.append(("nakayama compatibility", (b, a, x)))
    psi = AlgebraHom(alg, alg, [frob.nakayama.col(j) for j in range(dim)]).validate()
    bad += [(f"nakayama {kind}", where) for kind, where in psi.violations]
    return ValidationReport(f"dual bimodule iso for {alg.name}", bad)
