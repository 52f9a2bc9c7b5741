"""Tools the tests share that the verifier itself never runs.

Module shifts, the action of an algebra element on a module vector, the
all-pairs module validator, induction by row reduction alone, Hom by
elimination of every generator constraint, the form-invariance audit that associativity implies, the identity
hom, the dict-table copy of an algebra, the algebra-map check without index reads, the matrix sum, scale, product and zero test, the permutation list,
the value scan behind ``apply_s``, the nilCoxeter straightening, the wreath sign rules, the Cartan map, the
unmemoised smash product and Fock action and a failure filter, plus the
exterior-superalgebra and Z/3 base files.  No ``verify``, ``weyl`` or ``build`` run
calls them, so they live with the tests.
"""

import functools

from supertower.errors import InternalInconsistencyError, ValidationError
from supertower.frobenius import _differences, _multiplication
from supertower.grothendieck import (
    G_SIDE,
    K_SIDE,
    GrothLayer,
    GrothTensor,
    GrothVector,
    tensor_add,
    tensor_scale,
)
from supertower.ground import FULL, GroundElem
from supertower.heisenberg import HeisenbergDouble, HeisenbergElem
from supertower.linalg import Eliminator, Mat, Vec, exact, vec_axpy, vec_scale
from supertower.reporting import CheckRecord
from supertower.superalgebra import (
    AlgebraHom,
    Degree,
    SuperAlgebra,
    SuperModule,
    ValidationReport,
)
from supertower.towers import (
    Perm,
    SignedPermBasis,
    apply_s,
    identity_perm,
    left_descents,
    perm_inverse,
    perm_mult,
    perm_tables,
)


def failures(records: list[CheckRecord]) -> list[CheckRecord]:
    return [r for r in records if not r.passed]


# -- matrices -----------------------------------------------------------------------


def mat_from_entries(nrows: int, ncols: int, entries) -> Mat:
    """A matrix summed from ``(row, column, value)`` triples."""
    m = Mat(nrows, ncols)
    for i, j, c in entries:
        m.add_entry(i, j, c)
    return m


def mat_add(a: Mat, b: Mat) -> Mat:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError(f"shape mismatch: {a!r} plus {b!r}")
    out = Mat(a.nrows, a.ncols, a.cols)
    for j, col in b.cols.items():
        target = out.cols.setdefault(j, {})
        vec_axpy(target, 1, col)
        if not target:
            del out.cols[j]
    return out


def mat_scale(m: Mat, c) -> Mat:
    c = exact(c)
    return Mat(m.nrows, m.ncols, {j: vec_scale(col, c) for j, col in m.cols.items() if c})


def mat_is_zero(m: Mat) -> bool:
    return not m.cols


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a!r} times {b!r}")
    out = Mat(a.nrows, b.ncols)
    for j, col in b.cols.items():
        image = a.apply(col)
        if image:
            out.cols[j] = image
    return out


def entry(m: Mat, i: int, j: int):
    return m.cols.get(j, {}).get(i, 0)


# -- algebras and modules -----------------------------------------------------------


def all_perms(n: int) -> list[Perm]:
    """S_n in basis order; the list is shared, so callers must not mutate it."""
    return perm_tables(n)[0]


def apply_s_by_values(a: Perm, i: int) -> Perm:
    """``s_i a`` by a scan over every value: the oracle of ``towers.apply_s``."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in a)


def dict_table_copy(alg: SuperAlgebra) -> SuperAlgebra:
    """``alg`` with its whole product table stored as a dict table, whichever
    form ``alg`` keeps: the oracle of every signed table."""
    return SuperAlgebra(alg.labels, alg.degrees, alg.unit, products=alg.struct_consts(),
                        generators=alg.generators, name=alg.name)


def identity_hom(alg: SuperAlgebra) -> AlgebraHom:
    return AlgebraHom(alg, alg, [{i: 1} for i in range(alg.dim)], name=f"id({alg.name})")


def dict_path_violations(phi: AlgebraHom) -> list[tuple[str, tuple]]:
    """``AlgebraHom.validate`` with every product formed through dicts: the
    oracle of its signed-table reads."""
    bad: list[tuple[str, tuple]] = []
    for i in range(phi.source.dim):
        di = phi.source.degrees[i]
        for k, c in phi.images[i].items():
            if c and phi.target.degrees[k] != di:
                bad.append(("degree preservation", (i, k)))
    if phi.unit_image() != phi.target.unit:
        bad.append(("unit preservation", ()))
    for a in phi.source.leading_factors():
        for b in range(phi.source.dim):
            lhs = phi.apply_vec(phi.source.basis_product(a, b))
            rhs = phi.target.product_vec(phi.images[a], phi.images[b])
            if lhs != rhs:
                bad.append(("multiplicativity", (a, b)))
    return bad


def check_form_invariance(alg: SuperAlgebra, gram: Mat) -> None:
    """Exhaustive audit of ``(e_i e_j, e_k) == (e_i, e_j e_k)`` over basis triples.

    Evaluated row-sparse: for each ``(i, j)`` in lexicographic order both
    sides are sparse vectors over ``k``, read through the Gram rows and the
    transposed left multiplications.  Raises on the first failing triple.
    """
    rows = gram.transpose()  # rows.cols[t] == {k: (e_t, e_k)}
    left = [_multiplication(alg, j) for j in range(alg.dim)]
    for i in range(alg.dim):
        row_i = rows.cols.get(i, {})
        for j in range(alg.dim):
            lhs = rows.apply(alg.basis_product(i, j))
            rhs = left[j].apply(row_i)
            if lhs != rhs:
                k = _differences(lhs, rhs)[0]
                raise ValidationError(f"form not invariant at triple ({i},{j},{k})")


def shift_module(mod: SuperModule, n: int, s: int = 0) -> SuperModule:
    """Degree shift by ``n`` and parity shift by ``s``.

    A parity shift negates the action of odd algebra elements.
    """
    s &= 1
    degrees = [Degree(d.z + n, d.par + s) for d in mod.degrees]

    def action(i: int) -> Mat:
        base = mod.act(i)
        if s and mod.algebra.degrees[i].par:
            return mat_scale(base, -1)
        return base

    return SuperModule(
        mod.algebra, degrees, action_fn=action,
        regular=(mod.regular and n == 0 and s == 0),
        name=f"{mod.name}{{{n},{s}}}",
    )


def vec_axpy_mat(out: Vec, c, mat: Mat, m: Vec) -> None:
    """In-place ``out += c * mat @ m``."""
    for j, x in m.items():
        col = mat.cols.get(j)
        if col:
            vec_axpy(out, c * x, col)


def module_apply(mod: SuperModule, v: Vec, m: Vec) -> Vec:
    """Act by the algebra element ``v`` on the module vector ``m``."""
    out: Vec = {}
    for i, c in v.items():
        if c:
            vec_axpy_mat(out, c, mod.act(i), m)
    return out


def validate_module(mod: SuperModule, on_generators: bool = True) -> ValidationReport:
    """Check the unit action, homogeneity, and ``act(ab)`` against ``act(a) act(b)``.

    ``a`` runs over leading factors (every basis element if ``on_generators``
    is false), ``b`` over the basis.
    """
    alg = mod.algebra
    bad: list[tuple[str, tuple]] = []
    leading = alg.leading_factors() if on_generators else range(alg.dim)
    if mod.act_vec(alg.unit) != Mat.identity(mod.dim):
        bad.append(("unit action", ()))
    for a in leading:
        da = alg.degrees[a]
        for j, col in mod.act(a).cols.items():
            dj = mod.degrees[j]
            for i, c in col.items():
                if c and mod.degrees[i] != dj + da:
                    bad.append(("homogeneity", (a, i, j)))
        for b in range(alg.dim):
            expected = mod.act_vec(alg.basis_product(a, b))
            if mat_mul(mod.act(a), mod.act(b)) != expected:
                bad.append(("structure constants", (a, b)))
    return ValidationReport(mod.name, bad)


def eliminated_induction(phi: AlgebraHom, mod: SuperModule) -> SuperModule:
    """Induction along the unital map ``phi`` by row reduction alone, the oracle
    of ``induce_module``.

    The quotient of ``A (x) N`` by the rows ``a phi(b) (x) n - a (x) b n``,
    every one through an ``Eliminator``, with no signed-support route and no
    regular-module shortcut.
    """
    source, target = phi.source, phi.target
    nd = mod.dim
    relations = Eliminator()
    for b in source.generating_set():
        if source.unit.get(b):
            continue
        bn = mod.act(b)
        for c in range(target.dim):
            left = target.product_vec({c: 1}, phi.images[b])
            for n in range(nd):
                row = {}
                for cc, coeff in left.items():
                    row[cc * nd + n] = row.get(cc * nd + n, 0) + coeff
                for nn, coeff in bn.cols.get(n, {}).items():
                    row[c * nd + nn] = row.get(c * nd + nn, 0) - coeff
                row = {k: v for k, v in row.items() if v}
                if row:
                    relations.add_row(row)
    free = [k for k in range(target.dim * nd) if k not in relations.pivots]
    free_pos = {k: t for t, k in enumerate(free)}
    degrees = [target.degrees[k // nd] + mod.degrees[k % nd] for k in free]

    def action(a):
        out = Mat(len(free), len(free))
        for t, k in enumerate(free):
            c, n = divmod(k, nd)
            lifted = {cc * nd + n: coeff for cc, coeff in target.basis_product(a, c).items()}
            col = {free_pos[k2]: v for k2, v in relations.reduce(lifted).items()}
            if col:
                out.cols[t] = col
        return out

    return SuperModule(target, degrees, action_fn=action, name=f"ind({mod.name})")


def hom_by_elimination(src: SuperModule, dst: SuperModule) -> GroundElem:
    """``hom_graded_dim`` by exact elimination of the generator constraints,
    its oracle: no regular-module shortcut and no killed-module rows.

    Each generator ``b``, source vector ``e_j`` and target vector ``e_r``
    give one row over the coordinates of ``f``, grouped by bidegree; each
    block's nullity is its solution space's dimension, with every row of
    the block fed to an ``Eliminator``.
    """
    alg = src.algebra
    gens = alg.generating_set()
    nd = dst.dim

    def key(r: int, j: int) -> int:
        return r * src.dim + j

    def bidegree(r: int, j: int) -> tuple[int, int]:
        d = dst.degrees[r]
        e = src.degrees[j]
        return (d.z - e.z, (d.par + e.par) & 1)

    blocks: dict[tuple[int, int], list[int]] = {}
    for r in range(nd):
        for j in range(src.dim):
            blocks.setdefault(bidegree(r, j), []).append(key(r, j))

    rows_by_block: dict[tuple[int, int], list[Vec]] = {}
    for b in gens:
        if alg.unit.get(b):
            continue  # the unit constraint is vacuous
        asrc = src.act(b)
        adst = dst.act(b)
        pb = alg.degrees[b].par
        # row-major view of the target action for this generator
        dst_rows: dict[int, list[tuple[int, int]]] = {}
        for t, col in adst.cols.items():
            for r, c in col.items():
                dst_rows.setdefault(r, []).append((t, c))
        for j in range(src.dim):
            col = asrc.cols.get(j, {})
            for r in range(nd):
                row: Vec = {}
                for s_idx, c in col.items():
                    k2 = key(r, s_idx)
                    row[k2] = row.get(k2, 0) + c
                # the component of f receiving this constraint has parity
                # par(r) + par(b) + par(j)
                par_f = (dst.degrees[r].par + src.degrees[j].par + pb) & 1
                sign = -1 if (pb and par_f) else 1
                for t, c in dst_rows.get(r, ()):
                    k2 = key(t, j)
                    row[k2] = row.get(k2, 0) - sign * c
                row = {k2: v for k2, v in row.items() if v}
                if row:
                    block_keys = {bidegree(k2 // src.dim, k2 % src.dim) for k2 in row}
                    if len(block_keys) != 1:
                        raise InternalInconsistencyError("inhomogeneous constraint row")
                    rows_by_block.setdefault(block_keys.pop(), []).append(row)

    total = GroundElem.zero(FULL)
    for bk, keys in sorted(blocks.items()):
        el = Eliminator()
        for row in rows_by_block.get(bk, ()):
            el.add_row(row)
        nullity = len(keys) - el.rank
        if nullity:
            total = total + GroundElem.monomial(bk[0], bk[1], nullity)
    return total


# -- the nilCoxeter straightening, the oracle of the sign table ----------------------


def word_perm(word: tuple[int, ...], n: int) -> Perm:
    """The permutation ``s_(a1) ... s_(ak)`` of the word ``(a1, ..., ak)``."""
    cur = identity_perm(n)
    for i in reversed(word):
        cur = apply_s(cur, i)
    return cur


def _rewrite_front(word: tuple[int, ...], k: int, eps: int) -> tuple[int, tuple[int, ...]]:
    """Rewrite a reduced word to start with the descent ``k``; returns (sign, word)."""
    if word[0] == k:
        return 1, word
    j = word[0]
    sign, tail = _rewrite_front(word[1:], k, eps)
    # tail == (k, rest)
    if abs(j - k) > 1:
        return sign * (-1 if eps else 1), (k, j) + tail[1:]
    # adjacent: need the braid pattern (j, k, j) -> (k, j, k)
    sign2, tail2 = _rewrite_front(tail[1:], j, eps)
    return sign * sign2, (k, j, k) + tail2[1:]


def _normalize(word: tuple[int, ...], n: int, eps: int) -> int:
    """Sign relating the product over a reduced ``word`` to its canonical basis element."""
    if not word:
        return 1
    k = min(left_descents(word_perm(word, n)))
    sign, word2 = _rewrite_front(word, k, eps)
    return sign * _normalize(word2[1:], n, eps)


@functools.lru_cache(maxsize=None)
def _rmult(n: int, eps: int, w: Perm, a: int) -> tuple[int, Perm] | None:
    """``u_w u_a``: the canonical word of ``w`` with ``a`` appended, straightened."""
    _, _, words, lengths = perm_tables(n)
    ws = perm_mult(w, apply_s(identity_perm(n), a))
    if lengths[ws] < lengths[w]:
        return None
    return _normalize(words[w] + (a,), n, eps), ws


def straightened_product(basis: SignedPermBasis, i: int, j: int) -> dict[int, int]:
    """``u_(w_i) u_(w_j)`` by folding the canonical word of ``w_j`` on the right."""
    sign, cur = 1, basis.perms[i]
    for a in basis.words[basis.perms[j]]:
        step = _rmult(basis.n, basis.eps, cur, a)
        if step is None:
            return {}
        sign *= step[0]
        cur = step[1]
    return {basis.index[cur]: sign}


# -- the wreath sign rules, the oracles of the tensor power and the act table --------


def superperm_sign(v: Perm, parities: tuple[int, ...]) -> int:
    """Koszul sign of permuting homogeneous tensor factors by ``v``.

    Counts inversions of ``v`` restricted to the odd factors: pairs of
    positions ``p < q`` with both entries odd and ``v(p) > v(q)``.
    """
    odd_positions = [p for p, par in enumerate(parities) if par]
    inv = 0
    for a in range(len(odd_positions)):
        for b in range(a + 1, len(odd_positions)):
            if v[odd_positions[a]] > v[odd_positions[b]]:
                inv += 1
    return -1 if inv & 1 else 1


def superperm_apply(base: SuperAlgebra, v: Perm, t: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Move the tensor factors of ``t`` by ``v``; returns (Koszul sign, moved tuple)."""
    vinv = perm_inverse(v)
    moved = tuple(t[vinv[i]] for i in range(len(t)))
    return superperm_sign(v, tuple(base.degrees[b].par for b in t)), moved


def tensor_tuple_product(base: SuperAlgebra, xs: tuple[int, ...], ys: tuple[int, ...]):
    """Sparse product in the n-fold tensor power, with the Koszul sign.

    Yields ``(tuple, coefficient)`` pairs; the sign counts odd pairs
    ``(i > j)`` between the left factor at slot ``i`` and the right factor
    at slot ``j``.
    """
    sign = 1
    for i in range(len(xs)):
        for j in range(i):
            if base.degrees[xs[i]].par and base.degrees[ys[j]].par:
                sign = -sign
    terms = [(tuple(), sign)]
    for x, y in zip(xs, ys):
        prod = base.basis_product(x, y)
        new_terms = []
        for prefix, c in terms:
            for k, ck in prod.items():
                new_terms.append((prefix + (k,), c * ck))
        terms = new_terms
        if not terms:
            return
    yield from terms


# -- the Grothendieck layer ---------------------------------------------------------


def cartan_map(layer: GrothLayer, k: GrothVector) -> GrothVector:
    """Expand each projective class in simples, bar-twisting the coefficients.

    The underlying map is the identity on modules; because the two sides
    scale oppositely under degree shift, the coefficients of the input are
    bar-involuted while each projective expands positively.
    """
    if k.side != K_SIDE:
        raise ValueError(f"the Cartan map takes a {K_SIDE} vector, not {k.side}")
    out = GrothVector(G_SIDE)
    for (lv, i), c in k.entries.items():
        proj = layer.declared(K_SIDE, lv)[i].module
        out = out.add(layer.class_in_G(proj, lv).scale(c.bar()))
    return out


# -- the Heisenberg double, unmemoised: oracles of the memoised products ---------------
#
# Each result is rebuilt term by term with ``add``/``tensor_add``, as the
# library computed it before its memos and one-dict accumulation.


def rebuilt_nabla(layer: GrothLayer, u: GrothVector, v: GrothVector) -> GrothVector:
    out = GrothVector(u.side)
    for ka, ca in u.entries.items():
        for kb, cb in v.entries.items():
            out = out.add(layer.basis_nabla(u.side, ka, kb).scale(ca * cb))
    return out


def rebuilt_delta(layer: GrothLayer, u: GrothVector) -> GrothTensor:
    out: GrothTensor = {}
    for k, c in u.entries.items():
        out = tensor_add(out, tensor_scale(layer.basis_delta(u.side, k), c))
    return out


def rebuilt_regular_action(double: HeisenbergDouble, x: GrothVector, b: GrothVector) -> GrothVector:
    layer = double.layer
    out = GrothVector(G_SIDE)
    for (kb1, kb2), cb in rebuilt_delta(layer, b).items():
        p = layer.pairing(x, layer.basis_vector(G_SIDE, *kb2))
        if p.is_zero():
            continue
        coeff = cb * p * layer.scalar(double.twist.gamma[0] * kb1[0] * kb2[0])
        out = out.add(layer.basis_vector(G_SIDE, *kb1).scale(coeff))
    return out


def lowering_elem(x: GrothVector) -> HeisenbergElem:
    """The lowering element ``sum c_k (1 # k)`` of a projective-side vector
    ``x``: its Fock action is the regular action of ``x``."""
    return HeisenbergElem({((0, 0), k): c for k, c in x.entries.items()})


def unmemoised_smash(double: HeisenbergDouble, h1: HeisenbergElem, h2: HeisenbergElem) -> HeisenbergElem:
    """The commutation-and-contract sum, rebuilt for every term pair."""
    layer = double.layer
    g1, g2 = double.twist.gamma
    xi2 = double.twist.xi[1]
    out = HeisenbergElem()
    for (ka, kx), c1 in h1.terms.items():
        dx = layer.basis_delta(K_SIDE, kx)
        for (kb, ky), c2 in h2.terms.items():
            base = c1 * c2
            if base.is_zero():
                continue
            db = layer.basis_delta(G_SIDE, kb)
            for (kx1, kx2), cx in dx.items():
                for (kb1, kb2), cbb in db.items():
                    p = layer.pairing(layer.basis_vector(K_SIDE, *kx1),
                                      layer.basis_vector(G_SIDE, *kb2))
                    if p.is_zero():
                        continue
                    exp = (g2 * kb[0] * kx2[0] + xi2 * (kb[0] - kx1[0]) * kx2[0]
                           + g1 * kb1[0] * kb2[0])
                    coeff = base * cx * cbb * p * layer.scalar(exp)
                    left = layer.basis_nabla(G_SIDE, ka, kb1)
                    right = layer.basis_nabla(K_SIDE, kx2, ky)
                    for kg, cg in left.entries.items():
                        for kk, ck in right.entries.items():
                            term = coeff * cg * ck
                            if not term.is_zero():
                                out = out.add(HeisenbergElem({(kg, kk): term}))
    return out


def unmemoised_fock_act(double: HeisenbergDouble, h: HeisenbergElem, v: GrothVector) -> GrothVector:
    """Contract the projective part of each term on all of ``v``, multiply the rest."""
    layer = double.layer
    out = GrothVector(G_SIDE)
    for (ka, kx), c in h.terms.items():
        acted = rebuilt_regular_action(double, layer.basis_vector(K_SIDE, *kx), v)
        if acted.is_zero():
            continue
        out = out.add(rebuilt_nabla(layer, layer.basis_vector(G_SIDE, *ka), acted).scale(c))
    return out


# -- base files ---------------------------------------------------------------------

# the exterior superalgebra on two odd generators, trace on x y, written as a base file
EXTERIOR_BASE = {
    "algebra": {
        "labels": ["1", "x", "y", "xy"], "degrees": [[0, 0], [1, 1], [1, 1], [2, 0]],
        "unit": [[1, 1], [0, 1], [0, 1], [0, 1]], "generators": [1, 2],
        "structure": [[0, a, a, 1, 1] for a in range(4)] + [[a, 0, a, 1, 1] for a in (1, 2, 3)]
        + [[1, 2, 3, 1, 1], [2, 1, 3, -1, 1]],
    },
    "frobenius": {"trace": [[0, 1], [0, 1], [0, 1], [1, 1]], "delta": 2, "sigma": 0},
}

# the group algebra of Z/3 with trace 1* + g*: every Gram row has two entries
Z3_BASE = {
    "algebra": {
        "labels": ["1", "g", "g2"], "degrees": [[0, 0], [0, 0], [0, 0]],
        "unit": [[1, 1], [0, 1], [0, 1]], "generators": [1],
        "structure": [[a, b, (a + b) % 3, 1, 1] for a in range(3) for b in range(3)],
    },
    "frobenius": {"trace": [[1, 1], [1, 1], [0, 1]], "delta": 0, "sigma": 0},
}
