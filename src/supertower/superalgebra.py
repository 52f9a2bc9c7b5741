"""Finite-dimensional graded superalgebras over exact rationals.

An algebra is given by a homogeneous basis, a degree table, sparse structure
constants and a unit vector.  Supermodules store one exact action matrix per
algebra basis element (computed lazily for large algebras).  The module sign
rules live here: Koszul signs in tensor products and outer tensors, and the
sign-commutation constraint that defines graded homomorphism spaces.

Left modules satisfy ``act(a) @ act(b) == act(ab)``; right modules store the
matrices of right multiplication, so ``act(ab) == act(b) @ act(a)``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction

from .errors import InternalInconsistencyError, ValidationError
from .ground import FULL, GroundElem
from .linalg import Eliminator, Mat, SignedQuotient, Vec, exact, rank_of_rows, vec_axpy


class Degree:
    """An (integer, parity) bidegree: immutable, equal and hashed by value."""

    __slots__ = ("z", "par")

    def __init__(self, z: int, par: int):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "par", par & 1)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Degree is immutable")

    def __delattr__(self, name):
        raise AttributeError("Degree is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.z == other.z and self.par == other.par

    def __hash__(self) -> int:
        return hash((self.z, self.par))

    def __repr__(self) -> str:
        return f"Degree(z={self.z!r}, par={self.par!r})"

    def __add__(self, other: "Degree") -> "Degree":
        return Degree(self.z + other.z, (self.par + other.par) & 1)


LEFT = "left"
RIGHT = "right"


class SuperAlgebra:
    """A finite-dimensional bigraded superalgebra with sparse products.

    ``products`` maps a basis pair ``(i, j)`` to the sparse expansion of
    ``e_i e_j``; pairs may be filled lazily through ``product_fn`` so that
    large algebras never materialize a full multiplication table unless
    something actually walks all of it.
    """

    def __init__(
        self,
        labels: Sequence[str],
        degrees: Sequence[Degree],
        unit: Vec,
        products: dict[tuple[int, int], Vec] | None = None,
        product_fn: Callable[[int, int], Vec] | None = None,
        generators: Sequence[int] | None = None,
        name: str = "",
    ):
        if len(labels) != len(degrees):
            raise ValueError(f"{len(labels)} labels but {len(degrees)} degrees")
        self.labels = list(labels)
        self.degrees = list(degrees)
        self.unit = {i: exact(c) for i, c in unit.items() if c}
        self._products: dict[tuple[int, int], Vec] = dict(products or {})
        self._product_fn = product_fn
        self.generators = list(generators) if generators is not None else None
        self.name = name or f"algebra(dim={len(labels)})"

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degree(self, i: int) -> Degree:
        return self.degrees[i]

    def basis_product(self, i: int, j: int) -> Vec:
        key = (i, j)
        got = self._products.get(key)
        if got is None:
            if self._product_fn is None:
                return {}
            got = self._product_fn(i, j)
            self._products[key] = got
        return got

    def product_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                vec_axpy(out, a * b, self.basis_product(i, j))
        return out

    def generating_set(self) -> list[int]:
        """Indices whose products span the algebra; the full basis if unknown."""
        if self.generators is not None:
            return list(self.generators)
        return list(range(self.dim))

    def leading_factors(self) -> list[int]:
        """Generators and unit terms: the left factors every validator checks.

        Multiplicativity or associativity checked for these times every basis
        element holds for all pairs, by induction on the word length of the
        left factor, provided products of generators starting from the unit
        span the algebra (which ``validate_algebra`` checks).
        """
        return sorted(set(self.generating_set()) | set(self.unit))

    def struct_consts(self) -> dict[tuple[int, int], Vec]:
        """Force and return the full structure-constant table."""
        for i in range(self.dim):
            for j in range(self.dim):
                self.basis_product(i, j)
        return self._products

    def __repr__(self) -> str:
        return f"SuperAlgebra({self.name}, dim={self.dim})"


class ValidationReport:
    def __init__(self, subject: str, violations: list[tuple[str, tuple]]):
        self.subject = subject
        self.violations = violations

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"ValidationReport({self.subject}: {state})"


def generated_dim(alg: SuperAlgebra) -> int:
    """The dimension spanned by products of generators applied to the unit."""
    el = Eliminator()
    frontier = [alg.unit] if el.add_row(alg.unit) else []
    while frontier and el.rank < alg.dim:
        v = frontier.pop()
        for g in alg.generating_set():
            w = alg.product_vec({g: 1}, v)
            if el.add_row(w):
                frontier.append(w)
    return el.rank


def validate_algebra(alg: SuperAlgebra) -> ValidationReport:
    """Check unit laws, and degree additivity and associativity on leading triples.

    The premise of the leading-factor rule, that the declared generators
    span, is checked first.
    """
    bad: list[tuple[str, tuple]] = []
    dim = alg.dim
    if alg.generators is not None and generated_dim(alg) != dim:
        bad.append(("generators do not span", ()))
    if any(alg.degrees[i] != Degree(0, 0) for i in alg.unit):
        bad.append(("unit degree", ()))
    for j in range(dim):
        ej = {j: 1}
        if alg.product_vec(alg.unit, ej) != ej:
            bad.append(("left unit law", (j,)))
        if alg.product_vec(ej, alg.unit) != ej:
            bad.append(("right unit law", (j,)))
    for a in alg.leading_factors():
        da = alg.degrees[a]
        for i in range(dim):
            di = alg.degrees[i]
            pai = alg.basis_product(a, i)
            for k, c in pai.items():
                if not c:
                    continue
                dk = alg.degrees[k]
                if dk.z != da.z + di.z:
                    bad.append(("degree additivity", (a, i, k)))
                if dk.par != (da.par + di.par) & 1:
                    bad.append(("parity additivity", (a, i, k)))
            for j in range(dim):
                lhs: Vec = {}
                for t, c in pai.items():
                    vec_axpy(lhs, c, alg.basis_product(t, j))
                rhs: Vec = {}
                for t, c in alg.basis_product(i, j).items():
                    vec_axpy(rhs, c, alg.basis_product(a, t))
                if lhs != rhs:
                    bad.append(("associativity", (a, i, j)))
    return ValidationReport(alg.name, bad)


def tensor_algebra(a: SuperAlgebra, b: SuperAlgebra, name: str = "") -> SuperAlgebra:
    """The super tensor product; products carry the Koszul sign."""
    dim_b = b.dim
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    degrees = [da + db for da in a.degrees for db in b.degrees]

    def product(x: int, y: int) -> Vec:
        ia, ib = divmod(x, dim_b)
        ja, jb = divmod(y, dim_b)
        sign = -1 if (b.degrees[ib].par and a.degrees[ja].par) else 1
        out: Vec = {}
        pa = a.basis_product(ia, ja)
        pb = b.basis_product(ib, jb)
        for ka, ca in pa.items():
            for kb, cb in pb.items():
                out[ka * dim_b + kb] = sign * ca * cb
        return out

    unit: Vec = {}
    for ia, ca in a.unit.items():
        for ib, cb in b.unit.items():
            unit[ia * dim_b + ib] = ca * cb
    # the slot generators g (x) 1 and 1 (x) h are basis vectors only when
    # both units are; a factor without declared generators lends its basis
    gens = None
    if list(a.unit.values()) == list(b.unit.values()) == [1]:
        (ua,), (ub,) = a.unit, b.unit
        gens = [g * dim_b + ub for g in a.generating_set() if g != ua] + \
            [ua * dim_b + g for g in b.generating_set() if g != ub]
    return SuperAlgebra(
        labels, degrees, unit, product_fn=product, generators=gens,
        name=name or f"{a.name}(x){b.name}",
    )


class AlgebraHom:
    """A unital graded homomorphism given by the image of every source basis element.

    ``validate`` checks degrees, that the unit maps to the target unit, as
    the tower axiom TA2 asks, and multiplicativity on leading factors times
    every basis element.
    """

    def __init__(self, source: SuperAlgebra, target: SuperAlgebra, images: Sequence[Vec], name: str = ""):
        if len(images) != source.dim:
            raise ValueError(f"{len(images)} images for a source of dimension {source.dim}")
        self.source = source
        self.target = target
        self.images = [dict(v) for v in images]
        self.name = name or f"{source.name}->{target.name}"

    def apply_vec(self, v: Vec) -> Vec:
        out: Vec = {}
        for i, c in v.items():
            vec_axpy(out, c, self.images[i])
        return out

    def unit_image(self) -> Vec:
        return self.apply_vec(self.source.unit)

    def validate(self) -> ValidationReport:
        bad: list[tuple[str, tuple]] = []
        for i in range(self.source.dim):
            di = self.source.degrees[i]
            for k, c in self.images[i].items():
                if c and self.target.degrees[k] != di:
                    bad.append(("degree preservation", (i, k)))
        if self.unit_image() != self.target.unit:
            bad.append(("unit preservation", ()))
        for a in self.source.leading_factors():
            for b in range(self.source.dim):
                lhs = self.apply_vec(self.source.basis_product(a, b))
                rhs = self.target.product_vec(self.images[a], self.images[b])
                if lhs != rhs:
                    bad.append(("multiplicativity", (a, b)))
        return ValidationReport(self.name, bad)


class SuperModule:
    """A bigraded module with one exact action matrix per algebra basis element."""

    def __init__(
        self,
        algebra: SuperAlgebra,
        degrees: Sequence[Degree],
        action: dict[int, Mat] | None = None,
        action_fn: Callable[[int], Mat] | None = None,
        side: str = LEFT,
        regular: bool = False,
        name: str = "",
    ):
        self.algebra = algebra
        self.degrees = list(degrees)
        self._action: dict[int, Mat] = dict(action or {})
        self._action_fn = action_fn
        self.side = side
        self.regular = regular
        self.name = name or f"module(dim={len(self.degrees)})"

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def act(self, i: int) -> Mat:
        got = self._action.get(i)
        if got is None:
            if self._action_fn is None:
                raise KeyError(f"no action matrix for basis element {i}")
            got = self._action_fn(i)
            self._action[i] = got
        return got

    def act_vec(self, v: Vec) -> Mat:
        out = Mat(self.dim, self.dim)
        for i, c in v.items():
            if not c:
                continue
            for j, col in self.act(i).cols.items():
                target = out.cols.setdefault(j, {})
                vec_axpy(target, c, col)
                if not target:
                    del out.cols[j]
        return out

    def apply(self, v: Vec, m: Vec) -> Vec:
        """Act by the algebra element ``v`` on the module vector ``m``."""
        out: Vec = {}
        for i, c in v.items():
            if c:
                vec_axpy_mat(out, c, self.act(i), m)
        return out

    def __repr__(self) -> str:
        return f"SuperModule({self.name}, dim={self.dim}, {self.side})"


def vec_axpy_mat(out: Vec, c: int | Fraction, mat: Mat, m: Vec) -> None:
    for j, x in m.items():
        col = mat.cols.get(j)
        if col:
            vec_axpy(out, c * x, col)


def regular_module(alg: SuperAlgebra, name: str = "") -> SuperModule:
    """The algebra acting on itself by left multiplication."""

    def action(i: int) -> Mat:
        m = Mat(alg.dim, alg.dim)
        for j in range(alg.dim):
            col = alg.basis_product(i, j)
            if col:
                m.cols[j] = dict(col)
        return m

    return SuperModule(
        alg, alg.degrees, action_fn=action, side=LEFT, regular=True,
        name=name or f"reg({alg.name})",
    )


def graded_dim(space: SuperModule | SuperAlgebra) -> GroundElem:
    """The bigraded dimension of a module or an algebra, as a full-mode ground element."""
    terms: dict[tuple[int, int], int] = {}
    for d in space.degrees:
        key = (d.z, d.par)
        terms[key] = terms.get(key, 0) + 1
    return GroundElem(terms, FULL)


def hom_graded_dim(src: SuperModule, dst: SuperModule) -> GroundElem:
    """Graded dimension of the space of signed module homomorphisms.

    A homogeneous map of parity ``e`` satisfies
    ``f(b m) == (-1)**(e * par(b)) * b f(m)`` for every generator ``b``.
    When the source is the left regular module the answer is the graded
    dimension of the target (the evaluation-at-unit isomorphism).  When one
    side is a one-dimensional module ``k`` that every non-unit generator
    kills and the other's generators act with singleton supports, the answer
    is a support count (``_hom_by_supports``): it is exact because every
    constraint row then has one entry, so each bidegree's rank is the number
    of distinct supports in it.  Every other pair goes to
    ``_hom_by_elimination``, which finds each bidegree's solution space by
    exact elimination of the generator constraints.
    """
    if src.algebra is not dst.algebra:
        raise ValueError("modules over different algebras")
    if not src.side == dst.side == LEFT:
        raise ValueError("hom_graded_dim needs two left modules")
    if src.regular:
        return graded_dim(dst)
    got = _hom_by_supports(src, dst)
    if got is None:
        got = _hom_by_elimination(src, dst)
    return got


def _hom_by_supports(src: SuperModule, dst: SuperModule) -> GroundElem | None:
    """Hom against a killed one-dimensional module, read off generator supports.

    Let ``k`` be one-dimensional with every non-unit generator acting as
    zero, and ``M`` the other module.  Then every constraint of a generator
    ``b`` has one side zero:

    * ``Hom(M, k)``: the constraints read ``f(b e_j) = 0``, so ``f`` factors
      through ``M / sum_b b M``.  When every column of every ``M.act(b)``
      has at most one entry, of any coefficient, ``sum_b b M`` is spanned by
      the basis vectors in the union of the supports, and the answer counts
      the ``e_j`` outside it in bidegree ``deg k - deg e_j``.
    * ``Hom(k, M)``: the constraints read ``b f(1) = 0``, one per row of
      ``M.act(b)``.  When every ``M.act(b)`` has at most one entry in each
      column and each row, each constraint names one coordinate ``f_j``,
      and the answer counts the ``e_j`` whose column is empty for every
      generator, in bidegree ``deg e_j - deg k``.

    Both are exact: each constraint row is a single nonzero coefficient, so
    the rank of a bidegree block is the number of distinct supports in it.
    Returns None for any other pair.
    """
    alg = src.algebra
    gens = [b for b in alg.generating_set() if not alg.unit.get(b)]

    def killed(mod: SuperModule) -> bool:
        return mod.dim == 1 and not any(any(mod.act(b).cols.values()) for b in gens)

    hit: set[int] = set()
    if killed(dst):
        probe, mod, sign = dst, src, 1
        for b in gens:
            for col in mod.act(b).cols.values():
                if len(col) > 1:
                    return None
                hit.update(col)
    elif killed(src):
        probe, mod, sign = src, dst, -1
        for b in gens:
            rows: set[int] = set()
            for j, col in mod.act(b).cols.items():
                if not col:
                    continue
                if len(col) > 1 or not rows.isdisjoint(col):
                    return None
                rows.update(col)
                hit.add(j)
    else:
        return None
    p = probe.degrees[0]
    terms: dict[tuple[int, int], int] = {}
    for j, e in enumerate(mod.degrees):
        if j not in hit:
            key = (sign * (p.z - e.z), (p.par + e.par) & 1)
            terms[key] = terms.get(key, 0) + 1
    return GroundElem({key: terms[key] for key in sorted(terms)}, FULL)


def _hom_by_elimination(src: SuperModule, dst: SuperModule) -> GroundElem:
    """``hom_graded_dim`` by exact elimination of the generator constraints.

    Each generator ``b``, source vector ``e_j`` and target vector ``e_r``
    give one row over the coordinates of ``f``, grouped by bidegree; each
    block's nullity is its solution space's dimension.
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
        dst_rows: dict[int, list[tuple[int, int | Fraction]]] = {}
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
        nullity = len(keys) - rank_of_rows(rows_by_block.get(bk, ()))
        if nullity:
            total = total + GroundElem.monomial(bk[0], bk[1], nullity)
    return total


def outer_tensor(
    left: SuperModule, right: SuperModule, algebra: SuperAlgebra | None = None, name: str = ""
) -> SuperModule:
    """Outer tensor of left modules; the action carries the Koszul sign.

    ``algebra`` may supply a previously built tensor algebra so repeated
    outer tensors over the same pair share one product table.
    """
    if not left.side == right.side == LEFT:
        raise ValueError("outer_tensor needs two left modules")
    ab = algebra if algebra is not None else tensor_algebra(left.algebra, right.algebra)
    dim_b = right.algebra.dim
    dim_n = right.dim
    degrees = [dm + dn for dm in left.degrees for dn in right.degrees]

    def action(t: int) -> Mat:
        ia, ib = divmod(t, dim_b)
        am = left.act(ia)
        an = right.act(ib)
        pb = right.algebra.degrees[ib].par
        out = Mat(len(degrees), len(degrees))
        for jm in range(left.dim):
            colm = am.cols.get(jm)
            sign = -1 if (pb and left.degrees[jm].par) else 1
            for jn in range(right.dim):
                coln = an.cols.get(jn)
                if colm is None or coln is None:
                    continue
                col: Vec = {}
                for rm, cm in colm.items():
                    for rn, cn in coln.items():
                        col[rm * dim_n + rn] = sign * cm * cn
                if col:
                    out.cols[jm * dim_n + jn] = col
        return out

    return SuperModule(
        ab, degrees, action_fn=action, side=LEFT,
        regular=(left.regular and right.regular),
        name=name or f"{left.name}(box){right.name}",
    )


def restrict_module(phi: AlgebraHom, mod: SuperModule, name: str = "") -> SuperModule:
    """Restriction along the unital map ``phi``: the same space, the pulled-back action."""
    if mod.side != LEFT:
        raise ValueError("restriction needs a left module")
    if mod.algebra is not phi.target:
        raise ValueError("restriction needs a module over the target of phi")
    if phi.unit_image() != phi.target.unit:
        raise ValueError("restriction needs a unital map")

    def action(b: int) -> Mat:
        return mod.act_vec(phi.images[b])

    return SuperModule(
        phi.source, mod.degrees, action_fn=action, side=LEFT,
        name=name or f"res({mod.name})",
    )


def induce_module(phi: AlgebraHom, mod: SuperModule, name: str = "") -> SuperModule:
    """Induction along the unital map ``phi: B -> A``: the module ``A (x)_B N``.

    The result is presented as the quotient of ``A (x) N`` by the span of
    ``a phi(b) (x) n  -  a (x) b n`` with ``a`` running over the basis of
    ``A`` and ``b`` over a generating set of ``B``.  When every
    ``a phi(b)`` and every column of every generator's action has at most
    one entry, equal to ±1, each relation reads ``x_i = ±x_j`` or
    ``x_i = 0``, and a ``SignedQuotient`` takes them as they are; the
    signed-permutation bases of the towers make this the common case.  Any
    other module goes through an ``Eliminator``.  Both give the quotient
    basis of first-nonzero-column pivoting, so the result is reproducible
    and does not depend on the route.  The regular module of ``B`` induces
    to the regular module of ``A``.
    """
    if mod.side != LEFT:
        raise ValueError("induction needs a left module")
    source, target = phi.source, phi.target
    if mod.algebra is not source:
        raise ValueError("induction needs a module over the source of phi")
    if phi.unit_image() != target.unit:
        raise ValueError("induction needs a unital map")
    if mod.regular:
        return regular_module(target, name=name or f"ind({mod.name})")

    nd = mod.dim
    product = target.basis_product
    gens = [b for b in source.generating_set() if not source.unit.get(b)]
    # per generator b: a phi(b) for every basis vector a of the target, one
    # table lookup each when phi(b) is a basis vector
    lefts = []
    for b in gens:
        image = phi.images[b]
        if list(image.values()) == [1]:
            (i,) = image
            lefts.append([product(a, i) for a in range(target.dim)])
        else:
            lefts.append([target.product_vec({a: 1}, image) for a in range(target.dim)])
    acts = [mod.act(b) for b in gens]
    relations = _signed_relations(lefts, acts, target.dim * nd, nd)
    if relations is not None:
        free = relations.free()
    else:
        relations = _eliminated_relations(lefts, acts, nd)
        free = [k for k in range(target.dim * nd) if k not in relations.pivots]
    free_pos = {k: t for t, k in enumerate(free)}
    degrees = [target.degrees[k // nd] + mod.degrees[k % nd] for k in free]

    def action(a: int) -> Mat:
        out = Mat(len(free), len(free))
        for t, k in enumerate(free):
            c, n = divmod(k, nd)
            lifted = {cc * nd + n: coeff for cc, coeff in product(a, c).items()}
            col = {free_pos[k2]: v for k2, v in relations.reduce(lifted).items()}
            if col:
                out.cols[t] = col
        return out

    return SuperModule(target, degrees, action_fn=action, side=LEFT, name=name or f"ind({mod.name})")


def _signed_relations(lefts: list[list[Vec]], acts: list[Mat], flat_dim: int,
                      nd: int) -> SignedQuotient | None:
    """The induction relations as signed edges, or None unless every
    product ``a phi(b)`` and every action column has at most one entry, ±1;
    the products of a generator that kills the module may have any one
    coefficient.

    Target basis vector ``c`` and module vector ``n`` sit in flat column
    ``c * nd + n``.
    The relation ``s_l x_p - s x_q`` of ``a phi(b) = s_l x_p`` and
    ``b n = s x_q`` reads ``x_p = s_l s x_q``; a missing side makes it a kill.
    """
    moves_by_gen = []
    for bn in acts:
        moves = []  # per module vector n: the one entry (q, s) of b n, or None
        for n in range(nd):
            col = bn.cols.get(n)
            if not col:
                moves.append(None)
                continue
            if len(col) != 1:
                return None
            ((q, s),) = col.items()
            if s * s != 1:
                return None
            moves.append((q, s))
        moves_by_gen.append(moves)
    quot = SignedQuotient(flat_dim)
    kill, relate = quot.kill, quot.relate
    # target basis vectors cc with every cc (x) n killed: where some b kills the
    # module, each relation is the single term a phi(b) (x) n, which kills
    # its column whatever its coefficient
    hit: set[int] = set()
    for left_b, moves in zip(lefts, moves_by_gen):
        if not any(moves):
            if max(map(len, left_b), default=0) > 1:
                return None
            hit.update(*left_b)
            continue
        for c, left in enumerate(left_b):
            if not left:
                at = c * nd
                for move in moves:
                    if move is not None:
                        kill(at + move[0])
                continue
            try:
                ((cc, sl),) = left.items()
            except ValueError:
                return None
            if sl * sl != 1:
                return None
            base, at = cc * nd, c * nd
            for n, move in enumerate(moves):
                if move is None:
                    kill(base + n)
                else:
                    relate(base + n, at + move[0], sl * move[1])
    for k in hit if nd == 1 else [cc * nd + n for cc in hit for n in range(nd)]:
        kill(k)
    return quot


def _eliminated_relations(lefts: list[list[Vec]], acts: list[Mat], nd: int) -> Eliminator:
    """The induction relation rows, reduced in the order generator, target
    basis vector, module vector."""
    relations = Eliminator()
    for left_b, bn in zip(lefts, acts):
        for c, left in enumerate(left_b):
            for n in range(nd):
                row: Vec = {}
                for cc, coeff in left.items():
                    row[cc * nd + n] = coeff
                for nn, coeff in bn.cols.get(n, {}).items():
                    k = c * nd + nn
                    row[k] = row.get(k, 0) - coeff
                row = {k: v for k, v in row.items() if v}
                if row:
                    relations.add_row(row)
    return relations


def validate_automorphism(alg: SuperAlgebra, tau: Mat) -> ValidationReport:
    """Check that ``tau`` is a degree-preserving invertible algebra map.

    ``AlgebraHom.validate`` checks degrees, the unit and multiplicativity;
    the rank is checked here.
    """
    name = f"automorphism of {alg.name}"
    images = [tau.col(j) for j in range(alg.dim)]
    bad = AlgebraHom(alg, alg, images, name=name).validate().violations
    if rank_of_rows(images) != alg.dim:
        bad.append(("invertibility", ()))
    return ValidationReport(name, bad)


def twist_module(mod: SuperModule, tau: Mat, name: str = "") -> SuperModule:
    """Precompose the action with the algebra automorphism ``tau``.

    ``tau`` is trusted: check it with ``validate_automorphism`` first.
    """

    def action(b: int) -> Mat:
        return mod.act_vec(tau.col(b))

    return SuperModule(
        mod.algebra, list(mod.degrees), action_fn=action, side=mod.side,
        name=name or f"twist({mod.name})",
    )


# -- serialization (text, JSON-shaped) ----------------------------------------


def algebra_to_dict(alg: SuperAlgebra) -> dict:
    """The on-disk algebra format; forces the full structure-constant table."""
    structure = []
    for (i, j), col in sorted(alg.struct_consts().items()):
        for k in sorted(col):
            c = col[k]
            structure.append([i, j, k, c.numerator, c.denominator])
    unit = [[0, 1]] * alg.dim
    for i, c in alg.unit.items():
        unit[i] = [c.numerator, c.denominator]
    out = {
        "labels": list(alg.labels),
        "degrees": [[d.z, d.par] for d in alg.degrees],
        "unit": unit,
        "structure": structure,
    }
    if alg.generators is not None:
        out["generators"] = list(alg.generators)
    return out


def _all_int(values) -> bool:
    return all(type(x) is int for x in values)  # bool is no integer here


def read_rational(pair, what: str) -> int | Fraction:
    """The value of a ``[num, den]`` field: exactly two integers, ``den`` nonzero."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and _all_int(pair) and pair[1]):
        raise ValidationError(f"{what} must be [num, den] with integers num and den != 0")
    return exact(Fraction(*pair))


def algebra_from_dict(data: dict, name: str = "") -> SuperAlgebra:
    labels = list(data["labels"])
    if not all(isinstance(label, str) for label in labels):
        raise ValidationError("labels must be strings")
    if not all(_all_int(deg) for deg in data["degrees"]):
        raise ValidationError("degrees must be pairs of integers")
    degrees = [Degree(z, par) for z, par in data["degrees"]]
    if len(labels) != len(degrees):
        raise ValidationError("labels and degrees disagree in length")
    unit: Vec = {}
    for i, pair in enumerate(data["unit"]):
        c = read_rational(pair, f"unit entry {i}")
        if c:
            unit[i] = c
    if len(data["unit"]) != len(labels):
        raise ValidationError("unit and labels disagree in length")
    products: dict[tuple[int, int], Vec] = {}
    for i, j, k, num, den in data["structure"]:
        if not _all_int((i, j, k)):
            raise ValidationError(f"structure row ({i},{j},{k}) indices must be integers")
        if not (0 <= i < len(labels) and 0 <= j < len(labels) and 0 <= k < len(labels)):
            raise ValidationError(f"structure row ({i},{j},{k}) out of range")
        col = products.setdefault((i, j), {})
        if k in col:
            raise ValidationError(f"structure row ({i},{j},{k}) appears twice")
        col[k] = read_rational((num, den), f"structure row ({i},{j},{k}) value")
    full = {
        (i, j): products.get((i, j), {})
        for i in range(len(labels))
        for j in range(len(labels))
    }
    generators = data.get("generators")
    if generators is not None and not _all_int(generators):
        raise ValidationError(f"generators {generators} must be integers")
    if generators is not None and not all(0 <= g < len(labels) for g in generators):
        raise ValidationError(f"generators {generators} out of range")
    return SuperAlgebra(
        labels, degrees, unit, products=full,
        generators=generators, name=name or "loaded",
    )
