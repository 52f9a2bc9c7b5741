"""Finite-dimensional graded superalgebras over exact rationals.

An algebra is given by a homogeneous basis, a degree table, sparse structure
constants and a unit vector.  Supermodules store one exact action matrix per
algebra basis element (computed lazily for large algebras).  The module sign
rules live here: Koszul signs in tensor products and outer tensors, and the
sign-commutation constraint that defines graded homomorphism spaces.

Modules are left modules: ``act(a) @ act(b) == act(ab)``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import chain

from .errors import ValidationError
from .ground import FULL, GroundElem
from .linalg import Eliminator, Mat, SignedQuotient, Vec, block_ranks, exact, rank_of_rows, vec_axpy
from .values import Frozen, Record

SignedEntry = tuple[int | Fraction, int] | None  # (c, k) for c e_k, or None for zero
_UNFILLED = object()  # a signed-table key not filled yet


class Degree(Frozen):
    """An (integer, parity) bidegree: immutable, equal and hashed by value."""

    __slots__ = ("z", "par")

    def __init__(self, z: int, par: int):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "par", par & 1)

    def __add__(self, other: "Degree") -> "Degree":
        return Degree(self.z + other.z, (self.par + other.par) & 1)


class SuperAlgebra:
    """A finite-dimensional bigraded superalgebra with one lazy product table.

    The table maps a basis pair ``(i, j)`` to ``e_i e_j`` and is filled
    through ``product_fn`` on first use, so that large algebras never
    materialize a full multiplication table unless something actually walks
    all of it.  It has one of two forms:

    * the dict table: the sparse expansion of ``e_i e_j``;
    * the signed table (``signed``), for a monomial algebra, one whose basis
      products have at most one term: ``(c, k)`` with ``e_i e_j == c e_k``
      and ``c`` a nonzero rational, or None when the product vanishes.
      ``signed_product`` reads it by index.

    A table known whole takes its form from its data: ``algebra_from_dict``
    loads a base file as a signed table when every product has at most one
    term.  ``basis_product`` returns the dict expansion in either form.
    """

    def __init__(
        self,
        labels: Sequence[str],
        degrees: Sequence[Degree],
        unit: Vec,
        products: dict[tuple[int, int], Vec] | dict[tuple[int, int], SignedEntry] | None = None,
        product_fn: Callable[[int, int], Vec] | Callable[[int, int], SignedEntry] | None = None,
        generators: Sequence[int] | None = None,
        name: str = "",
        signed: bool = False,
    ):
        if len(labels) != len(degrees):
            raise ValueError(f"{len(labels)} labels but {len(degrees)} degrees")
        self.labels = list(labels)
        self.degrees = list(degrees)
        self.unit = {i: exact(c) for i, c in unit.items() if c}
        self._products: dict = dict(products or {})
        self._product_fn = product_fn
        self.signed = signed
        self.generators = list(generators) if generators is not None else None
        self.name = name or f"algebra(dim={len(labels)})"

    @property
    def dim(self) -> int:
        return len(self.labels)

    def signed_product(self, i: int, j: int) -> SignedEntry:
        """The entry of ``e_i e_j`` in a signed table: ``(c, k)``, or None for zero."""
        key = (i, j)
        got = self._products.get(key, _UNFILLED)
        if got is _UNFILLED:
            got = self._products[key] = self._product_fn(i, j) if self._product_fn else None
        return got

    def basis_product(self, i: int, j: int) -> Vec:
        if self.signed:
            got = self.signed_product(i, j)
            return {got[1]: got[0]} if got else {}
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
        """Force the full table and return it in dict form, one entry per basis pair."""
        return {(i, j): self.basis_product(i, j) for i in range(self.dim) for j in range(self.dim)}

    def __repr__(self) -> str:
        return f"SuperAlgebra({self.name}, dim={self.dim})"


class ValidationReport(Record):
    def __init__(self, subject: str, violations: list[tuple[str, tuple]]):
        self.subject = subject
        self.violations = violations

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


def kron(u: Vec, v: Vec, dim_v: int, sign: int = 1) -> Vec:
    """The tensor ``sign * u (x) v``, with the pair ``(i, j)`` at ``i * dim_v + j``:
    the one layout of every tensor product of algebras, modules, traces and maps."""
    return {i * dim_v + j: sign * a * b for i, a in u.items() for j, b in v.items()}


def tensor_algebra(a: SuperAlgebra, b: SuperAlgebra) -> SuperAlgebra:
    """The super tensor product; products carry the Koszul sign.

    Two signed tables give a signed table: an entry is the Koszul sign times
    the two factors' entries.
    """
    dim_b = b.dim
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    degrees = [da + db for da in a.degrees for db in b.degrees]
    signed = a.signed and b.signed

    def product(x: int, y: int) -> Vec | SignedEntry:
        ia, ib = divmod(x, dim_b)
        ja, jb = divmod(y, dim_b)
        sign = -1 if (b.degrees[ib].par and a.degrees[ja].par) else 1
        if not signed:
            return kron(a.basis_product(ia, ja), b.basis_product(ib, jb), dim_b, sign)
        left = a.signed_product(ia, ja)
        right = left and b.signed_product(ib, jb)
        return right and (sign * left[0] * right[0], left[1] * dim_b + right[1])

    unit = kron(a.unit, b.unit, dim_b)
    # the slot generators g (x) 1 and 1 (x) h are basis vectors only when
    # both units are; a factor without declared generators lends its basis
    gens = None
    if list(a.unit.values()) == list(b.unit.values()) == [1]:
        (ua,), (ub,) = a.unit, b.unit
        gens = [g * dim_b + ub for g in a.generating_set() if g != ua] + \
            [ua * dim_b + g for g in b.generating_set() if g != ub]
    return SuperAlgebra(
        labels, degrees, unit, product_fn=product, generators=gens,
        name=f"{a.name}(x){b.name}", signed=signed,
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
        # images are made zero-free, so that a one-term image reads by index
        one = [next(iter(v.items())) if len(v) == 1 else None
               for v in ({t: x for t, x in v.items() if x} for v in self.images)]
        src, tgt = self.source, self.target
        if src.signed and tgt.signed and all(one):
            # every product and image has one term: compare (coefficient, index)
            # pairs of signed-table entries, None for zero
            src_product, tgt_product = src.signed_product, tgt.signed_product
            for a in src.leading_factors():
                i, x = one[a]
                for b, (j, y) in enumerate(one):
                    lhs = src_product(a, b)
                    if lhs:
                        t, z = one[lhs[1]]
                        lhs = (lhs[0] * z, t)
                    rhs = tgt_product(i, j)
                    if lhs != (rhs and (x * y * rhs[0], rhs[1])):
                        bad.append(("multiplicativity", (a, b)))
            return ValidationReport(self.name, bad)
        for a in src.leading_factors():
            for b in range(src.dim):
                lhs = self.apply_vec(src.basis_product(a, b))
                if lhs != tgt.product_vec(self.images[a], self.images[b]):
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
        regular: bool = False,
        name: str = "",
    ):
        self.algebra = algebra
        self.degrees = list(degrees)
        self._action: dict[int, Mat] = dict(action or {})
        self._action_fn = action_fn
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

    def __repr__(self) -> str:
        return f"SuperModule({self.name}, dim={self.dim})"


def regular_module(alg: SuperAlgebra, name: str = "") -> SuperModule:
    """The algebra acting on itself by left multiplication."""

    def action(i: int) -> Mat:
        m = Mat(alg.dim, alg.dim)
        for j in range(alg.dim):
            col = alg.basis_product(i, j)
            if col:
                m.cols[j] = dict(col)
        return m

    return SuperModule(alg, alg.degrees, action_fn=action, regular=True, name=name or f"reg({alg.name})")


def graded_dim(space: SuperModule | SuperAlgebra) -> GroundElem:
    """The bigraded dimension of a module or an algebra, as a full-mode ground element."""
    terms: dict[tuple[int, int], int] = {}
    for d in space.degrees:
        key = (d.z, d.par)
        terms[key] = terms.get(key, 0) + 1
    return GroundElem(terms, FULL)


def hom_graded_dim(src: SuperModule, dst: SuperModule) -> GroundElem:
    """Graded dimension of the space of signed module homomorphisms.

    A homogeneous map ``f`` of parity ``e`` satisfies
    ``f(b m) == (-1)**(e * par(b)) * b f(m)`` for every generator ``b``.
    These constraints are rows over the coordinates of ``f``, and each
    bidegree's nullity is read off ``linalg.block_ranks``.  The rows follow
    the shapes of the two modules:

    * a regular source needs none: evaluation at the unit identifies the
      Hom space with the target, so the answer is its graded dimension;
    * ``Hom(M, k)`` into a one-dimensional ``k`` that every non-unit
      generator kills (``killed_by_generators``) has constraints
      ``f(b e_j) = 0``: the rows are the columns of every ``M.act(b)``, over
      the coordinates ``f(e_i)`` in bidegree ``deg k - deg e_i``.  Their
      coefficients and entry counts do not matter;
    * any other pair, ``Hom(k, M)`` included, gets one row per generator,
      source vector and target vector (``_constraint_rows``).

    A row that spans two bidegrees means a generator acts inhomogeneously,
    and raises ``InternalInconsistencyError``.
    """
    if src.algebra is not dst.algebra:
        raise ValueError("modules over different algebras")
    if src.regular:
        return graded_dim(dst)
    gens = _non_unit_generators(src.algebra)
    # bidegree (z, par) is keyed as the int 2 z + par: it hashes faster and sorts alike
    if killed_by_generators(dst):
        p = dst.degrees[0]
        block = [2 * (p.z - e.z) + ((p.par + e.par) & 1) for e in src.degrees]
        rows: Iterable[Vec] = chain.from_iterable(src.act(b).cols.values() for b in gens)
    else:
        block, rows = _constraint_rows(src, dst, gens)
    nullity = Counter(block) - block_ranks(rows, block)  # keeps the nonzero counts
    return GroundElem({divmod(k, 2): n for k, n in sorted(nullity.items())}, FULL)


def _non_unit_generators(alg: SuperAlgebra) -> list[int]:
    return [b for b in alg.generating_set() if not alg.unit.get(b)]


def killed_by_generators(mod: SuperModule) -> bool:
    """Whether ``mod`` is one-dimensional with every non-unit generator acting as zero."""
    return mod.dim == 1 and not any(any(mod.act(b).cols.values())
                                    for b in _non_unit_generators(mod.algebra))


def _constraint_rows(src: SuperModule, dst: SuperModule,
                     gens: list[int]) -> tuple[list[int], list[Vec]]:
    """The bidegree key of each coordinate of ``f`` and one constraint row per
    generator ``b``, source vector ``e_j`` and target vector ``e_r``.

    The coordinate ``f_rj``, the ``e_r`` component of ``f(e_j)``, sits in
    flat column ``r * src.dim + j``.
    """
    ns = src.dim
    src_keys = [(e.z, e.par) for e in src.degrees]
    block = [2 * (d.z - sz) + ((d.par + spar) & 1) for d in dst.degrees for sz, spar in src_keys]
    rows: list[Vec] = []
    for b in gens:
        asrc = src.act(b)
        pb = src.algebra.degrees[b].par
        # row-major view of the target action for this generator
        dst_rows: dict[int, list[tuple[int, int | Fraction]]] = {}
        for t, col in dst.act(b).cols.items():
            for r, c in col.items():
                dst_rows.setdefault(r, []).append((t, c))
        for j in range(ns):
            col = asrc.cols.get(j, {})
            for r, d in enumerate(dst.degrees):
                row: Vec = {r * ns + s: c for s, c in col.items()}
                # the component of f receiving this constraint has parity
                # par(r) + par(b) + par(j)
                sign = -1 if (pb and (d.par + src_keys[j][1] + pb) & 1) else 1
                for t, c in dst_rows.get(r, ()):
                    k = t * ns + j
                    row[k] = row.get(k, 0) - sign * c
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return block, rows


def outer_tensor(left: SuperModule, right: SuperModule, algebra: SuperAlgebra) -> SuperModule:
    """Outer tensor of left modules over ``algebra``, their tensor algebra,
    which is built once per pair so that outer tensors share one product
    table; the action carries the Koszul sign."""
    dim_b = right.algebra.dim
    dim_n = right.dim
    degrees = [dm + dn for dm in left.degrees for dn in right.degrees]

    def action(t: int) -> Mat:
        ia, ib = divmod(t, dim_b)
        right_cols = right.act(ib).cols
        pb = right.algebra.degrees[ib].par
        out = Mat(len(degrees), len(degrees))
        for jm, colm in left.act(ia).cols.items():
            sign = -1 if (pb and left.degrees[jm].par) else 1
            for jn, coln in right_cols.items():
                col = kron(colm, coln, dim_n, sign)
                if col:
                    out.cols[jm * dim_n + jn] = col
        return out

    return SuperModule(algebra, degrees, action_fn=action, regular=(left.regular and right.regular),
                       name=f"{left.name}(box){right.name}")


def restrict_module(phi: AlgebraHom, mod: SuperModule) -> SuperModule:
    """Restriction along the unital map ``phi``: the same space, the pulled-back action."""
    if mod.algebra is not phi.target:
        raise ValueError("restriction needs a module over the target of phi")
    if phi.unit_image() != phi.target.unit:
        raise ValueError("restriction needs a unital map")

    def action(b: int) -> Mat:
        return mod.act_vec(phi.images[b])

    return SuperModule(phi.source, mod.degrees, action_fn=action, name=f"res({mod.name})")


def induce_module(phi: AlgebraHom, mod: SuperModule) -> SuperModule:
    """Induction along the unital map ``phi: B -> A``: the module ``A (x)_B N``.

    The result is the quotient of ``A (x) N`` by the span of
    ``a phi(b) (x) n  -  a (x) b n`` with ``a`` running over the basis of
    ``A`` and ``b`` over a generating set of ``B``, in one
    ``SignedQuotient``, so its basis is that of first-nonzero-column
    pivoting.  On the towers' signed-permutation bases every relation is
    signed.  The regular module of ``B`` induces to the regular module of ``A``.
    """
    source, target = phi.source, phi.target
    if mod.algebra is not source:
        raise ValueError("induction needs a module over the source of phi")
    if phi.unit_image() != target.unit:
        raise ValueError("induction needs a unital map")
    if mod.regular:
        return regular_module(target, name=f"ind({mod.name})")

    nd = mod.dim
    relations = _induction_relations(phi, mod)
    free = relations.free()
    free_pos = {k: t for t, k in enumerate(free)}
    degrees = [target.degrees[k // nd] + mod.degrees[k % nd] for k in free]

    def action(a: int) -> Mat:
        out = Mat(len(free), len(free))
        for t, k in enumerate(free):
            c, n = divmod(k, nd)
            lifted = {cc * nd + n: coeff for cc, coeff in target.basis_product(a, c).items()}
            col = {free_pos[k2]: v for k2, v in relations.reduce(lifted).items()}
            if col:
                out.cols[t] = col
        return out

    return SuperModule(target, degrees, action_fn=action, name=f"ind({mod.name})")


def _induction_relations(phi: AlgebraHom, mod: SuperModule) -> SignedQuotient:
    """The relations of ``induce_module`` in a ``SignedQuotient``; target basis
    vector ``c`` and module vector ``n`` sit in flat column ``c * mod.dim + n``.

    The relation of ``a phi(b) = s_l x_p`` and ``b n = s x_q``, with ``s_l``
    and ``s`` each ±1, reads ``x_p = s_l s x_q``, and a missing side makes
    it a kill.  Any other relation is a kill when it has one entry, whatever
    its coefficient, and a kept row otherwise.
    """
    target, nd = phi.target, mod.dim
    quot = SignedQuotient(target.dim * nd)
    kill, relate = quot.kill, quot.relate
    hit: set[int] = set()  # target basis vectors cc with every cc (x) n killed
    for b in _non_unit_generators(phi.source):
        # a phi(b) for every basis vector a: one table lookup each when phi(b) is one
        image, bn = phi.images[b], mod.act(b)
        if list(image.values()) == [1]:
            (i,) = image
            left_b = [target.basis_product(a, i) for a in range(target.dim)]
        else:
            left_b = [target.product_vec({a: 1}, image) for a in range(target.dim)]
        if not any(bn.cols.values()) and max(map(len, left_b), default=0) <= 1:
            hit.update(*left_b)  # b kills the module: each relation is its term a phi(b) (x) n
            continue
        cols = [bn.cols.get(n, {}) for n in range(nd)]
        moves = [_signed_entry(col) for col in cols]
        for c, left in enumerate(left_b):
            at = c * nd
            lead = _signed_entry(left)
            if not lead:  # a phi(b) is zero or not signed
                for n, move in enumerate(moves):
                    if lead is None or move is None:
                        _relation_row(quot, left, cols[n], at, n, nd)
                    elif move:
                        kill(at + move[0])
                continue
            base, sl = lead[0] * nd, lead[1]
            for n, move in enumerate(moves):
                if move:
                    relate(base + n, at + move[0], sl * move[1])
                elif move is None:
                    _relation_row(quot, left, cols[n], at, n, nd)
                else:
                    kill(base + n)
    for k in hit if nd == 1 else [cc * nd + n for cc in hit for n in range(nd)]:
        kill(k)
    return quot


def _signed_entry(vec: Vec) -> tuple | None:
    """The one entry ``(k, s)`` of ``vec`` if ``s`` is ±1, ``()`` if it is empty, else None."""
    if len(vec) != 1:
        return None if vec else ()
    ((k, s),) = vec.items()
    return (k, s) if s * s == 1 else None


def _relation_row(quot: SignedQuotient, left: Vec, col: Vec, at: int, n: int, nd: int) -> None:
    """Impose ``left (x) n - c (x) col`` on ``quot``, with ``at == c * nd``."""
    row: Vec = {cc * nd + n: coeff for cc, coeff in left.items() if coeff}
    vec_axpy(row, -1, {at + nn: coeff for nn, coeff in col.items()})
    if len(row) == 1:
        quot.kill(*row)
    elif row:
        quot.add_row(row)


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


def twist_module(mod: SuperModule, tau: Mat) -> SuperModule:
    """Precompose the action with the algebra automorphism ``tau``.

    ``tau`` is trusted: check it with ``validate_automorphism`` first.
    """

    def action(b: int) -> Mat:
        return mod.act_vec(tau.col(b))

    return SuperModule(mod.algebra, list(mod.degrees), action_fn=action, name=f"twist({mod.name})")


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
    """The algebra of the on-disk format: a signed table when every basis
    product has at most one term, a dict table otherwise."""
    labels = data["labels"]
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise ValidationError("labels must be a list of strings")
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
        (i, j): {k: c for k, c in products.get((i, j), {}).items() if c}  # zero rows store nothing
        for i in range(len(labels))
        for j in range(len(labels))
    }
    generators = data.get("generators")
    if generators is not None and not _all_int(generators):
        raise ValidationError(f"generators {generators} must be integers")
    if generators is not None and not all(0 <= g < len(labels) for g in generators):
        raise ValidationError(f"generators {generators} out of range")
    signed = all(len(col) <= 1 for col in full.values())
    if signed:
        full = {key: next(((c, k) for k, c in col.items()), None) for key, col in full.items()}
    return SuperAlgebra(
        labels, degrees, unit, products=full,
        generators=generators, name=name or "loaded", signed=signed,
    )
