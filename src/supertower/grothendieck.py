"""The decategorified layer of a registered tower.

Projective classes and simple classes form free modules over the coefficient
ring (collapsed when a type-Q simple is declared); products are computed by
inducing representative supermodules, coproducts by restricting them, and
every identity check below goes through those module-level computations.

One rule expands a module in the classes of either side, at one level or
over a pair algebra (``GrothLayer._expand``): pair it through Hom with each
declared module of the other side, outer-tensored over the pair algebra for
a pair.  Hom runs from the probe into the module on the simple side and from
the module into the probe on the projective side; each value is divided by
the norms of its keys, the pairing of a declared projective with its simple.

Grading conventions.  Simple-side classes scale as ``q**n [M] = [M shifted
by n]``.  Projective-side classes scale oppositely (``q**n [P] = [P shifted
by -n]``), which keeps the pairing bilinear; the expansion of a restricted
projective therefore carries the bar of the positive summand-multiplicity
generating function.  Both readings are exposed: ``basis_delta`` returns the
class-level coefficients, and ``restriction_multiplicity_genfn`` the
positive multiplicity series, read off the head degrees as the bar of Hom
from the restricted projective into the killed one-dimensional simple of
the pair algebra.
"""

from __future__ import annotations

import itertools

from .errors import (
    ExactDivisionError,
    SupertowerError,
    TruncationError,
    ValidationError,
)
from .frobenius import tensor_nakayama_matrix
from .ground import COLLAPSED, FULL, GroundElem, divide_exact
from .linalg import invert
from .reporting import CheckRecord
from .superalgebra import (
    SuperModule,
    hom_graded_dim,
    killed_by_generators,
    outer_tensor,
    restrict_module,
    induce_module,
    twist_module,
)
from .towers import DeclaredModule, TowerSpec, tower_pairing_entry
from .values import Record

K_SIDE = "K"
G_SIDE = "G"

BasisKey = tuple[int, int]  # (level, index into the declared basis)


class GrothVector(Record):
    """A finitely supported combination of basis classes on one side, built
    zero-free like every tensor and Heisenberg element, so it compares as a dict."""

    def __init__(self, side: str, entries: dict[BasisKey, GroundElem] | None = None):
        self.side = side
        self.entries = {} if entries is None else entries

    def add(self, other: "GrothVector") -> "GrothVector":
        if self.side != other.side:
            raise ValueError(f"cannot add a {other.side} vector to a {self.side} vector")
        return GrothVector(self.side, tensor_add(self.entries, other.entries))

    def scale(self, c: GroundElem) -> "GrothVector":
        return GrothVector(self.side, tensor_scale(self.entries, c))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.entries.values())

    def __repr__(self) -> str:
        if not self.entries:
            return "0"
        bits = [f"({c})*[{lv}:{i}]" for (lv, i), c in sorted(self.entries.items())]
        return " + ".join(bits)


TensorKey = tuple[BasisKey, BasisKey]
GrothTensor = dict[TensorKey, GroundElem]


def tensor_add(a: GrothTensor, b: GrothTensor) -> GrothTensor:
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def tensor_accumulate(out: GrothTensor, a: GrothTensor, c: GroundElem) -> None:
    """Add ``c * a`` into ``out`` in place; ``a`` is only read.

    Sums may leave zero coefficients in ``out``, so the caller drops them
    once, with ``nonzero``, at the end.
    """
    for k, v in a.items():
        term = v * c
        out[k] = out[k] + term if k in out else term


def nonzero(a: GrothTensor) -> GrothTensor:
    return {k: c for k, c in a.items() if not c.is_zero()}


def tensor_scale(a: GrothTensor, c: GroundElem) -> GrothTensor:
    return {k: vc for k, v in a.items() if not (vc := v * c).is_zero()}


def tensor_repr(a: GrothTensor) -> str:
    if not a:
        return "0"
    bits = []
    for (ka, kb) in sorted(a):
        bits.append(f"({a[(ka, kb)]})*[{ka[0]}:{ka[1]}](x)[{kb[0]}:{kb[1]}]")
    return " + ".join(bits)


class GrothLayer:
    """Product, coproduct, pairing and their caches over one tower.

    Basis computations are memoized on the layer without a lock, so one
    layer is used from one thread.
    """

    def __init__(self, tower: TowerSpec):
        self.tower = tower
        self.mode = COLLAPSED if tower.collapsed else FULL
        self._norms: dict[BasisKey, GroundElem] = {}
        self._nabla: dict = {}
        self._delta: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def _ring(self, x: GroundElem) -> GroundElem:
        return x.collapse() if (self.mode == COLLAPSED and x.mode == FULL) else x

    def one(self) -> GroundElem:
        return GroundElem.one(self.mode)

    def zero(self) -> GroundElem:
        return GroundElem.zero(self.mode)

    def scalar(self, k: int) -> GroundElem:
        """``c**k`` for the tower twist scalar."""
        return self.tower.twist.power(k, self.mode)

    def declared(self, side: str, level: int) -> list[DeclaredModule]:
        """The declared modules whose classes are the basis of one side at a level."""
        decl = (self.tower.declared_projectives(level) if side == K_SIDE
                else self.tower.declared_simples(level))
        if not decl:
            raise ValidationError(f"no declared basis at level {level}")
        return decl

    def basis_size(self, side: str, level: int) -> int:
        return len(self.declared(side, level))

    def basis_keys(self, side: str, max_level: int) -> list[BasisKey]:
        out = []
        for lv in range(max_level + 1):
            if not self.tower.has_declared(lv):
                continue
            out.extend((lv, i) for i in range(self.basis_size(side, lv)))
        return out

    def unit_vector(self, side: str) -> GrothVector:
        return GrothVector(side, {(0, 0): self.one()})

    def basis_vector(self, side: str, level: int, i: int) -> GrothVector:
        return GrothVector(side, {(level, i): self.one()})

    def norm(self, level: int, i: int) -> GroundElem:
        """The pairing of the i-th projective against the i-th simple."""
        key = (level, i)
        if key not in self._norms:
            self._norms[key] = tower_pairing_entry(
                self.tower, self.declared(K_SIDE, level)[i], self.declared(G_SIDE, level)[i])
        return self._norms[key]

    # -- expansion of modules in declared bases ------------------------------

    def class_in_G(self, mod: SuperModule, level: int) -> GrothVector:
        """Expand a module in the declared simple classes at its level."""
        return GrothVector(G_SIDE, self._expand(G_SIDE, mod, (level,)))

    def _expand(self, side: str, mod: SuperModule, levels: tuple[int, ...]) -> dict:
        """Coefficients of ``mod`` in the declared classes of one level or a pair.

        Returns a vector's entries for one level and a tensor for a pair.
        The probes are the other side's declared modules, outer-tensored
        over the pair algebra for a pair.  The G side reads Hom from each
        probe into ``mod``, the K side Hom from ``mod`` into it, and each
        value is divided by the product of its keys' norms.
        """
        other = G_SIDE if side == K_SIDE else K_SIDE
        pair = self.tower.pair_algebra(*levels) if len(levels) == 2 else None
        out: dict = {}
        for idx in itertools.product(*(range(self.basis_size(other, lv)) for lv in levels)):
            keys = tuple(zip(levels, idx))
            probes = [self.declared(other, lv)[i].module for lv, i in keys]
            probe = probes[0] if pair is None else outer_tensor(*probes, pair)
            raw = self._ring(hom_graded_dim(probe, mod) if side == G_SIDE
                             else hom_graded_dim(mod, probe))
            if raw.is_zero():
                continue
            norm = self.norm(*keys[0])
            for key in keys[1:]:
                norm = norm * self.norm(*key)
            if not norm.is_one():
                try:
                    raw = divide_exact(raw, norm)
                except ExactDivisionError as exc:
                    raise SupertowerError(f"module not expressible at {keys}: {exc}") from exc
            out[keys[0] if pair is None else keys] = raw
        return out

    # -- product and coproduct ------------------------------------------------

    def basis_nabla(self, side: str, ka: BasisKey, kb: BasisKey) -> GrothVector:
        """Product of two basis classes, by induction of representatives."""
        (la, ia), (lb, ib) = ka, kb
        if la + lb > self.tower.n_max:
            raise TruncationError(f"product level {la + lb} beyond truncation")
        cache_key = (side, ka, kb)
        if cache_key in self._nabla:
            return self._nabla[cache_key]
        if la == 0 or lb == 0:
            out = self.basis_vector(side, la + lb, ia if lb == 0 else ib)
        else:
            pair = self.tower.pair_algebra(la, lb)
            m = self.declared(side, la)[ia].module
            n = self.declared(side, lb)[ib].module
            ind = induce_module(self.tower.rho(la, lb), outer_tensor(m, n, pair))
            out = GrothVector(side, self._expand(side, ind, (la + lb,)))
        self._nabla[cache_key] = out
        return out

    def nabla(self, u: GrothVector, v: GrothVector) -> GrothVector:
        if u.side != v.side:
            raise ValueError(f"cannot multiply a {u.side} vector by a {v.side} vector")
        out: dict[BasisKey, GroundElem] = {}
        for ka, ca in u.entries.items():
            for kb, cb in v.entries.items():
                tensor_accumulate(out, self.basis_nabla(u.side, ka, kb).entries, ca * cb)
        return GrothVector(u.side, nonzero(out))

    def basis_delta(self, side: str, key: BasisKey) -> GrothTensor:
        """Coproduct of a basis class: restrict its representative over all splittings."""
        cache_key = (side, key)
        if cache_key not in self._delta:
            mod = self.declared(side, key[0])[key[1]].module
            self._delta[cache_key] = self._restrict_classes(side, key, mod)
        return self._delta[cache_key]

    def _restrict_classes(self, side: str, key: BasisKey, mod: SuperModule,
                          pair_twist: bool = False) -> GrothTensor:
        """Restrict ``mod``, a representative of the class ``key``, over every
        splitting of its level and expand each piece over the pair algebra;
        with ``pair_twist`` each restriction is first twisted by the pair
        algebra's Nakayama automorphism."""
        lv = key[0]
        out: GrothTensor = {}
        # each splitting (a, b) fills only keys of levels (a, b), and those
        # come zero-free, so the pieces are merged as they are
        for a in range(lv + 1):
            b = lv - a
            if a == 0 or b == 0:
                # restriction along a trivial splitting is the identity functor
                out[((0, 0), key) if a == 0 else (key, (0, 0))] = self.one()
                continue
            res = restrict_module(self.tower.rho(a, b), mod)
            if pair_twist:
                frob = self.tower.frobenius
                res = twist_module(res, tensor_nakayama_matrix(frob[a], frob[b]))
            out.update(self._expand(side, res, (a, b)))
        return out

    def delta(self, u: GrothVector) -> GrothTensor:
        out: GrothTensor = {}
        for k, c in u.entries.items():
            tensor_accumulate(out, self.basis_delta(u.side, k), c)
        return nonzero(out)

    def counit(self, u: GrothVector) -> GroundElem:
        return u.entries.get((0, 0), self.zero())

    # -- pairing ----------------------------------------------------------------

    def pairing(self, k: GrothVector, g: GrothVector) -> GroundElem:
        """Bilinear extension of the level pairing; cross levels contribute zero."""
        if k.side != K_SIDE or g.side != G_SIDE:
            raise ValueError(f"the pairing takes a {K_SIDE} and a {G_SIDE} vector, "
                             f"not {k.side} and {g.side}")
        out = self.zero()
        for (lv, i), ck in k.entries.items():
            cg = g.entries.get((lv, i))
            if cg is not None:
                out = out + ck * cg * self.norm(lv, i)
        return out

    def pairing_tensor(self, kt: GrothTensor, gt: GrothTensor) -> GroundElem:
        out = self.zero()
        for (ka, kb), ck in kt.items():
            cg = gt.get((ka, kb))
            if cg is not None:
                out = out + ck * cg * self.norm(*ka) * self.norm(*kb)
        return out

    # -- positive multiplicities from head degrees --------------------------------

    def restriction_multiplicity_genfn(self, level: int, a: int) -> GroundElem:
        """Positive generating series of shifted projective summands of one
        restriction of the declared projective: the bar of Hom from the
        restricted projective into the outer tensor of the declared simples
        over the pair algebra.

        That Hom counts the head degrees of the restriction when each level
        of the splitting declares one simple, one-dimensional and killed by
        every non-unit generator, as in the nilCoxeter family; any other
        nontrivial splitting raises ``ValueError``.
        """
        b = level - a
        if a == 0 or b == 0:
            return GroundElem.one(FULL)
        simples = self.declared(G_SIDE, a) + self.declared(G_SIDE, b)
        if len(simples) != 2 or not all(killed_by_generators(s.module) for s in simples):
            raise ValueError(f"the declared simples of levels {a} and {b} are not "
                             "one killed one-dimensional module each")
        simple = outer_tensor(simples[0].module, simples[1].module, self.tower.pair_algebra(a, b))
        res = restrict_module(self.tower.rho(a, b), self.declared(K_SIDE, level)[0].module)
        return hom_graded_dim(res, simple).bar()


# -- twisted-structure checks -----------------------------------------------------


def outer_vector_tensor(u: GrothVector, v: GrothVector) -> GrothTensor:
    out: GrothTensor = {}
    for ka, ca in u.entries.items():
        for kb, cb in v.entries.items():
            c = ca * cb
            if not c.is_zero():
                out[(ka, kb)] = out[(ka, kb)] + c if (ka, kb) in out else c
    return out


def star_chi(layer: GrothLayer, t1: GrothTensor, t2: GrothTensor,
             chi: tuple[int, int], side: str) -> GrothTensor:
    """The twisted multiplication on the tensor square.

    ``(a1 (x) a2) * (b1 (x) b2)`` picks up the twist scalar to the power
    ``chi'(|a2|, |b1|) + chi''(|a1|, |b2|)`` (biadditive maps are stored as
    integer multiples of the level product).
    """
    out: GrothTensor = {}
    for (ka1, ka2), c1 in t1.items():
        for (kb1, kb2), c2 in t2.items():
            exp = chi[0] * ka2[0] * kb1[0] + chi[1] * ka1[0] * kb2[0]
            coeff = c1 * c2 * layer.scalar(exp)
            left = layer.basis_nabla(side, ka1, kb1)
            right = layer.basis_nabla(side, ka2, kb2)
            tensor_accumulate(out, outer_vector_tensor(left, right), coeff)
    return nonzero(out)


def check_twisted_bialgebra(layer: GrothLayer, side: str, max_level: int,
                            chi: tuple[int, int] | None = None) -> list[CheckRecord]:
    """Coproduct multiplicativity up to the twist, on all basis pairs.

    The simple side uses the registered twist pair; the projective side uses
    its negative.
    """
    if chi is None:
        chi = layer.tower.chi if side == G_SIDE else (-layer.tower.chi[0], -layer.tower.chi[1])
    records = []
    keys = layer.basis_keys(side, max_level)
    for ka in keys:
        for kb in keys:
            if ka[0] + kb[0] > max_level:
                continue
            prod = layer.basis_nabla(side, ka, kb)
            lhs = layer.delta(prod)
            rhs = star_chi(layer, layer.basis_delta(side, ka), layer.basis_delta(side, kb),
                           chi, side)
            records.append(CheckRecord(
                f"twisted-bialgebra-{side}", (ka, kb, chi), lhs == rhs,
                lhs=tensor_repr(lhs), rhs=tensor_repr(rhs),
            ))
    return records


def check_hopf_pairing(layer: GrothLayer, max_level: int,
                       gamma: tuple[int, int] | None = None) -> list[CheckRecord]:
    """The four pairing axioms on all basis tuples within the level bound."""
    if gamma is None:
        gamma = layer.tower.gamma
    records = []
    k_keys = layer.basis_keys(K_SIDE, max_level)
    g_keys = layer.basis_keys(G_SIDE, max_level)
    for kx in k_keys:
        for ky in k_keys:
            if kx[0] + ky[0] > max_level:
                continue
            xy = layer.basis_nabla(K_SIDE, kx, ky)
            xy_tensor = outer_vector_tensor(
                layer.basis_vector(K_SIDE, *kx), layer.basis_vector(K_SIDE, *ky))
            for ka in g_keys:
                lhs = layer.pairing(xy, layer.basis_vector(G_SIDE, *ka))
                rhs = layer.scalar(gamma[0] * kx[0] * ky[0]) \
                    * layer.pairing_tensor(xy_tensor, layer.basis_delta(G_SIDE, ka))
                records.append(CheckRecord(
                    "pairing-product-coproduct", (kx, ky, ka), lhs == rhs,
                    lhs=repr(lhs), rhs=repr(rhs),
                ))
    for kx in k_keys:
        dx = layer.basis_delta(K_SIDE, kx)
        for ka in g_keys:
            for kb in g_keys:
                if ka[0] + kb[0] > max_level:
                    continue
                ab = layer.basis_nabla(G_SIDE, ka, kb)
                lhs = layer.pairing(layer.basis_vector(K_SIDE, *kx), ab)
                ab_tensor = outer_vector_tensor(
                    layer.basis_vector(G_SIDE, *ka), layer.basis_vector(G_SIDE, *kb))
                rhs = layer.scalar(gamma[1] * ka[0] * kb[0]) \
                    * layer.pairing_tensor(dx, ab_tensor)
                records.append(CheckRecord(
                    "pairing-coproduct-product", (kx, ka, kb), lhs == rhs,
                    lhs=repr(lhs), rhs=repr(rhs),
                ))
    unit_k = layer.unit_vector(K_SIDE)
    unit_g = layer.unit_vector(G_SIDE)
    for ka in g_keys:
        v = layer.basis_vector(G_SIDE, *ka)
        lhs = layer.pairing(unit_k, v)
        rhs = layer.counit(v)
        records.append(CheckRecord("pairing-unit-counit", (ka,), lhs == rhs,
                                   lhs=repr(lhs), rhs=repr(rhs)))
    for kx in k_keys:
        v = layer.basis_vector(K_SIDE, *kx)
        lhs = layer.pairing(v, unit_g)
        rhs = layer.counit(v)
        records.append(CheckRecord("pairing-counit-unit", (kx,), lhs == rhs,
                                   lhs=repr(lhs), rhs=repr(rhs)))
    for kx in k_keys:
        for ka in g_keys:
            if kx[0] == ka[0]:
                continue
            lhs = layer.pairing(layer.basis_vector(K_SIDE, *kx),
                                layer.basis_vector(G_SIDE, *ka))
            records.append(CheckRecord("pairing-orthogonality", (kx, ka), lhs.is_zero(),
                                       lhs=repr(lhs), rhs="0"))
    return records


def check_adjunction_kappa(layer: GrothLayer, max_level: int) -> list[CheckRecord]:
    """The twisted adjunction between product and coproduct through the pairing.

    For a projective class at the joined level and module classes at the
    parts, pairing against the induced product equals the twist power of
    the level product times the pairing of the restricted coproduct.
    """
    records = []
    kap = layer.tower.kappa
    g_keys = layer.basis_keys(G_SIDE, max_level)
    for kp in layer.basis_keys(K_SIDE, max_level):
        dp = layer.basis_delta(K_SIDE, kp)
        for km in g_keys:
            for kn in g_keys:
                if km[0] + kn[0] != kp[0]:
                    continue
                prod = layer.basis_nabla(G_SIDE, km, kn)
                lhs = layer.pairing(layer.basis_vector(K_SIDE, *kp), prod)
                mn = outer_vector_tensor(
                    layer.basis_vector(G_SIDE, *km), layer.basis_vector(G_SIDE, *kn))
                rhs = layer.scalar(kap * km[0] * kn[0]) * layer.pairing_tensor(dp, mn)
                records.append(CheckRecord(
                    "adjunction-twist", (kp, km, kn), lhs == rhs,
                    lhs=repr(lhs), rhs=repr(rhs),
                ))
    return records


def check_psi_invariance(layer: GrothLayer, max_level: int) -> list[CheckRecord]:
    """Conjugating the coproduct by the level automorphisms fixes projective classes.

    For each declared projective: twist by the inverse automorphism,
    restrict over every splitting, twist by the pair automorphism, and
    compare the class with the plain coproduct.
    """
    tower = layer.tower
    records = []
    for lv in range(max_level + 1):
        if not tower.has_declared(lv):
            continue
        frob = tower.frobenius[lv]
        if frob is None:
            raise ValueError(f"level {lv} has no Frobenius data")
        psi_inv = invert(frob.nakayama)
        for i, decl in enumerate(layer.declared(K_SIDE, lv)):
            expected = layer.basis_delta(K_SIDE, (lv, i))
            twisted = twist_module(decl.module, psi_inv)
            got = layer._restrict_classes(K_SIDE, (lv, i), twisted, pair_twist=True)
            records.append(CheckRecord(
                "conjugated-coproduct-fixes-projectives", (lv, i), got == expected,
                lhs=tensor_repr(got), rhs=tensor_repr(expected),
            ))
    return records

