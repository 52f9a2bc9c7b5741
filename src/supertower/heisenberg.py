"""The twisted Heisenberg double of a registered tower and its Fock space.

Elements live in the tensor product of the simple-side and projective-side
class modules, truncated at the tower bound.  The smash multiplication
follows the pairing-adjoint form: the projective factor acts on the simple
factor through the coproduct and the pairing, with twist-scalar exponents
controlled by the biadditive data.  The vacuum module is the simple side
itself; the projective-image submodule on powers of the level-one class
realizes the quantum Weyl algebra for the nilCoxeter tower.  The Weyl suite
checks it on class vectors, the Fock space every other check here uses; the
lowering rule ``lower(e_n) == [n] e_(n-1)`` witnesses that lowering keeps
the powers' image.

Both the smash product and the Fock action are bilinear extensions of
memos kept on the double, not on the layer, because doubles over one layer
may differ in twist: ``_monomial_product`` maps four basis keys to the
product of two unit-coefficient monomials, and ``_basis_action`` maps
three to the action of one on a basis class.  Memo values are never
mutated; callers copy their terms into a fresh dict.
"""

from __future__ import annotations

from .errors import ExactDivisionError, ValidationError
from .ground import FULL, GroundElem, TwistScalar, divide_exact, qpi_integer
from .grothendieck import (
    G_SIDE,
    K_SIDE,
    BasisKey,
    GrothLayer,
    GrothVector,
    nonzero,
    tensor_accumulate,
    tensor_add,
    tensor_scale,
)
from .reporting import CheckRecord
from .superalgebra import graded_dim, induce_module, restrict_module
from .towers import TowerSpec


def derive_xi(chi: tuple[int, int], gamma: tuple[int, int]) -> tuple[int, int]:
    """The coproduct twist forced on the dual side by the pairing twist.

    For a one-dimensional level lattice the transposes act trivially on the
    stored multiples, leaving ``(chi' + gamma' - gamma'', chi'' + gamma' - gamma'')``.
    """
    return (chi[0] + gamma[0] - gamma[1], chi[1] + gamma[0] - gamma[1])


def check_compatibility(twist: "TwistDataSet") -> bool:
    """The product-side twist must be minus the transpose of the pairing twist."""
    return twist.chi[0] == -twist.gamma[0]


class TwistDataSet:
    """All biadditive exponent data for one Heisenberg double; immutable,
    equal and hashed by value.  ``xi`` and ``compatible`` are derived."""

    __slots__ = ("c", "chi", "gamma", "xi", "compatible")

    def __init__(self, c: TwistScalar, chi: tuple[int, int], gamma: tuple[int, int]):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "xi", derive_xi(chi, gamma))
        object.__setattr__(self, "compatible", check_compatibility(self))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("TwistDataSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("TwistDataSet is immutable")

    def _fields(self) -> tuple:
        return (self.c, self.chi, self.gamma, self.xi, self.compatible)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"TwistDataSet(c={self.c!r}, chi={self.chi!r}, gamma={self.gamma!r}, "
                f"xi={self.xi!r}, compatible={self.compatible!r})")

    @staticmethod
    def for_tower(tower: TowerSpec) -> "TwistDataSet":
        return TwistDataSet(tower.twist, tower.chi, tower.gamma)


class HeisenbergElem:
    """A finitely supported combination of ``simple-class # projective-class`` keys."""

    def __init__(self, terms: dict[tuple[BasisKey, BasisKey], GroundElem] | None = None):
        self.terms = {} if terms is None else terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def add(self, other: "HeisenbergElem") -> "HeisenbergElem":
        return HeisenbergElem(tensor_add(self.terms, other.terms))

    def scale(self, c: GroundElem) -> "HeisenbergElem":
        return HeisenbergElem(tensor_scale(self.terms, c))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"({c})*[{ka[0]}:{ka[1]}#{kx[0]}:{kx[1]}]"
                for (ka, kx), c in sorted(self.terms.items())]
        return " + ".join(bits)


class HeisenbergDouble:
    """Smash-product arithmetic over one Grothendieck layer."""

    def __init__(self, layer: GrothLayer, twist: TwistDataSet | None = None):
        self.layer = layer
        self.twist = twist if twist is not None else TwistDataSet.for_tower(layer.tower)
        if not self.twist.compatible:
            raise ValidationError("incompatible twist data: chi' must equal -gamma'")
        self._products: dict[tuple, dict[tuple[BasisKey, BasisKey], GroundElem]] = {}
        self._actions: dict[tuple, dict[BasisKey, GroundElem]] = {}

    # -- constructors -----------------------------------------------------------

    def unit(self) -> HeisenbergElem:
        return HeisenbergElem({(((0, 0)), ((0, 0))): self.layer.one()})

    def monomial(self, a: BasisKey, x: BasisKey, coeff: GroundElem | None = None) -> HeisenbergElem:
        return HeisenbergElem({(a, x): coeff if coeff is not None else self.layer.one()})

    def plus_elem(self, a: BasisKey) -> HeisenbergElem:
        return self.monomial(a, (0, 0))

    def minus_elem(self, x: BasisKey) -> HeisenbergElem:
        return self.monomial((0, 0), x)

    def _scalar(self, k: int) -> GroundElem:
        return self.layer.scalar(k)

    # -- the left regular action --------------------------------------------------

    def regular_action(self, x: GrothVector, b: GrothVector) -> GrothVector:
        """Pairing-adjoint action of a projective-side class on a simple-side class."""
        if x.side != K_SIDE or b.side != G_SIDE:
            raise ValueError(f"the regular action takes a {K_SIDE} and a {G_SIDE} vector, "
                             f"not {x.side} and {b.side}")
        layer = self.layer
        g1 = self.twist.gamma[0]
        out: dict[BasisKey, GroundElem] = {}
        for (kb1, kb2), cb in layer.delta(b).items():
            p = layer.pairing(x, layer.basis_vector(G_SIDE, *kb2))
            if p.is_zero():
                continue
            coeff = cb * p * self._scalar(g1 * kb1[0] * kb2[0])
            out[kb1] = out[kb1] + coeff if kb1 in out else coeff
        return GrothVector(G_SIDE, nonzero(out))

    # -- the smash product ---------------------------------------------------------

    def smash_multiply(self, h1: HeisenbergElem, h2: HeisenbergElem) -> HeisenbergElem:
        """Bilinear extension of the commutation-and-contract product.

        Each pair of terms contributes ``c1 * c2`` times the product of
        their unit-coefficient monomials, which ``_monomial_product`` keeps.
        The memo's terms are summed into one fresh dict, never aliased, and
        taken as they are where ``c1 * c2`` is one; zeros are dropped once.
        """
        out: dict[tuple[BasisKey, BasisKey], GroundElem] = {}
        for (ka, kx), c1 in h1.terms.items():
            for (kb, ky), c2 in h2.terms.items():
                base = c1 * c2
                if not base.is_zero():
                    tensor_accumulate(out, self._monomial_product(ka, kx, kb, ky), base)
        return HeisenbergElem(nonzero(out))

    def _monomial_product(self, ka: BasisKey, kx: BasisKey,
                          kb: BasisKey, ky: BasisKey) -> dict[tuple[BasisKey, BasisKey], GroundElem]:
        """``(a # x)(b # y)`` for basis classes, memoised per double.

        Sum over the coproducts of ``x`` and ``b`` of the twist power
        ``gamma''(|b|, |x2|) + xi''(|b| - |x1|, |x2|) + gamma'(|b1|, |b2|)``
        times ``<x1, b2>  a b1 # x2 y``.  The memo lives on the double, not
        on the layer, because doubles over one layer may differ in twist;
        its values are never mutated.
        """
        memo_key = (ka, kx, kb, ky)
        got = self._products.get(memo_key)
        if got is not None:
            return got
        layer = self.layer
        g1, g2 = self.twist.gamma
        xi2 = self.twist.xi[1]
        out: dict[tuple[BasisKey, BasisKey], GroundElem] = {}
        db = layer.basis_delta(G_SIDE, kb)
        for (kx1, kx2), cx in layer.basis_delta(K_SIDE, kx).items():
            for (kb1, kb2), cbb in db.items():
                p = layer.pairing(
                    layer.basis_vector(K_SIDE, *kx1),
                    layer.basis_vector(G_SIDE, *kb2),
                )
                if p.is_zero():
                    continue
                exp = (
                    g2 * kb[0] * kx2[0]
                    + xi2 * (kb[0] - kx1[0]) * kx2[0]
                    + g1 * kb1[0] * kb2[0]
                )
                coeff = cx * cbb * p * self._scalar(exp)
                left = layer.basis_nabla(G_SIDE, ka, kb1)
                right = layer.basis_nabla(K_SIDE, kx2, ky)
                for kg, cg in left.entries.items():
                    for kk, ck in right.entries.items():
                        term = coeff * cg * ck
                        if term.is_zero():
                            continue
                        key = (kg, kk)
                        out[key] = out[key] + term if key in out else term
        got = self._products[memo_key] = {k: c for k, c in out.items() if not c.is_zero()}
        return got

    # -- the Fock space --------------------------------------------------------------

    def fock_act(self, h: HeisenbergElem, v: GrothVector) -> GrothVector:
        """Act on the vacuum module: contract the projective part, multiply the rest.

        The bilinear extension of ``_basis_action``: each term of ``h`` and
        each class of ``v`` contribute the product of their coefficients
        times the memoised action of the monomial on the class, summed into
        one fresh dict whose zeros are dropped once.
        """
        if v.side != G_SIDE:
            raise ValueError(f"the Fock space is the {G_SIDE} side, not {v.side}")
        out: dict[BasisKey, GroundElem] = {}
        for (ka, kx), ch in h.terms.items():
            for kv, cv in v.entries.items():
                base = ch * cv
                if not base.is_zero():
                    tensor_accumulate(out, self._basis_action(ka, kx, kv), base)
        return GrothVector(G_SIDE, nonzero(out))

    def _basis_action(self, ka: BasisKey, kx: BasisKey, kv: BasisKey) -> dict[BasisKey, GroundElem]:
        """``(a # x) . v`` for basis classes: ``nabla(a, regular_action(x, v))``,
        memoised per double beside the monomial products."""
        memo_key = (ka, kx, kv)
        got = self._actions.get(memo_key)
        if got is None:
            layer = self.layer
            acted = self.regular_action(layer.basis_vector(K_SIDE, *kx), layer.basis_vector(G_SIDE, *kv))
            got = self._actions[memo_key] = layer.nabla(layer.basis_vector(G_SIDE, *ka), acted).entries
        return got


def _ring_multiple(v: GrothVector, e: GrothVector, key: BasisKey) -> bool:
    """Whether ``v`` is a ring multiple of ``e``: divide the coefficients at
    ``key`` exactly, then multiply the quotient back."""
    lead = e.entries.get(key)
    if lead is None:
        return False
    try:
        ratio = divide_exact(v.entries.get(key, GroundElem.zero(lead.mode)), lead)
    except ExactDivisionError:
        return False
    return e.scale(ratio) == v


def weyl_check(double: HeisenbergDouble, max_power: int) -> list[CheckRecord]:
    """The twisted Weyl relation, as elements and as operators on powers.

    Element level: lowering times raising minus the twist scalar times
    raising times lowering equals the identity element of the double.
    Operator level, on the class vectors ``e_n`` of the powers of the
    level-one simple class up to the bound: the same identity applied to
    every power, the lowering rule ``lower(e_n) == [n] e_(n-1)`` with the
    twisted integer coefficient, and invariance of the projective image:
    ``lower(e_n)`` is a ring multiple of ``e_(n-1)``, which the lowering
    rule witnesses wherever it holds.
    """
    layer = double.layer
    records = []
    c1 = layer.scalar(1)
    lower = double.minus_elem((1, 0))
    raise_ = double.plus_elem((1, 0))
    lhs = double.smash_multiply(lower, raise_)
    rhs = double.smash_multiply(raise_, lower).scale(c1)
    records.append(CheckRecord(
        "weyl-element-identity", (), lhs.add(rhs.scale(GroundElem.from_int(-1, layer.mode))) == double.unit(),
        lhs=repr(lhs), rhs=repr(rhs.add(double.unit())),
    ))
    y1 = layer.basis_vector(G_SIDE, 1, 0)
    x1 = layer.basis_vector(K_SIDE, 1, 0)
    powers = [layer.unit_vector(G_SIDE)]
    for _ in range(max_power):
        powers.append(layer.nabla(powers[-1], y1))
    lowered = [double.regular_action(x1, e) for e in powers]
    failing = [n for n in range(max_power)
               if lowered[n + 1] != powers[n].add(layer.nabla(lowered[n], y1).scale(c1))]
    records.append(CheckRecord(
        "weyl-operator-identity", (max_power,), not failing,
        detail=f"first failing power {failing[0]}" if failing else "",
    ))
    ok_lower = True
    ok_invariance = True
    for n in range(1, max_power + 1):
        if lowered[n] != powers[n - 1].scale(qpi_integer(n, double.twist.c, layer.mode)):
            ok_lower = False
            ok_invariance = ok_invariance and _ring_multiple(lowered[n], powers[n - 1], (n - 1, 0))
    records.append(CheckRecord(
        "weyl-lowering-rule", (max_power,), ok_lower,
        rhs="[n] times the previous power",
    ))
    records.append(CheckRecord(
        "power-image-invariance", (max_power,), ok_invariance,
        rhs="lowering keeps the projective image",
    ))
    return records


# -- truncation-wide checks ---------------------------------------------------------


def _single_key(level: int) -> BasisKey:
    return (level, 0)


def check_action_compat(double: HeisenbergDouble, max_level: int) -> list[CheckRecord]:
    """Smash associativity and the module law on all bounded monomial tuples.

    Each monomial and each pair product ``m1 m2`` is built once and shared
    by every triple and module-law instance that uses it.
    """
    layer = double.layer
    records = []
    sums3 = [
        (a1, a2, a3)
        for a1 in range(max_level + 1)
        for a2 in range(max_level + 1 - a1)
        for a3 in range(max_level + 1 - a1 - a2)
    ]
    monos = {(a, x): double.monomial(_single_key(a), _single_key(x))
             for a in range(max_level + 1) for x in range(max_level + 1)}
    pairs: dict[tuple, HeisenbergElem] = {}  # (m1, m2) -> m1 m2, each product once

    def pair(m1: tuple[int, int], m2: tuple[int, int]) -> HeisenbergElem:
        got = pairs.get((m1, m2))
        if got is None:
            got = pairs[(m1, m2)] = double.smash_multiply(monos[m1], monos[m2])
        return got

    ok_assoc = True
    first = None
    for (a1, a2, a3) in sums3:
        for (x1, x2, x3) in sums3:
            m1, m2, m3 = (a1, x1), (a2, x2), (a3, x3)
            lhs = double.smash_multiply(pair(m1, m2), monos[m3])
            rhs = double.smash_multiply(monos[m1], pair(m2, m3))
            if lhs != rhs:
                ok_assoc = False
                if first is None:
                    first = ((a1, x1), (a2, x2), (a3, x3))
    records.append(CheckRecord(
        "smash-associativity", (max_level,), ok_assoc,
        detail="" if ok_assoc else f"first failing triple {first}",
    ))
    ok_module = True
    first = None
    inner: dict[tuple[int, int, int], GrothVector] = {}  # (a2, x2, m) -> h2 . v
    for a1 in range(max_level + 1):
        for a2 in range(max_level + 1 - a1):
            for m in range(max_level + 1 - a1 - a2):
                for x1 in range(max_level + 1):
                    for x2 in range(max_level + 1 - x1):
                        v = layer.basis_vector(G_SIDE, m, 0)
                        lhs = double.fock_act(pair((a1, x1), (a2, x2)), v)
                        acted = inner.get((a2, x2, m))
                        if acted is None:
                            acted = inner[(a2, x2, m)] = double.fock_act(monos[(a2, x2)], v)
                        rhs = double.fock_act(monos[(a1, x1)], acted)
                        if lhs != rhs:
                            ok_module = False
                            if first is None:
                                first = ((a1, x1), (a2, x2), m)
    records.append(CheckRecord(
        "fock-module-law", (max_level,), ok_module,
        detail="" if ok_module else f"first failing instance {first}",
    ))
    return records


def check_general_relation(double: HeisenbergDouble, max_level: int) -> list[CheckRecord]:
    """The five-exponent commutation rule for the regular action on products."""
    layer = double.layer
    g1, g2 = double.twist.gamma
    c1, c2 = double.twist.chi
    records = []
    ok = True
    first = None
    for lx in range(max_level + 1):
        kx = _single_key(lx)
        dx = layer.basis_delta(K_SIDE, kx)
        for la in range(max_level + 1):
            for lb in range(max_level + 1 - la):
                a = layer.basis_vector(G_SIDE, la, 0)
                b = layer.basis_vector(G_SIDE, lb, 0)
                xv = layer.basis_vector(K_SIDE, *kx)
                lhs = double.regular_action(xv, layer.nabla(a, b))
                rhs: dict[BasisKey, GroundElem] = {}
                for (kx1, kx2), cx in dx.items():
                    act_a = double.regular_action(layer.basis_vector(K_SIDE, *kx1), a)
                    act_b = double.regular_action(layer.basis_vector(K_SIDE, *kx2), b)
                    if act_a.is_zero() or act_b.is_zero():
                        continue
                    exp = (
                        g1 * (la - kx1[0]) * kx2[0]
                        + g1 * (lb - kx2[0]) * kx1[0]
                        + g2 * kx1[0] * kx2[0]
                        + c1 * kx1[0] * (lb - kx2[0])
                        + c2 * (la - kx1[0]) * kx2[0]
                    )
                    tensor_accumulate(rhs, layer.nabla(act_a, act_b).entries, cx * layer.scalar(exp))
                if lhs != GrothVector(G_SIDE, nonzero(rhs)):
                    ok = False
                    if first is None:
                        first = (lx, la, lb)
    records.append(CheckRecord(
        "regular-action-product-rule", (max_level,), ok,
        detail="" if ok else f"first failing levels {first}",
    ))
    return records


# -- truncated faithfulness -----------------------------------------------------------

def _laurent_rows_rank(rows: list[dict[int, GroundElem]]) -> int:
    """Exact rank over the rational function field by cross-multiplication.

    Entries are Laurent polynomials in ``q`` alone: ring elements with no
    ``pi`` terms, whose products keep none.
    """
    work = [dict(r) for r in rows if r]
    rank = 0
    while work:
        piv_col = min(min(r) for r in work)
        piv_idx = next(i for i, r in enumerate(work) if piv_col in r)
        piv = work.pop(piv_idx)
        rank += 1
        new_work = []
        for r in work:
            if piv_col in r:
                lead = r[piv_col]
                zero = GroundElem.zero(lead.mode)
                reduced = {}
                cols = set(r) | set(piv)
                for col in cols:
                    val = r.get(col, zero) * piv[piv_col] - piv.get(col, zero) * lead
                    if val:
                        reduced[col] = val
                if reduced:
                    new_work.append(reduced)
            else:
                new_work.append(r)
        work = new_work
    return rank


def check_faithfulness_truncated(double: HeisenbergDouble, max_level: int) -> list[CheckRecord]:
    """Linear independence of all bounded monomials acting on the doubled window.

    Builds the truncated action matrix of every ``a # x`` with levels at
    most the bound on the vacuum module up to twice the bound, clears the
    parity generator by both evaluations, and certifies full row rank by
    exact elimination over the rational function field.
    """
    layer = double.layer
    window = 2 * max_level
    if window > layer.tower.n_max:
        raise ValidationError("faithfulness window exceeds the tower truncation")
    monomials = [
        (a, x) for a in range(max_level + 1) for x in range(max_level + 1)
    ]
    rows_plus: list[dict[int, GroundElem]] = []
    rows_minus: list[dict[int, GroundElem]] = []
    for (a, x) in monomials:
        mono = double.monomial(_single_key(a), _single_key(x))
        row_p: dict[int, GroundElem] = {}
        row_m: dict[int, GroundElem] = {}
        for m in range(window + 1):
            if m - x + a > window or m - x < 0:
                continue
            image = double.fock_act(mono, layer.basis_vector(G_SIDE, m, 0))
            for (lv, i), coeff in image.entries.items():
                feature = (window + 1) * m + lv
                for sign, row in ((1, row_p), (-1, row_m)):
                    ev = GroundElem({(e, 0): v for e, v in coeff.eval_pi(sign).items()}, coeff.mode)
                    if ev:
                        row[feature] = ev
        rows_plus.append(row_p)
        rows_minus.append(row_m)
    rank_p = _laurent_rows_rank(rows_plus)
    rank_m = _laurent_rows_rank(rows_minus)
    ok = rank_p == len(monomials) and rank_m == len(monomials)
    return [CheckRecord(
        "truncated-faithfulness", (max_level,), ok,
        lhs=f"ranks ({rank_p},{rank_m})", rhs=f"{len(monomials)} monomials",
    )]


# -- the decategorified Weyl relation at module level ----------------------------------


def categorified_weyl_shadow(tower: TowerSpec, max_level: int,
                             general_shift: bool = False) -> list[CheckRecord]:
    """Graded dimensions of restriction-after-induction versus the Weyl recursion.

    For each declared module at each level: restricting the one-step
    induction must have the graded dimension of the shifted one-step
    induction of the restriction plus the module itself.  The canonical
    statement fixes degree shift one with even parity (twist ``(1, 0)``);
    the general-twist shift is an extrapolation enabled separately and
    reported as such.  The inductions here are of declared modules and their
    restrictions, whose generators act by signed partial permutations, so
    ``induce_module`` quotients their relations by signed supports rather
    than by row reduction.
    """
    records = []
    if general_shift:
        sd, ss = tower.twist.d, tower.twist.eps
        tag = "categorified-weyl-shadow-general-shift"
    else:
        if (tower.twist.d, tower.twist.eps) != (1, 0):
            raise ValidationError("the canonical shadow requires twist (1, 0)")
        sd, ss = 1, 0
        tag = "categorified-weyl-shadow"
    shift = GroundElem.monomial(sd, ss)
    for lv in range(min(max_level, tower.n_max - 1) + 1):
        for decl in (tower.declared_projectives(lv) + tower.declared_simples(lv)):
            mod = decl.module
            up = tower.step_hom(lv)
            lhs = graded_dim(restrict_module(up, induce_module(up, mod)))
            if lv == 0:
                middle = GroundElem.zero(FULL)
            else:
                down = tower.step_hom(lv - 1)
                middle = graded_dim(induce_module(down, restrict_module(down, mod)))
            rhs = shift * middle + graded_dim(mod)
            records.append(CheckRecord(
                tag, (lv, decl.label), lhs == rhs,
                lhs=repr(lhs), rhs=repr(rhs),
            ))
    return records
