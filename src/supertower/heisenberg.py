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
may differ in twist.  ``_basis_action`` maps three basis keys to the action
``a (x -> v)`` of one monomial on a basis class; it holds the one
contraction of a projective class against a simple class's coproduct.
``_monomial_product`` maps four basis keys to the product
``(a # x)(b # y) = sum c**e a (x1 -> b) # x2 y`` of two unit-coefficient
monomials, built from the contraction memo over the coproduct of ``x``.
Memo values are never mutated; callers copy their terms into a fresh dict.
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
from .values import Frozen, Record


def derive_xi(chi: tuple[int, int], gamma: tuple[int, int]) -> tuple[int, int]:
    """The coproduct twist forced on the dual side by the pairing twist.

    For a one-dimensional level lattice the transposes act trivially on the
    stored multiples, leaving ``(chi' + gamma' - gamma'', chi'' + gamma' - gamma'')``.
    """
    return (chi[0] + gamma[0] - gamma[1], chi[1] + gamma[0] - gamma[1])


def check_compatibility(twist: "TwistDataSet") -> bool:
    """The product-side twist must be minus the transpose of the pairing twist."""
    return twist.chi[0] == -twist.gamma[0]


class TwistDataSet(Frozen):
    """All biadditive exponent data for one Heisenberg double; immutable,
    equal and hashed by value.  ``xi`` and ``compatible`` are derived."""

    __slots__ = ("c", "chi", "gamma", "xi", "compatible")

    def __init__(self, c: TwistScalar, chi: tuple[int, int], gamma: tuple[int, int]):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "xi", derive_xi(chi, gamma))
        object.__setattr__(self, "compatible", check_compatibility(self))

    @staticmethod
    def for_tower(tower: TowerSpec) -> "TwistDataSet":
        return TwistDataSet(tower.twist, tower.chi, tower.gamma)


class HeisenbergElem(Record):
    """A finitely supported combination of ``simple-class # projective-class`` keys."""

    def __init__(self, terms: dict[tuple[BasisKey, BasisKey], GroundElem] | None = None):
        self.terms = {} if terms is None else terms

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

        Sum over the coproduct of ``x`` of the twist power
        ``gamma''(|b|, |x2|) + xi''(|b| - |x1|, |x2|)`` times
        ``a (x1 -> b) # x2 y``, where ``a (x1 -> b)`` is the memoised action
        ``_basis_action(a, x1, b)``.  Its values are never mutated.
        """
        memo_key = (ka, kx, kb, ky)
        got = self._products.get(memo_key)
        if got is not None:
            return got
        layer = self.layer
        g2 = self.twist.gamma[1]
        xi2 = self.twist.xi[1]
        out: dict[tuple[BasisKey, BasisKey], GroundElem] = {}
        for (kx1, kx2), cx in layer.basis_delta(K_SIDE, kx).items():
            left = self._basis_action(ka, kx1, kb)
            if not left:
                continue
            coeff = cx * self._scalar(g2 * kb[0] * kx2[0] + xi2 * (kb[0] - kx1[0]) * kx2[0])
            right = layer.basis_nabla(K_SIDE, kx2, ky)
            for kg, cg in left.items():
                cg = coeff * cg
                for kk, ck in right.entries.items():
                    key, term = (kg, kk), cg * ck
                    out[key] = out[key] + term if key in out else term
        got = self._products[memo_key] = nonzero(out)
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
        """``(a # x) . v = a (x -> v)`` for basis classes, memoised per double.

        The one contraction of the double: ``x -> v`` sums the coproduct
        terms ``v1 (x) v2`` of ``v`` with ``v2 == x``, each times the norm
        of ``x`` and the twist power ``gamma'(|v1|, |v2|)``.  The values are
        never mutated; ``_monomial_product`` reads them too.
        """
        memo_key = (ka, kx, kv)
        got = self._actions.get(memo_key)
        if got is None:
            layer = self.layer
            g1 = self.twist.gamma[0]
            out: dict[BasisKey, GroundElem] = {}
            for (kv1, kv2), cv in layer.basis_delta(G_SIDE, kv).items():
                if kv2 == kx:
                    coeff = cv * layer.norm(*kx) * self._scalar(g1 * kv1[0] * kv2[0])
                    tensor_accumulate(out, layer.basis_nabla(G_SIDE, ka, kv1).entries, coeff)
            got = self._actions[memo_key] = nonzero(out)
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
    powers = [layer.unit_vector(G_SIDE)]
    for _ in range(max_power):
        powers.append(layer.nabla(powers[-1], y1))
    lowered = [double.fock_act(lower, e) for e in powers]
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


def _past_level_bound(prod: HeisenbergElem, m1: tuple[int, int],
                      m2: tuple[int, int]) -> tuple[BasisKey, BasisKey] | None:
    """The first key of ``m1 m2`` that is not ``((a, 0), (x, 0))`` with
    ``a <= a1 + a2`` and ``x <= x1 + x2``, or None."""
    for key in prod.terms:
        (la, ia), (lx, ix) = key
        if ia or ix or la > m1[0] + m2[0] or lx > m1[1] + m2[1]:
            return key
    return None


def check_action_compat(double: HeisenbergDouble, max_level: int) -> list[CheckRecord]:
    """Smash associativity and the module law on all bounded monomial tuples.

    Write ``(a, x)`` for the monomial ``a # x`` of the level-``a`` simple and
    level-``x`` projective classes.  Associativity on every triple whose
    ``a``- and ``x``-levels each sum to at most the bound is certified from
    three facts, each of which the check tests:

    1. factorization: ``(a # 1)(1 # x) == a # x`` for all ``a, x`` up to the bound;
    2. associativity on the bounded triples whose leading factor is pure,
       ``a1 == 0`` or ``x1 == 0``;
    3. level bound: each product ``m1 m2`` read in (2) has only keys
       ``((a, 0), (x, 0))`` with ``a <= a1 + a2`` and ``x <= x1 + x2``.

    ``smash_multiply`` is bilinear by construction.  Take a bounded triple
    with ``a1`` and ``x1`` both nonzero, and write ``m1 = g h`` with
    ``g = a1 # 1`` and ``h = 1 # x1`` by (1).  Then

        (m1 m2) m3 = (g (h m2)) m3 = g ((h m2) m3) = g (h (m2 m3)) = m1 (m2 m3).

    The steps are (2) on ``(g, h, m2)``; (2) on ``(g, t, m3)`` for each term
    ``t`` of ``h m2``; (2) on ``(h, m2, m3)``; and (2) on ``(g, h, s)`` for
    each term ``s`` of ``m2 m3``.  By (3) every ``t`` and ``s`` is a
    monomial with levels inside the sums of its factors, so each of these
    triples is bounded, and each has the pure leading factor ``g`` or ``h``.

    The detail names the first failure found: a factorization; else, in
    the order of the full loop over every triple, a product past the level
    bound or a failing triple, which is the full loop's first failing
    triple when that one has a pure leading factor.  Each monomial and each pair product is built once and shared by every
    triple and module-law instance that uses it.
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

    def first_failure() -> str:
        for a in range(max_level + 1):
            for x in range(max_level + 1):
                if pair((a, 0), (0, x)) != monos[(a, x)]:
                    return f"(a # 1)(1 # x) is not a # x at {(a, x)}"
        for (a1, a2, a3) in sums3:
            for (x1, x2, x3) in sums3:
                if a1 and x1:
                    continue
                m1, m2, m3 = (a1, x1), (a2, x2), (a3, x3)
                for p in ((m1, m2), (m2, m3)):
                    if p not in pairs:  # the factorizations already equal monomials
                        stray = _past_level_bound(pair(*p), *p)
                        if stray is not None:
                            return f"product {p[0]}*{p[1]} has key {stray} past the level bound"
                lhs = double.smash_multiply(pair(m1, m2), monos[m3])
                rhs = double.smash_multiply(monos[m1], pair(m2, m3))
                if lhs != rhs:
                    return f"first failing triple {(m1, m2, m3)}"
        return ""

    failure = first_failure()
    records.append(CheckRecord(
        "smash-associativity", (max_level,), not failure, detail=failure,
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
    """The five-exponent commutation rule for the regular action on products.

    The regular action of a projective class ``x`` is the Fock action of
    its lowering element ``1 # x``.
    """
    layer = double.layer
    g1, g2 = double.twist.gamma
    c1, c2 = double.twist.chi
    records = []
    ok = True
    first = None
    for lx in range(max_level + 1):
        kx = _single_key(lx)
        dx = layer.basis_delta(K_SIDE, kx)
        lower = double.minus_elem(kx)
        for la in range(max_level + 1):
            for lb in range(max_level + 1 - la):
                a = layer.basis_vector(G_SIDE, la, 0)
                b = layer.basis_vector(G_SIDE, lb, 0)
                lhs = double.fock_act(lower, layer.nabla(a, b))
                rhs: dict[BasisKey, GroundElem] = {}
                for (kx1, kx2), cx in dx.items():
                    act_a = double.fock_act(double.minus_elem(kx1), a)
                    act_b = double.fock_act(double.minus_elem(kx2), b)
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
    every relation of ``induce_module`` is a signed edge or a kill.
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
