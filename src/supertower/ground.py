"""Exact arithmetic in the coefficient rings of the tower calculus.

Two modes are supported:

* ``full`` -- the ring of Laurent polynomials in ``q`` with an adjoined
  involution generator ``pi`` satisfying ``pi**2 == 1``, over the integers.
* ``collapsed`` -- the image ring with ``pi`` set to ``1`` and ``1/2``
  adjoined, so coefficients are dyadic rationals in ``q``.

Terms are a finitely supported map ``(q_exponent, pi_exponent) ->
coefficient`` with no zero coefficients stored; ``pi_exponent`` is always
``0`` in collapsed mode, and an integral coefficient is always an ``int``.
Canonical term order (``q`` exponent ascending, then ``pi`` exponent)
governs printing.

Elements are immutable, and values are shared: ``one()`` and ``zero()``
return one instance per mode, and a product by one returns the other factor
itself.  So the ``terms`` dict of an element must never be mutated.  The
constructor validates and normalises terms that come from outside the ring;
sums, negations and products of elements are canonical already and skip it.
A product with a one-term factor only shifts the other factor's keys, so it
neither merges terms nor drops zeros.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExactDivisionError, InternalInconsistencyError, ModeError
from .linalg import exact

FULL = "full"
COLLAPSED = "collapsed"

Key = tuple[int, int]


def _is_dyadic(x: int | Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


class TwistScalar:
    """The scalar ``q**d * pi**eps`` that twists all Hopf-level identities;
    immutable, equal and hashed by value."""

    __slots__ = ("d", "eps")

    def __init__(self, d: int, eps: int):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "eps", eps & 1)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("TwistScalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("TwistScalar is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d and self.eps == other.eps

    def __hash__(self) -> int:
        return hash((self.d, self.eps))

    def __repr__(self) -> str:
        return f"TwistScalar(d={self.d!r}, eps={self.eps!r})"

    def power(self, k: int, mode: str = FULL) -> "GroundElem":
        """Return ``(q^d pi^eps)**k`` as a ring element."""
        return GroundElem.monomial(self.d * k, self.eps * k, 1, mode)


class GroundElem:
    """An element of the full or collapsed coefficient ring."""

    __slots__ = ("terms", "mode")

    def __init__(self, terms: dict[Key, object], mode: str = FULL):
        if mode not in (FULL, COLLAPSED):
            raise ValueError(f"unknown ring mode {mode!r}")
        clean: dict[Key, object] = {}
        for (qe, pe), c in terms.items():
            c = exact(c)
            if mode == COLLAPSED:
                if not _is_dyadic(c):
                    raise ValueError(f"non-dyadic coefficient {c} in collapsed mode")
                key = (qe, 0)
            else:
                if type(c) is not int:
                    raise ValueError(f"non-integer coefficient {c} in full mode")
                key = (qe, pe & 1)
            if c:
                # collapsing pi can merge two dyadic halves into an integer
                c = exact(clean.get(key, 0) + c)
                if c:
                    clean[key] = c
                else:
                    del clean[key]
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("GroundElem is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(mode: str = FULL) -> "GroundElem":
        try:
            return _ZERO[mode]
        except KeyError:
            raise ValueError(f"unknown ring mode {mode!r}") from None

    @staticmethod
    def one(mode: str = FULL) -> "GroundElem":
        try:
            return _ONE[mode]
        except KeyError:
            raise ValueError(f"unknown ring mode {mode!r}") from None

    @staticmethod
    def from_int(n: int, mode: str = FULL) -> "GroundElem":
        return GroundElem({(0, 0): n}, mode)

    @staticmethod
    def monomial(q_exp: int, pi_exp: int = 0, coeff: object = 1, mode: str = FULL) -> "GroundElem":
        return GroundElem({(q_exp, pi_exp): coeff}, mode)

    # -- ring structure ----------------------------------------------------

    def _check_mode(self, other: "GroundElem") -> None:
        if self.mode != other.mode:
            raise ModeError("ring mode conflict")

    def __add__(self, other: "GroundElem") -> "GroundElem":
        if isinstance(other, int):
            other = GroundElem.from_int(other, self.mode)
        self._check_mode(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return _canonical(terms, self.mode)

    __radd__ = __add__

    def __neg__(self) -> "GroundElem":
        return _canonical({k: -c for k, c in self.terms.items()}, self.mode)

    def __sub__(self, other: "GroundElem") -> "GroundElem":
        if isinstance(other, int):
            other = GroundElem.from_int(other, self.mode)
        return self + (-other)

    def __rsub__(self, other) -> "GroundElem":
        return (-self) + other

    def __mul__(self, other) -> "GroundElem":
        if isinstance(other, int):
            return _canonical({k: c * other for k, c in self.terms.items()}, self.mode)
        self._check_mode(other)
        if self.terms == _UNIT_TERMS:
            return other
        if other.terms == _UNIT_TERMS:
            return self
        if len(self.terms) == 1:
            return _monomial_times(self.terms, other.terms, self.mode)
        if len(other.terms) == 1:
            return _monomial_times(other.terms, self.terms, self.mode)
        terms: dict[Key, object] = {}
        for (qa, pa), ca in self.terms.items():
            for (qb, pb), cb in other.terms.items():
                key = (qa + qb, (pa + pb) & 1)
                terms[key] = terms.get(key, 0) + ca * cb
        return _canonical(terms, self.mode)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GroundElem":
        if k < 0:
            raise ValueError("negative powers require a unit; use GroundElem.monomial")
        out = GroundElem.one(self.mode)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = GroundElem.from_int(other, self.mode)
        if not isinstance(other, GroundElem):
            return NotImplemented
        return self.mode == other.mode and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.mode, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def is_unit(self) -> bool:
        """Units: ``±q^a pi^b`` in full mode, ``±2^k q^a`` in collapsed mode."""
        if len(self.terms) != 1:
            return False
        c = next(iter(self.terms.values()))
        if self.mode == FULL:
            return c in (1, -1)
        n = abs(c.numerator)
        return n & (n - 1) == 0 and n != 0

    # -- involutions and substitutions --------------------------------------

    def bar(self) -> "GroundElem":
        """Interchange ``q`` and ``q**-1``; ``pi`` is fixed."""
        return GroundElem({(-qe, pe): c for (qe, pe), c in self.terms.items()}, self.mode)

    def collapse(self) -> "GroundElem":
        """Set ``pi = 1`` and move to the collapsed ring."""
        if self.mode == COLLAPSED:
            raise ModeError("element already collapsed")
        terms: dict[Key, object] = {}
        for (qe, _pe), c in self.terms.items():
            terms[(qe, 0)] = terms.get((qe, 0), 0) + c
        return GroundElem(terms, COLLAPSED)

    def eval_pi(self, sign: int) -> dict[int, Fraction]:
        """Evaluate ``pi -> sign`` (``+1`` or ``-1``); dict ``q_exp -> value``."""
        if sign not in (1, -1):
            raise ValueError(f"pi evaluates to +1 or -1, not {sign!r}")
        out: dict[int, Fraction] = {}
        for (qe, pe), c in self.terms.items():
            v = Fraction(c) * (sign ** pe)
            out[qe] = out.get(qe, Fraction(0)) + v
            if not out[qe]:
                del out[qe]
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (qe, pe) in sorted(self.terms):
            c = self.terms[(qe, pe)]
            body = []
            if qe == 1:
                body.append("q")
            elif qe:
                body.append(f"q^{qe}")
            if pe:
                body.append("pi")
            if not body or c not in (1, -1):
                body.insert(0, str(abs(c)))
            mono = "*".join(body)
            neg = (c < 0)
            parts.append(("- " if neg else "+ ") + mono)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


_UNIT_TERMS = {(0, 0): 1}
_ZERO = {mode: GroundElem({}, mode) for mode in (FULL, COLLAPSED)}
_ONE = {mode: GroundElem(_UNIT_TERMS, mode) for mode in (FULL, COLLAPSED)}


def _canonical(terms: dict[Key, object], mode: str) -> GroundElem:
    """Wrap the terms of a ring operation on canonical elements, unvalidated.

    Keys and coefficient types are canonical already; only the zeros a sum
    leaves are dropped, and a collapsed-mode ``Fraction`` that became
    integral is stored as its ``int``.
    """
    if mode == COLLAPSED:
        terms = {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                 for k, c in terms.items() if c}
    else:
        terms = {k: c for k, c in terms.items() if c}
    return _wrap(terms, mode)


def _monomial_times(mono: dict[Key, object], terms: dict[Key, object], mode: str) -> GroundElem:
    """``mono * terms`` for a one-term ``mono``: it shifts the keys of ``terms``
    bijectively and no coefficient vanishes, so nothing merges or drops."""
    ((qa, pa), ca), = mono.items()
    out = {(qa + qb, (pa + pb) & 1): ca * cb for (qb, pb), cb in terms.items()}
    return _canonical(out, mode) if mode == COLLAPSED else _wrap(out, mode)


def _wrap(terms: dict[Key, object], mode: str) -> GroundElem:
    out = object.__new__(GroundElem)
    object.__setattr__(out, "terms", terms)
    object.__setattr__(out, "mode", mode)
    return out


def bar_involution(a: GroundElem) -> GroundElem:
    return a.bar()


# -- q,pi-integers, factorials and binomials ---------------------------------
#
# These are computed as honest one-variable Gaussian polynomials first (where
# divisibility is canonical and testable) and only then specialized at the
# twist scalar.  That keeps the binomial well defined even when the
# specialized factorials are zero divisors.


def _gauss_integer(n: int) -> list[int]:
    return [1] * n  # 1 + t + ... + t^(n-1); empty for n == 0


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Synthetic division in Z[t]; requires ``b`` monic up to sign."""
    if not b:
        raise ZeroDivisionError
    if b[-1] not in (1, -1):
        raise ValueError(f"divisor {b} is not monic up to sign")
    rem = list(a)
    quo = [0] * max(0, len(rem) - len(b) + 1)
    for shift in range(len(rem) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c:
            c //= b[-1]
            quo[shift] = c
            for i, x in enumerate(b):
                rem[shift + i] -= c * x
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _gauss_factorial(n: int) -> list[int]:
    out = [1]
    for i in range(1, n + 1):
        out = _poly_mul(out, _gauss_integer(i))
    return out


def _gauss_binomial(n: int, k: int) -> list[int]:
    if k < 0 or k > n:
        raise ValueError(f"binomial ({n},{k}) out of range")
    num = _gauss_factorial(n)
    den = _poly_mul(_gauss_factorial(k), _gauss_factorial(n - k))
    quo, rem = _poly_divmod(num, den)
    if rem:
        raise InternalInconsistencyError(
            f"gaussian binomial ({n},{k}) division left a remainder"
        )
    return quo


def _specialize(poly: list[int], c: TwistScalar, mode: str) -> GroundElem:
    terms: dict[Key, object] = {}
    for i, coeff in enumerate(poly):
        if coeff:
            key = (c.d * i, (c.eps * i) & 1)
            terms[key] = terms.get(key, 0) + coeff
    return GroundElem(terms, FULL if mode == FULL else COLLAPSED)


def qpi_integer(n: int, c: TwistScalar, mode: str = FULL) -> GroundElem:
    """The twisted integer ``1 + c + ... + c**(n-1)``; ``0`` for ``n == 0``."""
    if n < 0:
        raise ValueError("qpi_integer needs n >= 0")
    return _specialize(_gauss_integer(n), c, mode)


def qpi_factorial(n: int, c: TwistScalar, mode: str = FULL) -> GroundElem:
    if n < 0:
        raise ValueError("qpi_factorial needs n >= 0")
    return _specialize(_gauss_factorial(n), c, mode)


def qpi_binomial(n: int, k: int, c: TwistScalar, mode: str = FULL) -> GroundElem:
    """The twisted binomial, by exact division of Gaussian factorials."""
    return _specialize(_gauss_binomial(n, k), c, mode)


# -- exact division -----------------------------------------------------------


def _laurent_div(num: dict[int, Fraction], den: dict[int, Fraction]) -> dict[int, Fraction]:
    """Exact division of Laurent polynomials over Q; raises if inexact.

    An exact quotient has lowest exponent ``min(num) - min(den)``; falling
    below that bound proves the division inexact and stops the descent.
    """
    if not den:
        raise ZeroDivisionError("division by zero")
    num = dict(num)
    if not num:
        return {}
    emin = min(num) - min(den)
    out: dict[int, Fraction] = {}
    dtop = max(den)
    dlead = den[dtop]
    while num:
        ntop = max(num)
        e = ntop - dtop
        if e < emin:
            raise ExactDivisionError("laurent division is inexact")
        c = num[ntop] / dlead
        out[e] = out.get(e, Fraction(0)) + c
        for de, dc in den.items():
            k = de + e
            v = num.get(k, Fraction(0)) - c * dc
            if v:
                num[k] = v
            elif k in num:
                del num[k]
    return out


def divide_exact(a: GroundElem, b: GroundElem) -> GroundElem:
    """Return ``a / b`` when the quotient exists in the same ring.

    Full mode divides via the two evaluations ``pi -> +1`` and ``pi -> -1``
    and recombines, which is exact whenever ``b`` is not a zero divisor; the
    result is verified by multiplying back.
    """
    a._check_mode(b)
    if b.is_zero():
        raise ZeroDivisionError("division by zero ground element")
    if a.is_zero():
        return GroundElem.zero(a.mode)
    if a.mode == COLLAPSED:
        quo = _laurent_div(a.eval_pi(1), b.eval_pi(1))
        if not all(_is_dyadic(c) for c in quo.values()):
            raise ExactDivisionError(f"({a}) is not divisible by ({b})")
        out = GroundElem({(e, 0): c for e, c in quo.items()}, COLLAPSED)
        if out * b == a:
            return out
        raise ExactDivisionError(f"({a}) is not divisible by ({b})")
    evp = b.eval_pi(1)
    evm = b.eval_pi(-1)
    if not evp or not evm:
        raise ExactDivisionError(f"divisor ({b}) is a zero divisor")
    qp = _laurent_div(a.eval_pi(1), evp)
    qm = _laurent_div(a.eval_pi(-1), evm)
    terms: dict[Key, object] = {}
    for e in set(qp) | set(qm):
        even = (qp.get(e, Fraction(0)) + qm.get(e, Fraction(0))) / 2
        odd = (qp.get(e, Fraction(0)) - qm.get(e, Fraction(0))) / 2
        for pe, v in ((0, even), (1, odd)):
            if v:
                if v.denominator != 1:
                    raise ExactDivisionError(f"({a}) is not divisible by ({b})")
                terms[(e, pe)] = v.numerator
    out = GroundElem(terms, FULL)
    if out * b == a:
        return out
    raise ExactDivisionError(f"({a}) is not divisible by ({b})")


def divide_by_int(a: GroundElem, n: int) -> GroundElem:
    """Exact scalar division; in collapsed mode dyadic denominators are fine."""
    if n == 0:
        raise ZeroDivisionError
    terms: dict[Key, object] = {}
    for k, c in a.terms.items():
        f = Fraction(c, n)
        if not (f.denominator == 1 if a.mode == FULL else _is_dyadic(f)):
            raise ExactDivisionError(f"coefficient {c} not divisible by {n}")
        terms[k] = f.numerator if a.mode == FULL else f
    return GroundElem(terms, a.mode)
