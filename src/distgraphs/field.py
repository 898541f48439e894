"""Arithmetic in finite fields F_q, q = p^k with p an odd prime.

Elements are coefficient vectors over F_p in the monomial basis
1, X, ..., X^(k-1), reduced modulo a fixed monic irreducible modulus
polynomial.  The modulus is always the lexicographically least monic
irreducible of degree k (least packed integer code of the non-leading
coefficients), so field tables are reproducible across runs and machines.
For k = 1 this convention yields the modulus X and plain mod-p arithmetic.

Every element also has an integer code sum(c_i * p^i).  FieldSpec caches
the (q, k) table of these base-p digits and has one encode step back to
codes.  Addition is digit-wise mod p, so the add and sub tables are one
numpy expression each over the digit table, and the points-file codec uses
the same pair.  The scalar FieldElement path is the tables' reference.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DivisionByZero, InvalidDegree, NotOddPrime, SpecMismatch, TooLarge, env_cap

DEFAULT_MAX_Q = 49
ENV_MAX_Q = "DISTGRAPHS_MAX_Q"


def max_field_size() -> int:
    """Configured cap on q; override with the DISTGRAPHS_MAX_Q env var."""
    return env_cap(ENV_MAX_Q, DEFAULT_MAX_Q)


def _check_field(p: int, k: int) -> None:
    """Reject a degree that is not an integer >= 1 (a bool is not), a
    characteristic that is not an odd prime integer and a field over the
    DISTGRAPHS_MAX_Q cap.  The cap comes before the trial-division
    primality test, and p^k is never formed for a k that is over the cap
    on its own: 3^k > 2^k > cap once k >= cap.bit_length()."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidDegree(f"extension degree must be an integer >= 1, got {k!r}")
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 3 or p % 2 == 0:
        raise NotOddPrime(f"characteristic must be an odd prime, got {p}")
    cap = max_field_size()
    if p > cap or k >= cap.bit_length() or p**k > cap:
        raise TooLarge(f"q = {p}^{k} exceeds the configured cap {cap}")
    if not _is_prime(p):
        raise NotOddPrime(f"characteristic must be an odd prime, got {p}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# Polynomials over F_p are coefficient tuples, low degree first, with no
# trailing zeros (the zero polynomial is the empty tuple).


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int):
    """Quotient and remainder of a by b over F_p; b must be nonzero."""
    rem = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = (c * lead_inv) % p
        quo[i - db] = factor
        for j, bj in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - factor * bj) % p
    return _poly_trim(quo), _poly_trim(rem)


def _poly_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2.

    Degree-1 trial divisors subsume the root test.
    """
    deg = len(poly) - 1
    for fdeg in range(1, deg // 2 + 1):
        for code in range(p**fdeg):
            div = _decode_coeffs(code, p, fdeg) + (1,)
            _, rem = _poly_divmod(poly, div, p)
            if not rem:
                return False
    return True


def _decode_coeffs(code: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        code, c = divmod(code, p)
        out.append(c)
    return tuple(out)


def _encode_coeffs(coeffs: Sequence[int], p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


class FieldSpec:
    """A concrete finite field F_{p^k} with a fixed modulus polynomial.

    Immutable; equality and hashing are structural on (p, k, modulus).
    """

    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        _check_field(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise InvalidDegree(f"modulus must be monic of degree exactly {k}")
        if not _poly_irreducible(modulus, p):
            raise InvalidDegree(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.q = p**k

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k}, q={self.q})"

    def as_dict(self) -> dict:
        """Serializable description used in experiment reports."""
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    # -- element constructors -------------------------------------------

    def element(self, coeffs: int | Sequence[int]) -> "FieldElement":
        """Element from an integer (embedded constant) or coefficient vector."""
        if isinstance(coeffs, int):
            vec = (coeffs % self.p,) + (0,) * (self.k - 1)
        else:
            if len(coeffs) != self.k:
                raise InvalidDegree(f"expected {self.k} coefficients, got {len(coeffs)}")
            vec = tuple(int(c) % self.p for c in coeffs)
        return FieldElement(self, vec)

    def from_code(self, code: int) -> "FieldElement":
        """Element from its packed integer code sum(c_i * p^i)."""
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for q={self.q}")
        return FieldElement(self, _decode_coeffs(code, self.p, self.k))

    @cached_property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @cached_property
    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self) -> list["FieldElement"]:
        """All q elements ordered by packed code (so 0, 1, ..., X, X+1, ...)."""
        return [self.from_code(c) for c in range(self.q)]

    # -- vectorized operation tables over packed codes -------------------

    @cached_property
    def digit_table(self) -> np.ndarray:
        """(q, k) table: row `code` holds the base-p digits c_i of code."""
        return self._read_only(np.arange(self.q)[:, None] // self.p ** np.arange(self.k) % self.p)

    def encode(self, digits: np.ndarray) -> np.ndarray:
        """Read-only int32 codes of the digit vectors along the last axis
        of `digits`, each digit first reduced mod p."""
        return self._read_only((np.asarray(digits) % self.p) @ self.p ** np.arange(self.k))

    @cached_property
    def add_table(self) -> np.ndarray:
        return self.encode(self.digit_table[:, None] + self.digit_table[None])

    @cached_property
    def sub_table(self) -> np.ndarray:
        return self.encode(self.digit_table[:, None] - self.digit_table[None])

    @cached_property
    def square_table(self) -> np.ndarray:
        return self._read_only([(e * e).code for e in self.elements()])

    @staticmethod
    def _read_only(values) -> np.ndarray:
        t = np.array(values, dtype=np.int32)
        t.setflags(write=False)
        return t


class FieldElement:
    """Immutable element of a FieldSpec in canonical reduced form."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    @property
    def code(self) -> int:
        return _encode_coeffs(self.coeffs, self.spec.p)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise SpecMismatch(f"operands from {self.spec} and {other.spec}")
        return other

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __add__(self, other):
        other = self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        spec = self.spec
        prod = _poly_mul(self.coeffs, other.coeffs, spec.p)
        _, rem = _poly_divmod(prod, spec.modulus, spec.p) if prod else ((), ())
        rem = rem + (0,) * (spec.k - len(rem))
        return FieldElement(spec, rem)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.spec.one
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via extended Euclid on polynomials."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        p = self.spec.p
        # Invariant: old_r = old_s * self (mod modulus), r = s * self.
        old_r, r = _poly_trim(self.coeffs), self.spec.modulus
        old_s, s = (1,), ()
        while r:
            quo, rem = _poly_divmod(old_r, r, p)
            old_r, r = r, rem
            old_s, s = s, _poly_sub(old_s, _poly_mul(quo, s, p), p)
        # old_r is a nonzero constant gcd; scale old_s by its inverse.
        scale = pow(old_r[0], p - 2, p)
        inv = tuple((c * scale) % p for c in old_s)
        inv = inv + (0,) * (self.spec.k - len(inv))
        return FieldElement(self.spec, inv[: self.spec.k])

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "X" if i == 1 else f"X^{i}"
                terms.append(x if c == 1 else f"{c}{x}")
        poly = " + ".join(terms) if terms else "0"
        return f"F{self.spec.q}({poly})"


class Point:
    """A d-tuple of FieldElements from one common field."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[FieldElement]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("point needs at least one coordinate")
        spec = coords[0].spec
        for c in coords[1:]:
            if c.spec != spec:
                raise SpecMismatch("point coordinates from different fields")
        self.coords = coords

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    @property
    def d(self) -> int:
        return len(self.coords)

    def norm(self) -> FieldElement:
        """The quadratic form x_1^2 + ... + x_d^2 (not a metric: nonzero
        isotropic vectors may have norm 0)."""
        acc = self.spec.zero
        for c in self.coords:
            acc = acc + c * c
        return acc

    def __add__(self, other: "Point") -> "Point":
        return Point(a + b for a, b in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other: "Point") -> "Point":
        return Point(a - b for a, b in zip(self.coords, other.coords, strict=True))

    def __eq__(self, other):
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Point({', '.join(map(repr, self.coords))})"


def make_field(p: int, k: int) -> FieldSpec:
    """Build F_{p^k} with the lexicographically least monic irreducible modulus.

    The search enumerates non-leading coefficient vectors by packed code,
    so the choice is deterministic; for k = 1 it returns the modulus X.
    """
    _check_field(p, k)
    for code in range(p**k):
        modulus = _decode_coeffs(code, p, k) + (1,)
        if _poly_irreducible(modulus, p):
            return FieldSpec(p, k, modulus)
    raise AssertionError("no irreducible modulus found; unreachable for prime p")


def enumerate_field(spec: FieldSpec) -> list[FieldElement]:
    """All q elements in packed-code order; the first element is 0."""
    return spec.elements()
