"""Exact scalar arithmetic: prime fields, small extension fields, the rationals.

Scalars are stored in raw canonical form (an ``int`` in ``[0, p)`` for a prime
field, a coefficient tuple for an extension field; for the rationals an
``int`` when the value is integral and a reduced ``Fraction`` with
denominator > 1 otherwise) and all arithmetic goes through the owning field
object.  The raw forms are hashable and comparable, which the linear algebra
layer relies on.  Nothing in this module (or anywhere downstream) ever
rounds.

Every field has one accumulate kernel, ``axpy(acc, c, vec)``: the sparse
acc += c vec that every linear combination of the package goes through.
``fractions`` is imported only when a non-integral rational is formed.
"""

from __future__ import annotations

import math

from .errors import (
    BudgetExceeded,
    CharZero,
    NotInvertible,
    NotPrime,
    ReduciblePolynomial,
    SchemaError,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


class Field:
    """Common interface for the three supported scalar domains.

    ``char`` is the characteristic, ``size`` the number of elements (``None``
    for the rationals).  Subclasses provide ``zero``, ``one``, ``add``,
    ``sub``, ``mul``, ``neg``, ``inv``, ``from_int``, ``describe``, canonical
    JSON forms ``to_json`` and ``from_json`` (by default the string forms
    ``to_str`` and ``from_str``), an ``elements()`` iterator in a fixed
    enumeration order (finite case), and the accumulate kernel
    ``axpy(acc, c, vec)``: acc += c * vec in place for sparse vectors (dicts
    key -> scalar), keys in the order add(acc[k], mul(c, v)) entry by entry
    would give, dropping the entries that become zero; it returns acc.
    """

    char: int
    size: int | None
    kind: str

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one()
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def to_json(self, a):
        return self.to_str(a)

    def from_json(self, data):
        """The scalar of its JSON form; ValueError or TypeError if malformed."""
        return self.from_str(str(data))


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.char = p
        self.size = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def axpy(self, acc, c, vec):
        p, get = self.p, acc.get
        for k, v in vec.items():
            s = (get(k, 0) + c * v) % p
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return acc

    def inv(self, a):
        if a % self.p == 0:
            raise NotInvertible("0 has no inverse")
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def to_str(self, a):
        return str(a)

    def from_str(self, s):
        return int(s) % self.p

    def describe(self):
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


def _poly_mod(coeffs, p):
    return tuple(c % p for c in coeffs)


def _poly_is_irreducible(coeffs, p) -> bool:
    """Trial root search; valid for the supported degrees (2 and 3)."""
    deg = len(coeffs) - 1
    if deg not in (2, 3):
        raise ReduciblePolynomial(f"only degree 2 and 3 extensions supported, got {deg}")
    if coeffs[-1] % p != 1:
        raise ReduciblePolynomial("polynomial must be monic")
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    return True


def builtin_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p)."""
    if k < 2 or k > 3:
        raise ReduciblePolynomial(f"no builtin polynomial for degree {k}")
    tail_count = p**k
    for code in range(tail_count):
        tail = []
        c = code
        for _ in range(k):
            tail.append(c % p)
            c //= p
        coeffs = tuple(tail) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise ReduciblePolynomial(f"no irreducible of degree {k} over GF({p})")


class ExtensionField(Field):
    """GF(p^k) as GF(p)[x] modulo a monic irreducible of degree k.

    Elements are coefficient tuples of length k, low degree first.  In a
    field of at most ``TABLE_MAX_SIZE`` elements, ``add`` and ``mul`` keep
    per-field tables of the pairs met so far, each entry computed by the
    polynomial arithmetic on first use, so a table never holds more than
    its size squared pairs (GF(9) has 81 products).  Larger fields compute
    every sum and product afresh.
    """

    TABLE_MAX_SIZE = 64

    kind = "extension"

    def __init__(self, p: int, k: int, poly=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if poly is None:
            poly = builtin_irreducible(p, k)
        poly = _poly_mod(poly, p)
        if len(poly) != k + 1 or poly[-1] != 1:
            raise ReduciblePolynomial("modulus must be monic of degree k")
        if not _poly_is_irreducible(poly, p):
            raise ReduciblePolynomial(f"{poly} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.poly = poly
        self.char = p
        self.size = p**k
        # x^k = -(low part of modulus)
        self._xk = tuple((-c) % p for c in poly[:-1])
        self._tabled = self.size <= self.TABLE_MAX_SIZE
        self._sums = {}
        self._products = {}

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        s = self._sums.get((a, b))
        if s is None:
            p = self.p
            s = tuple((x + y) % p for x, y in zip(a, b))
            if self._tabled:
                self._sums[(a, b)] = s
        return s

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        s = self._products.get((a, b))
        if s is None:
            s = self.poly_mul(a, b)
            if self._tabled:
                self._products[(a, b)] = s
        return s

    def axpy(self, acc, c, vec):
        zero, get, add, mul = self.zero(), acc.get, self.add, self.mul
        for k, v in vec.items():
            s = add(get(k, zero), mul(c, v))
            if s == zero:
                acc.pop(k, None)
            else:
                acc[k] = s
        return acc

    def poly_mul(self, a, b):
        """a * b by polynomial multiplication modulo the defining polynomial."""
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        # reduce degrees >= k using x^k = self._xk repeatedly
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j, r in enumerate(self._xk):
                    prod[d - k + j] = (prod[d - k + j] + c * r) % p
        return tuple(prod[:k])

    def inv(self, a):
        if all(c == 0 for c in a):
            raise NotInvertible("0 has no inverse")
        # a^(q-2) = a^(-1) in GF(q)
        return self.pow(a, self.size - 2)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def elements(self):
        p, k = self.p, self.k
        for code in range(self.size):
            c = code
            out = []
            for _ in range(k):
                out.append(c % p)
                c //= p
            yield tuple(out)

    def to_json(self, a):
        return list(a)

    def from_json(self, data):
        """The scalar of its list of exactly k integers, low degree first."""
        if type(data) is not list or len(data) != self.k or any(type(c) is not int for c in data):
            raise ValueError(f"expected a list of {self.k} integer coefficients")
        return tuple(c % self.p for c in data)

    def describe(self):
        return {"kind": "extension", "p": self.p, "k": self.k, "poly": list(self.poly)}

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.k == self.k
            and other.poly == self.poly
        )

    def __hash__(self):
        return hash(("ext", self.p, self.k, self.poly))


def _q_canon(x):
    """A Fraction in the canonical raw form: its numerator when integral."""
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    """The rationals.  A raw value is an ``int`` when it is integral and a
    reduced ``Fraction`` with denominator > 1 otherwise, so the common
    integral structure constants never pay for ``Fraction`` arithmetic.

    The operations accept either type for either argument and always return
    the canonical form.  An ``int`` and a ``Fraction`` of equal value compare
    equal and hash alike, so dict equality, sorting and ``to_str`` do not
    depend on which of the two a caller holds.
    """

    kind = "rationals"
    char = 0
    size = None

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        s = a + b
        return s if type(s) is int else _q_canon(s)

    def sub(self, a, b):
        s = a - b
        return s if type(s) is int else _q_canon(s)

    def mul(self, a, b):
        s = a * b
        return s if type(s) is int else _q_canon(s)

    def axpy(self, acc, c, vec):
        get = acc.get
        for k, v in vec.items():
            s = get(k, 0) + c * v
            if type(s) is not int:
                s = _q_canon(s)
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return acc

    def neg(self, a):
        s = -a
        return s if type(s) is int else _q_canon(s)

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        if a == 1 or a == -1:
            return int(a)
        from fractions import Fraction
        return _q_canon(Fraction(1) / a)

    def from_int(self, n):
        return n

    def elements(self):
        raise NotInvertible("the rationals are infinite")

    def to_str(self, a):
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def from_str(self, s):
        if "/" in s:
            num, den = s.split("/")
            if int(den) == 0:
                raise ValueError(f"zero denominator in {s!r}")
            from fractions import Fraction
            return _q_canon(Fraction(int(num), int(den)))
        return int(s)

    def describe(self):
        return {"kind": "rationals"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")


QQ = RationalField()

_field_cache: dict = {}

# The largest field order make_field accepts.  Building GF(p) trial-divides
# p up to sqrt(p), 10^9 divisions for a prime near 10^18, and GF(p^k) tries
# every root of its modulus; the tests use fields up to GF(101^3).
MAX_FIELD_SIZE = 2**31


def make_field(kind: str, **params) -> Field:
    """Build a validated field.

    ``make_field("prime", p=7)``, ``make_field("extension", p=2, k=2)`` with an
    optional ``poly`` (monic coefficient list, low degree first), or
    ``make_field("rationals")``.  A field of more than MAX_FIELD_SIZE
    elements raises BudgetExceeded before p is tested for primality; k is
    capped first, since p >= 2 makes p^bits too large, so a huge k forms no
    huge power.
    """
    if kind == "rationals":
        return QQ
    if kind not in ("prime", "extension"):
        raise ValueError(f"unknown field kind {kind!r}")
    p, k, poly = params["p"], params.get("k", 1), params.get("poly")
    if p > 1 and p ** min(k, MAX_FIELD_SIZE.bit_length()) > MAX_FIELD_SIZE:
        order = p if kind == "prime" else f"{p}^{k}"
        raise BudgetExceeded(f"field of order {order} is above the ceiling 2^31")
    key = (kind, p, k, tuple(poly) if poly else None)
    if key not in _field_cache:
        _field_cache[key] = PrimeField(p) if kind == "prime" else ExtensionField(p, k, poly)
    return _field_cache[key]


def parse_field_token(token: str) -> Field:
    """Compact field notation used by the CLI: ``q``, ``p7``, ``p2^3``.

    A token that names no supported field raises SchemaError."""
    t = token.strip().lower()
    if t in ("q", "qq", "rationals"):
        return QQ
    try:
        if t.startswith("p"):
            body = t[1:]
            if "^" in body:
                p_str, k_str = body.split("^")
                return make_field("extension", p=int(p_str), k=int(k_str))
            return make_field("prime", p=int(body))
    except (ValueError, NotPrime, ReduciblePolynomial) as exc:
        raise SchemaError(f"bad field token {token!r}: {exc}")
    raise SchemaError(f"cannot parse field token {token!r}")


def binomial(m: int, n: int, field: Field):
    """binom(m, n) reduced into the field, in raw form.

    In characteristic p this is computed digitwise in base p (Lucas), so large
    arguments stay cheap and the p-adic vanishing pattern is exact.
    """
    if n < 0 or n > m:
        return field.zero()
    if field.char == 0:
        return field.from_int(math.comb(m, n))
    p = field.char
    acc = 1
    mm, nn = m, n
    while mm or nn:
        md, nd = mm % p, nn % p
        if nd > md:
            return field.zero()
        acc = (acc * math.comb(md, nd)) % p
        mm //= p
        nn //= p
    return field.from_int(acc)


def factorial_unit(n: int, field: Field):
    """The unit n! and its inverse, in raw form, for 0 <= n < char(field)."""
    if field.char == 0:
        raise CharZero("factorial_unit requires positive characteristic")
    if n >= field.char:
        raise NotInvertible(f"{n}! vanishes in characteristic {field.char}")
    val = field.one()
    for i in range(2, n + 1):
        val = field.mul(val, field.from_int(i))
    return val, field.inv(val)
