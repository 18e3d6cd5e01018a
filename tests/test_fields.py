import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schemedouble.errors import CharZero, NotInvertible, NotPrime, ReduciblePolynomial
from schemedouble.fields import (
    QQ,
    binomial,
    builtin_irreducible,
    factorial_unit,
    make_field,
    parse_field_token,
)


def all_fields_up_to_49():
    out = [make_field("prime", p=p) for p in (2, 3, 5, 7)]
    for p, k in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)):
        out.append(make_field("extension", p=p, k=k))
    return [F for F in out if F.size <= 49]


@pytest.mark.parametrize("F", all_fields_up_to_49(), ids=lambda F: repr(F))
def test_field_axioms_exhaustive(F):
    elems = list(F.elements())
    zero, one = F.zero(), F.one()
    for a in elems:
        assert F.add(a, zero) == a
        assert F.mul(a, one) == a
        assert F.add(a, F.neg(a)) == zero
        if a != zero:
            assert F.mul(a, F.inv(a)) == one
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    # associativity and distributivity on a full triple sweep for small q
    if F.size <= 9:
        for a in elems:
            for b in elems:
                for c in elems:
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_make_field_rejects_non_prime():
    with pytest.raises(NotPrime):
        make_field("prime", p=6)


def test_make_field_rejects_reducible_polynomial():
    # x^2 - 1 = (x-1)(x+1) over GF(3)
    with pytest.raises(ReduciblePolynomial):
        make_field("extension", p=3, k=2, poly=[2, 0, 1])


def test_builtin_irreducibles_cover_supported_range():
    for p in (2, 3, 5, 7):
        for k in (2, 3):
            poly = builtin_irreducible(p, k)
            assert len(poly) == k + 1 and poly[-1] == 1
            F = make_field("extension", p=p, k=k, poly=list(poly))
            assert F.size == p**k


def test_f7_multiplicative_group_cyclic_of_order_six():
    F = make_field("prime", p=7)
    orders = []
    for a in range(1, 7):
        x, n = a, 1
        while x != 1:
            x = (x * a) % 7
            n += 1
        orders.append(n)
    assert max(orders) == 6
    assert all(6 % n == 0 for n in orders)


def test_rationals_char_zero():
    assert QQ.char == 0
    assert QQ.from_str("3/6") == QQ.from_str("1/2")


# Mixed raw inputs: canonical ints, reduced Fractions, and integral
# Fractions, which are not canonical but must be accepted.
RATIONALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=60),
    st.integers(-60, 60).map(Fraction),
)


def assert_canonical(x, expected):
    """x equals expected and is an int exactly when it is integral."""
    assert type(x) in (int, Fraction)
    assert x == expected
    assert (type(x) is int) == (Fraction(x).denominator == 1)


def test_rational_constants_are_ints():
    for x in (QQ.zero(), QQ.one(), QQ.from_int(-4), QQ.from_str("4/2"), QQ.from_str("-7")):
        assert type(x) is int
    assert QQ.from_str("4/2") == 2 and QQ.from_str("6/-4") == Fraction(-3, 2)
    with pytest.raises(ValueError):
        QQ.from_str("1/0")


@given(RATIONALS, RATIONALS)
def test_rational_arithmetic_agrees_with_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_canonical(QQ.add(a, b), fa + fb)
    assert_canonical(QQ.sub(a, b), fa - fb)
    assert_canonical(QQ.mul(a, b), fa * fb)
    assert_canonical(QQ.neg(a), -fa)
    if fb:
        assert_canonical(QQ.inv(b), 1 / fb)
        assert_canonical(QQ.div(a, b), fa / fb)
    else:
        with pytest.raises(NotInvertible):
            QQ.inv(b)


@given(RATIONALS)
def test_rational_strings_round_trip(x):
    s = QQ.to_str(x)
    assert s == QQ.to_str(Fraction(x))
    y = QQ.from_str(s)
    assert_canonical(y, x)
    assert QQ.to_str(y) == s


def test_binomial_trivial_cases():
    F2 = make_field("prime", p=2)
    assert binomial(2, 1, F2) == 0
    assert binomial(4, 2, QQ) == 6
    assert binomial(3, 5, QQ) == 0


def pascal_table(limit):
    table = [[1]]
    for m in range(1, limit):
        prev = table[-1]
        row = [1] + [prev[i - 1] + prev[i] for i in range(1, m)] + [1]
        table.append(row)
    return table


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_matches_pascal_oracle(p):
    F = make_field("prime", p=p)
    limit = p * p
    table = pascal_table(limit)
    for m in range(limit):
        for n in range(limit):
            expect = (table[m][n] if n <= m else 0) % p
            assert binomial(m, n, F) == expect


@pytest.mark.parametrize("p", [3, 5])
def test_lucas_digit_identity(p):
    # binom(r + p s, r + p i) = binom(s, i) mod p for 0 <= r < p
    F = make_field("prime", p=p)
    for r in range(p):
        for s in range(p):
            for i in range(p):
                lhs = binomial(r + p * s, r + p * i, F)
                rhs = binomial(s, i, F)
                assert lhs == rhs


def test_factorial_unit_values():
    F5 = make_field("prime", p=5)
    val, inv = factorial_unit(0, F5)
    assert val == 1 and inv == 1
    val, inv = factorial_unit(3, F5)
    assert val == 1  # 6 mod 5
    with pytest.raises(NotInvertible):
        factorial_unit(5, F5)
    with pytest.raises(CharZero):
        factorial_unit(2, QQ)


@pytest.mark.parametrize("p", [3, 5])
def test_wilson_products(p):
    F = make_field("prime", p=p)
    prod = 1
    for i in range(1, p):
        prod = (prod * i) % p
    val, _ = factorial_unit(p - 1, F)
    assert val == prod == p - 1


def test_parse_field_token():
    assert parse_field_token("q") is QQ
    assert parse_field_token("p7").char == 7
    assert parse_field_token("p2^2").size == 4


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (3, 3)],
                         ids=["GF4", "GF8", "GF9", "GF27"])
def test_extension_tables_equal_the_polynomial_arithmetic(p, k):
    """add and mul, read from the per-field tables, equal the coefficientwise
    sum and the polynomial product modulo the defining polynomial on every
    pair, also when a table entry is read a second time."""
    F = make_field("extension", p=p, k=k)
    elems = list(F.elements())
    for _ in range(2):
        for a in elems:
            for b in elems:
                assert F.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
                assert F.mul(a, b) == F.poly_mul(a, b)
    assert len(F._products) == len(F._sums) == len(elems) ** 2


def test_extension_tables_are_kept_only_for_small_fields():
    """GF(49), below the size bound, tables the pairs met, never more than
    its size squared (the field object is shared); GF(125) and
    GF(101^3), above it, keep no table and still compute exactly."""
    F = parse_field_token("p7^2")
    assert F.size <= F.TABLE_MAX_SIZE
    a, b = (3, 5), (6, 2)
    assert F.mul(a, b) == F.poly_mul(a, b)
    assert (a, b) in F._products and len(F._products) <= F.size ** 2
    for token, a, b in (("p5^3", (1, 2, 3), (4, 0, 1)),
                        ("p101^3", (3, 5, 7), (100, 0, 2))):
        F = parse_field_token(token)
        assert F.size > F.TABLE_MAX_SIZE
        assert F.mul(F.mul(a, b), F.inv(b)) == a
        assert F.mul(a, b) == F.poly_mul(a, b)
        assert F.add(a, b) == tuple((x + y) % F.p for x, y in zip(a, b))
        assert F.axpy({0: a}, b, {0: a, 1: b}) == {0: F.add(a, F.mul(b, a)),
                                                  1: F.mul(b, b)}
        assert F._products == F._sums == {}


def _random_vec(F, rng, n=12):
    if F.size is None:
        values = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
        values = [int(v) if v.denominator == 1 else v for v in values]
    else:
        elems = list(F.elements())
        values = [rng.choice(elems) for _ in range(n)]
    return {i: v for i, v in enumerate(values) if v != F.zero()}


@pytest.mark.parametrize("F", [make_field("prime", p=2), make_field("prime", p=7),
                               make_field("extension", p=3, k=2),
                               make_field("extension", p=5, k=3), QQ],
                         ids=["GF2", "GF7", "GF9", "GF125", "Q"])
def test_axpy_equals_the_add_mul_loop(F):
    """F.axpy gives the same dict, keys in the same order and zero entries
    dropped, as acc[k] = add(acc[k], mul(c, v)) entry by entry, on random
    vectors whose sums cancel in places, and keeps rationals canonical."""
    from oracles import field_axpy_loop

    rng = random.Random(17)
    cancelled = 0
    for _ in range(200):
        acc, vec = _random_vec(F, rng), _random_vec(F, rng)
        c = rng.choice([v for v in vec.values()] + [F.one(), F.neg(F.one())])
        expected = field_axpy_loop(F, dict(acc), c, vec)
        got = F.axpy(dict(acc), c, vec)
        assert list(got.items()) == list(expected.items())
        if F is QQ:
            assert all(type(v) is int or v.denominator > 1 for v in got.values())
        cancelled += len(got) < len(acc.keys() | vec.keys())
    assert cancelled > 0
