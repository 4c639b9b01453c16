"""Coefficient field arithmetic and the serialization grammar."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import qv
from mirabolic.qv import (LP_ONE, LP_ZERO, RF_ONE, RF_ZERO, LaurentPolynomial,
                          RationalFunction, format_coeff,
                          lagrange_interpolate, lp_v_power, parse_coeff,
                          quantum_factorial, quantum_integer, rf_const,
                          rf_laurent, substitute_q, v_power)


def test_laurent_basics():
    a = lp_v_power(2) + lp_v_power(-2)
    b = lp_v_power(1)
    assert a * b == lp_v_power(3) + lp_v_power(-1)
    assert a - a == LP_ZERO
    assert LP_ONE * a == a
    assert (a * a).c[0] == 2


def test_products_store_integral_coefficients_as_ints():
    half = LaurentPolynomial({1: Fraction(1, 2), 0: Fraction(1, 2)})
    two = LaurentPolynomial({1: 2, 0: 2})
    for p in (half * two, two * half, half * LaurentPolynomial({3: 2})):
        assert all(type(c) is int for c in p.c.values()), p


def test_rational_field_axioms():
    x = quantum_integer(3)
    y = v_power(2) - rf_const(1)
    z = quantum_integer(2) / y
    assert (x + y) * z == x * z + y * z
    assert x / x == RF_ONE
    assert x - x == RF_ZERO
    assert -(-z) == z
    assert (x / y) * y == x


def test_quantum_integers():
    # [m] = v^{m-1} + v^{m-3} + ... + v^{1-m}
    assert quantum_integer(1) == RF_ONE
    assert quantum_integer(2) == v_power(1) + v_power(-1)
    assert quantum_integer(3) == v_power(2) + rf_const(1) + v_power(-2)
    assert quantum_integer(0) == RF_ZERO
    assert quantum_integer(-2) == -quantum_integer(2)
    assert quantum_factorial(3) == quantum_integer(3) * quantum_integer(2)


@pytest.mark.parametrize("text", [
    "0",
    "1",
    "-1",
    "v^2-v^-2",
    "2*v^3",
    "(v^3+v+v^-1)/(v^2-1)",
    "-1/2*v",
])
def test_grammar_round_trip(text):
    assert format_coeff(parse_coeff(text)) == text


@pytest.mark.parametrize("text", [
    # denominators that are units reduce away; printing is canonical
    "(v^2-2+v^-2)/(v^3-v)",
    "(v^4+1)/(2*v^2)",
])
def test_grammar_canonicalizes(text):
    x = parse_coeff(text)
    assert parse_coeff(format_coeff(x)) == x
    assert format_coeff(parse_coeff(format_coeff(x))) == format_coeff(x)


def test_round_trip_random_values():
    vals = [quantum_integer(5) / quantum_integer(2),
            (v_power(2) - rf_const(1)) / (v_power(3) + v_power(-3)),
            rf_const(Fraction(3, 7)) * v_power(-4) + RF_ONE]
    for x in vals:
        assert parse_coeff(format_coeff(x)) == x


def test_canonical_denominator():
    # same value, differently built: canonical form must coincide
    a = quantum_integer(2) / (v_power(1) * quantum_integer(2))
    b = v_power(-1)
    assert a == b
    assert format_coeff(a) == format_coeff(b) == "v^-1"


def test_interpolation():
    pts = [(q, 2 * q * q - q + 3) for q in (2, 3, 5, 7)]
    assert lagrange_interpolate(pts, 3) == [3, -1, 2]
    with pytest.raises(ValueError):
        lagrange_interpolate([(2, 1), (3, 2), (5, 100)], 1)


def _newton_fit(points, degree_bound):
    """Reference: Newton's divided differences in Fractions on the first
    degree_bound + 1 points, every point checked, integral coefficients
    required; None wherever lagrange_interpolate must raise ValueError."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    k = degree_bound + 1
    if len(points) < k or len(set(xs)) != len(xs):
        return None
    coef = list(ys[:k])
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * k
    for j in range(k - 1, -1, -1):
        # poly <- poly * (x - xs[j]) + coef[j]
        new = [Fraction(0)] * k
        for i in range(k - 1):
            new[i + 1] += poly[i]
            new[i] -= poly[i] * xs[j]
        new[0] += coef[j]
        poly = new
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    for x, y in zip(xs, ys):
        if sum(c * x ** i for i, c in enumerate(poly)) != y:
            return None
    if any(c.denominator != 1 for c in poly):
        return None
    return [int(c) for c in poly]


def _fit(points, degree_bound):
    try:
        return lagrange_interpolate(points, degree_bound)
    except ValueError:
        return None


PRIMES10 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
INTERP = settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
RATS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _value(poly, x):
    return sum(c * x ** i for i, c in enumerate(poly))


@INTERP
@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=10),
       st.integers(0, 9))
def test_interpolation_recovers_integer_polynomials(poly, extra):
    # the oracle's case: degree <= 9 at the first 10 primes, plus points
    # beyond the first 10 that are checked against the fit
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    nodes = PRIMES10 + (31, 37, 41, 43, 47, 53, 59, 61, 67)[:extra]
    pts = [(p, _value(poly, p)) for p in nodes]
    assert lagrange_interpolate(pts, 9) == poly == _newton_fit(pts, 9)
    # a wrong value anywhere is a point the fit misses, or a non-integral fit
    i = extra % len(pts)
    bad = pts[:i] + [(pts[i][0], pts[i][1] + 1)] + pts[i + 1:]
    assert _fit(bad, 9) is None and _newton_fit(bad, 9) is None


@INTERP
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=5),
       st.lists(RATS, min_size=1, max_size=8, unique=True),
       st.integers(0, 4))
def test_interpolation_rational_nodes(poly, nodes, degree_bound):
    # rational nodes with exact rational values of an integer polynomial
    pts = [(x, _value(poly, x)) for x in nodes]
    assert _fit(pts, degree_bound) == _newton_fit(pts, degree_bound)


@INTERP
@given(st.lists(st.tuples(RATS, RATS), min_size=1, max_size=7),
       st.integers(0, 5))
def test_interpolation_rational_data(pts, degree_bound):
    # arbitrary rational data, repeated nodes included: the same verdict
    assert _fit(pts, degree_bound) == _newton_fit(pts, degree_bound)


def test_interpolation_errors():
    with pytest.raises(ValueError, match="need 3 points"):
        lagrange_interpolate([(2, 1), (3, 1)], 2)
    with pytest.raises(ValueError, match="distinct"):
        lagrange_interpolate([(2, 1), (3, 1), (Fraction(4, 2), 1)], 1)
    with pytest.raises(ValueError, match="fails at q = 5"):
        lagrange_interpolate([(2, 4), (3, 9), (5, 26)], 1)
    with pytest.raises(ValueError, match="non-integral"):
        lagrange_interpolate([(2, 0), (4, 1)], 1)
    with pytest.raises(ValueError, match="nonnegative"):
        lagrange_interpolate([(2, 0)], -1)


def test_integer_fit_equals_fraction_fit():
    # seeded integer polynomials of degree <= 9 at primes: integer data
    # makes no Fraction, the same points given as Fractions must fit alike
    rng = random.Random(31)
    primes = PRIMES10 + (31, 37, 41)
    for _ in range(200):
        poly = [rng.randint(-10 ** 9, 10 ** 9)
                for _ in range(rng.randint(1, 10))]
        bound = rng.randint(len(poly) - 1, 9)
        pts = [(p, _value(poly, p)) for p in primes[:bound + 2]]
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        as_fractions = [(Fraction(x), Fraction(y)) for x, y in pts]
        assert lagrange_interpolate(pts, bound) == poly == \
            lagrange_interpolate(as_fractions, bound)


@pytest.mark.parametrize("points, bound, message", [
    ([(2, 0), (4, 1)], 1, "non-integral"),
    ([(2, 1), (3, 1), (2, 1)], 1, "distinct"),
    ([(2, 1), (3, 1)], 2, "need 3 points"),
])
def test_int_and_fraction_data_raise_alike(points, bound, message):
    as_fractions = [(Fraction(x), Fraction(y)) for x, y in points]
    for pts in (points, as_fractions):
        with pytest.raises(ValueError, match=message):
            lagrange_interpolate(pts, bound)


def test_substitute_q():
    # q |-> v^2 on integer polynomial coefficients
    assert substitute_q([0, 1]) == v_power(2)
    assert substitute_q([3, -1, 2]) == \
        rf_const(3) - v_power(2) + rf_const(2) * v_power(4)
    assert substitute_q([]) == RF_ZERO


def test_hashable():
    d = {quantum_integer(2): "two", v_power(0): "one"}
    assert d[v_power(1) + v_power(-1)] == "two"
    assert d[RF_ONE] == "one"


def test_floats_are_refused():
    # only ints and Fractions enter Q(v): no floats, and no bools
    for build in (lambda: rf_const(0.1),
                  lambda: RF_ONE + 0.5,
                  lambda: LaurentPolynomial({0: 0.1}),
                  lambda: RationalFunction({0: 0.5}),
                  lambda: rf_laurent({1: 0.25}),
                  lambda: RationalFunction({0: True, 2: 1}),
                  lambda: LaurentPolynomial({1: False}),
                  lambda: rf_const(True),
                  lambda: RF_ONE * True):
        with pytest.raises(TypeError):
            build()
    assert RF_ONE != True  # noqa: E712


FIELD = settings(max_examples=80, deadline=None, database=None,
                 derandomize=True)
SMALL_RATS = st.fractions(min_value=-6, max_value=6, max_denominator=3)
LAURENT = st.dictionaries(st.integers(-3, 3), SMALL_RATS.filter(bool),
                          min_size=1, max_size=3).map(LaurentPolynomial)
# a unit c v^a, the shape every fast path looks for
MONOMIAL = st.builds(lambda a, c: LaurentPolynomial({a: c}),
                     st.integers(-3, 3), SMALL_RATS.filter(bool))
ELEMENTS = st.one_of(
    st.builds(RationalFunction, MONOMIAL),
    st.builds(RationalFunction, MONOMIAL, LAURENT),
    st.builds(RationalFunction, LAURENT, MONOMIAL),
    st.builds(RationalFunction, LAURENT, LAURENT),
    st.just(RF_ZERO))


def _pair(x):
    """(num, den) with the type of every coefficient, so that an int and
    an equal Fraction tell apart."""
    return tuple(sorted((k, type(c), c) for k, c in p.c.items())
                 for p in (x.num, x.den))


def _reduced(x):
    """x's pair reduced afresh, with the memo of the gcd path bypassed."""
    if len(x.den.c) > 1 and x.num:
        n, d = qv._rf_reduce.__wrapped__(x.num, x.den)
    else:
        n, d = qv._rf_canonical(x.num, x.den)
    return RationalFunction._raw(n, d)


def _assert_canonical(x):
    assert _pair(x) == _pair(_reduced(x))
    assert _pair(parse_coeff(format_coeff(x))) == _pair(x)


def _ratio(a, b):
    return RationalFunction(quantum_integer(a).num, quantum_integer(b).num)


V2M1 = LaurentPolynomial({2: 1, 0: -1})
Y = RationalFunction(LaurentPolynomial({1: Fraction(1, 2)}), V2M1)


@pytest.mark.parametrize("build, text", [
    # products cancel across the two fractions
    (lambda: _ratio(2, 3) * _ratio(3, 2), "1"),
    (lambda: _ratio(4, 3) * _ratio(3, 2), "v^2+v^-2"),
    (lambda: _ratio(3, 2) * _ratio(4, 3), "v^2+v^-2"),
    (lambda: RationalFunction(1, V2M1)
     * RationalFunction(V2M1, LaurentPolynomial({2: 1, 0: 1})),
     "(1)/(v^2+1)"),
    # a factor 1 returns the other operand, typed pair and all
    (lambda: RF_ONE * Y, "(1/2*v)/(v^2-1)"),
    (lambda: Y * 1, "(1/2*v)/(v^2-1)"),
    # sums over the unit denominator 1, in both orders
    (lambda: quantum_integer(2) + Y, "(v^3+1/2*v-v^-1)/(v^2-1)"),
    (lambda: Y + quantum_integer(2), "(v^3+1/2*v-v^-1)/(v^2-1)"),
    (lambda: Y - v_power(2) + RF_ONE, "(-v^4+2*v^2+1/2*v-1)/(v^2-1)"),
    # no denominator is 1 here: the general path
    (lambda: RationalFunction(1, LaurentPolynomial({1: 1, 0: -1}))
     + RationalFunction(1, LaurentPolynomial({1: 1, 0: 1})),
     "(2*v)/(v^2-1)"),
    # one numerator over two denominators: the memo keys on both
    (lambda: RationalFunction(V2M1, LaurentPolynomial({1: 1, 0: 1}))
     * RationalFunction(V2M1, LaurentPolynomial({1: 1, 0: -1})), "v^2-1"),
], ids=["[2]/[3]*[3]/[2]", "[4]/[3]*[3]/[2]", "[3]/[2]*[4]/[3]",
        "1/(v^2-1)*(v^2-1)/(v^2+1)", "1*y", "y*1", "[2]+y", "y+[2]",
        "y-v^2+1", "1/(v-1)+1/(v+1)", "one-numerator-two-denominators"])
def test_cross_cancelling_cases(build, text):
    x = build()
    assert format_coeff(x) == text
    _assert_canonical(x)


def test_memo_holds_pairs_of_at_most_512_terms():
    info = qv._rf_reduce.cache_info
    v_plus_1 = LaurentPolynomial({1: 1, 0: 1})
    calls = info().hits + info().misses
    # (v^600 - 1)/(v - 1) over v + 1, 602 terms, is (v^600 - 1)/(v^2 - 1)
    x = RationalFunction(LaurentPolynomial({i: 1 for i in range(600)}),
                         v_plus_1)
    assert info().hits + info().misses == calls
    assert x == rf_laurent({2 * j: 1 for j in range(300)})
    RationalFunction(LaurentPolynomial({i: 1 for i in range(510)}), v_plus_1)
    assert info().hits + info().misses == calls + 1


@FIELD
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_field_axioms_keep_canonical_pairs(x, y, z):
    results = [x + y, (x + y) + z, x + (y + z), x * y, y * x, (x * y) * z,
               x * (y * z), x * (y + z), x * y + x * z, x - x, -x]
    assert results[1] == results[2]
    assert results[3] == results[4]
    assert results[5] == results[6]
    assert results[7] == results[8]
    assert results[9] == RF_ZERO
    if x:
        results += [x.inverse(), x * x.inverse(), y / x, (y / x) * x]
        assert results[-3] == RF_ONE
        assert results[-1] == y
    for r in results:
        _assert_canonical(r)


@FIELD
@given(LAURENT, MONOMIAL)
def test_unit_denominator_agrees_with_the_gcd_path(num, unit):
    # a common factor 1 + v makes the denominator a non-unit, so the
    # second form is reduced by the polynomial gcd
    p = LaurentPolynomial({0: 1, 1: 1})
    assert _pair(RationalFunction(num, unit)) == \
        _pair(RationalFunction(num * p, unit * p))
    assert _pair(RationalFunction(unit).inverse()) == \
        _pair(RationalFunction(LaurentPolynomial({0: 1}) * p, unit * p))


def test_mixed_operands_coerce_or_are_refused():
    # ints and Fractions are read as constants on either side; strings,
    # bools and floats are not Q(v) elements
    half = rf_const(Fraction(1, 2))
    assert RF_ONE == 1 and 1 == RF_ONE
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half + 1 == rf_const(Fraction(3, 2)) == 1 + half
    assert 2 * half == RF_ONE == half * 2
    x = v_power(1)
    assert (x == "v") is False and x != "v"
    for build in (lambda: x * "v", lambda: x + "v", lambda: "v" * x,
                  lambda: x + True, lambda: False * x, lambda: x * 1.0,
                  lambda: 0.5 + x):
        with pytest.raises(TypeError):
            build()
    assert x != 1.0 and x != True  # noqa: E712


def test_equal_values_by_different_routes_hash_equal():
    routes = [quantum_integer(2), v_power(1) + v_power(-1),
              parse_coeff("v+v^-1"),
              (v_power(2) - v_power(-2)) / (v_power(1) - v_power(-1)),
              RationalFunction(LaurentPolynomial({2: 1, 0: 1}),
                               LaurentPolynomial({1: 1}))]
    assert all(r == routes[0] for r in routes)
    assert len({hash(r) for r in routes}) == 1


class _Routed(RationalFunction):
    """A RationalFunction that is not of the exact type, so an operator
    handed one as its right operand takes the `_coerce_rf` route."""

    __slots__ = ()


def _routed(x):
    out = _Routed.__new__(_Routed)
    out.num, out.den, out._hash = x.num, x.den, None
    return out


@FIELD
@given(ELEMENTS, ELEMENTS)
def test_same_type_operators_match_the_coerced_route(x, y):
    for op in (RationalFunction.__add__, RationalFunction.__mul__):
        assert _pair(op(x, y)) == _pair(op(x, _routed(y)))
    want = x.num == y.num and x.den == y.den
    assert RationalFunction.__eq__(x, y) is want
    assert RationalFunction.__eq__(x, _routed(y)) is want


OP_MEMOS = ("_memo_sum", "_memo_product", "_memo_neg", "_intern")
# operands of every shape the memos meet: zero, +-1, Fraction coefficients
# and quantum-integer denominators
SMALL = st.one_of(
    st.sampled_from([RF_ZERO, RF_ONE, -RF_ONE]), ELEMENTS,
    st.builds(lambda x, m: x / quantum_integer(m), ELEMENTS,
              st.integers(2, 4)))


def _unmemoised(op, *xs):
    """op(*xs) with no operation memo on its path."""
    bound, qv._OP_MEMO_TERMS = qv._OP_MEMO_TERMS, -1
    try:
        return op(*xs)
    finally:
        qv._OP_MEMO_TERMS = bound


@FIELD
@given(SMALL, SMALL)
def test_memoised_operations_keep_the_typed_pairs(x, y):
    for op, xs in ((lambda a, b: a + b, (x, y)), (lambda a, b: a * b, (x, y)),
                   (lambda a: -a, (x,))):
        first, again = op(*xs), op(*xs)
        want = _unmemoised(op, *xs)
        assert _pair(first) == _pair(again) == _pair(want)
        _assert_canonical(first)
        # a coefficient is a Fraction only when it is not integral
        assert all(type(c) is int or c.denominator > 1
                   for p in (first.num, first.den) for c in p.c.values())


def test_equal_memoised_results_are_one_object():
    q2, q3 = quantum_integer(2), quantum_integer(3)
    assert q2 * q3 is q3 * q2
    assert Y * q2 is q2 * Y
    assert (Y + q2) - q2 is Y + RF_ZERO
    assert -(-Y) is -(-(-(-Y)))
    # equal but not shared: == falls back to the pairs
    fresh = RationalFunction._raw(Y.num, Y.den)
    assert fresh is not Y and fresh == Y


def test_operands_over_the_term_bound_skip_every_memo():
    big = RationalFunction(LaurentPolynomial({i: 1 for i in range(16)}),
                           LaurentPolynomial({3: 1, 0: 2}))
    other = RationalFunction(LaurentPolynomial({i: i for i in range(1, 4)}),
                             LaurentPolynomial({2: 1, 0: 1}))
    assert len(big.num.c) + len(big.den.c) > qv._OP_MEMO_TERMS
    sizes = [getattr(qv, m).cache_info().currsize for m in OP_MEMOS]
    for x in (big + other, other + big, big * other, other * big,
              big - big, -big, big * -1):
        _assert_canonical(x)
    assert [getattr(qv, m).cache_info().currsize for m in OP_MEMOS] == sizes
    # a small operation does go through the memo
    calls = qv._memo_product.cache_info()
    other * other
    after = qv._memo_product.cache_info()
    assert after.hits + after.misses == calls.hits + calls.misses + 1


def test_product_by_minus_one_is_the_negation():
    for x in (Y, quantum_integer(3), v_power(2), -Y):
        assert -RF_ONE * x is -x
        assert x * -1 is -x
    assert -RF_ONE * RF_ONE is -RF_ONE
    big = rf_laurent({i: 1 for i in range(20)})
    assert _pair(-RF_ONE * big) == _pair(-big)
    assert RF_ZERO * -1 == RF_ZERO
