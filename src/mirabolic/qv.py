"""Exact arithmetic in Q(v), the field of rational functions in one variable.

All coefficients in the package live here.  A LaurentPolynomial is a sparse
map from integer exponents to rational coefficients, so elements such as
v^-3 + 2 + v^5 are first class.  A RationalFunction is a quotient of Laurent
polynomials kept in a canonical form, which makes structural equality agree
with equality in the field.

Quantum integers use the balanced convention

    [m] = (v^m - v^-m) / (v - v^-1) = v^(m-1) + v^(m-3) + ... + v^(1-m),

and the one-sided convention [m]_q = (q^m - 1)/(q - 1) = 1 + q + ... + q^(m-1)
is available for counting arguments; the two are related through q = v^2 by
[m]_q |_{q=v^2} = v^(m-1) [m].

>>> quantum_integer(3) == parse_coeff("v^2+1+v^-2")
True
>>> parse_coeff("v^2-v^-2") / parse_coeff("v-v^-1")
RationalFunction(v+v^-1)
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul


def _norm_rat(x):
    """Coerce to int when integral, Fraction otherwise; assumes x rational."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator == 1:
        return f.numerator
    return f


def _exact(x):
    """_norm_rat of an int (not a bool) or a Fraction; TypeError otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot read {x!r} as an exact constant")
    return _norm_rat(x)


class LaurentPolynomial:
    """Sparse Laurent polynomial over Q: dict {exponent: coefficient}.

    Coefficients must be ints or Fractions (never floats or bools).  Zero
    coefficients are never stored, and integral coefficients are stored as
    plain ints, so two equal polynomials always have identical dicts.

    Instances are read-only: nothing writes `c` after construction.  The
    memo of `_rf_reduce` keys on them and hands the same reduced instances
    to every caller, so they are shared freely.
    """

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, val in coeffs.items():
                val = _exact(val)
                if val:
                    c[int(k)] = val
        self.c = c
        self._hash = None

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.c.items()))
        return self._hash

    @staticmethod
    def _raw(c):
        """A polynomial over the dict c, which must already be normalised."""
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.c = c
        out._hash = None
        return out

    def __neg__(self):
        return LaurentPolynomial._raw({k: -v for k, v in self.c.items()})

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        c = dict(a)
        for k, val in b.items():
            s = c.get(k, 0) + val
            if s:
                c[k] = _norm_rat(s)
            else:
                c.pop(k, None)
        return LaurentPolynomial._raw(c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.c, other.c
        if not a or not b:
            return LP_ZERO
        if len(a) == 1 or len(b) == 1:
            (k, r), = (a if len(a) == 1 else b).items()
            return (other if len(a) == 1 else self).shift(k, r)
        c = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                s = c.get(k, 0) + v1 * v2
                if s:
                    c[k] = s
                else:
                    del c[k]
        if not all(type(v) is int for v in c.values()):
            c = {k: _norm_rat(v) for k, v in c.items()}
        return LaurentPolynomial._raw(c)

    def shift(self, n, r=1):
        """self * r v^n for a nonzero rational r."""
        if r == 1:
            return LaurentPolynomial._raw(
                {k + n: v for k, v in self.c.items()}) if n else self
        return LaurentPolynomial._raw({k + n: _norm_rat(v * r)
                                       for k, v in self.c.items()})

    def __repr__(self):
        return f"LaurentPolynomial({_format_laurent(self)})"


LP_ZERO = LaurentPolynomial()
LP_ONE = LaurentPolynomial({0: 1})
_ONE, _MINUS_ONE = LP_ONE.c, {0: -1}    # x.c == _ONE tests x == 1 cheaply


def lp_v_power(n):
    return LaurentPolynomial._raw({int(n): 1})


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense lists, index = degree, trimmed, used only
# inside RationalFunction normalisation).
# ---------------------------------------------------------------------------

def _ip_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ip_primitive(a):
    """Divide by the gcd of the coefficients; sign is preserved."""
    g = gcd(*a)
    if g > 1:
        a = [x // g for x in a]
    return a


def _ip_prem(a, b):
    """Pseudo-remainder of a by b (both trimmed, b nonzero)."""
    a = list(a)
    lb = b[-1]
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1]
        if lb != 1:
            a = [x * lb for x in a]
        for i in range(db + 1):
            a[da - db + i] -= la * b[i]
        _ip_trim(a)
    return a


def _ip_gcd(a, b):
    """Gcd of primitive integer polynomials, primitive with positive lead."""
    a = _ip_primitive(_ip_trim(list(a)))
    b = _ip_primitive(_ip_trim(list(b)))
    while b:
        a, b = b, _ip_primitive(_ip_prem(a, b))
    if a and a[-1] < 0:
        a = [-x for x in a]
    return a if a else [1]


def _ip_exact_div(a, g):
    """Exact quotient a / g over Z (raises if the division is not exact).

    When the quotient is integral, every leading coefficient met by the
    top-down elimination is divisible by g's leading coefficient, so the
    whole computation stays in int arithmetic.
    """
    a = list(a)
    q = [0] * (len(a) - len(g) + 1)
    lg = g[-1]
    for i in range(len(q) - 1, -1, -1):
        top = a[i + len(g) - 1]
        coef, rem = divmod(top, lg)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[i] = coef
        if coef:
            for j, gj in enumerate(g):
                a[i + j] -= coef * gj
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def _laurent_to_int_poly(p):
    """Split a Laurent polynomial as g/den * v^shift * primitive int poly.

    Returns (g, den, shift, poly), all ints but the list poly.
    """
    shift = min(p.c)
    den = lcm(*(v.denominator for v in p.c.values()))
    coeffs = [0] * (max(p.c) - shift + 1)
    for k, v in p.c.items():
        coeffs[k - shift] = v.numerator * (den // v.denominator)
    g = gcd(*coeffs)
    return g, den, shift, [n // g for n in coeffs]


def _int_poly_to_laurent(coeffs, shift=0, p=1, q=1):
    """p/q v^shift times the int polynomial coeffs, for q > 0; a coefficient
    is a Fraction only when it is not integral."""
    return LaurentPolynomial._raw(
        {i + shift: p * c if q == 1 else _norm_rat(Fraction(p * c, q))
         for i, c in enumerate(coeffs) if c})


class RationalFunction:
    """Element of Q(v) in canonical form.

    Invariants: `den` is an ordinary polynomial in v (no negative exponents)
    with integer coefficients, nonzero constant term, positive leading
    coefficient and coprime coefficient gcd; `num` is a Laurent polynomial
    sharing no nonconstant factor with `den` (pure v-power factors are kept in
    the numerator).  Zero is 0/1.  Under these constraints the pair (num, den)
    is unique, so == on the pairs is equality in Q(v), and a denominator of
    one term is 1.

    Each (num, den) pair of up to 512 terms is reduced at most once per
    session while the memo holds it, and no gcd is taken where it is known
    to be 1 (Henrici's cross-cancellation; Knuth, TAOCP vol. 2, 4.5.1):

    - Memo: the gcd path of `_rf_canonical` (a denominator of two or more
      terms) is an lru_cache of at most _REDUCE_MEMO_SIZE = 4096 pairs,
      keyed on the two read-only Laurent polynomials.  A pair of more than
      _REDUCE_MEMO_TERMS = 512 terms is reduced without it, so the memo's
      memory stays bounded too.  It keeps contents and scalars as ints and
      makes a Fraction only for a coefficient that is not integral.
    - Hash-consing: a sum, product or negation whose operands hold at most
      _OP_MEMO_TERMS = 16 Laurent terms in all is memoised on its operands
      (an lru_cache of _OP_MEMO_SIZE = 4096 each), and its result is interned
      in one more such cache, so equal memoised values are one shared object
      and == tests identity first.  Larger operands, whose results are large
      too, skip both.  Cheaper than a lookup, so kept out: a zero or +-1
      factor (-1 returns the memoised negation) and a sum of two Laurent
      polynomials.
    - Products: a factor equal to 1 returns the other operand.  Otherwise
      (n1/d1)(n2/d2) reduces n1/d2 to a/b and n2/d1 to c/e and returns
      (ac)/(be) as it stands.  It is canonical: a | n1 and e | d1, c | n2 and
      b | d2, so gcd(a, e) = gcd(c, b) = 1 and ac, be are coprime; by Gauss's
      lemma be is primitive, with a positive leading coefficient and a
      nonzero constant term.  A monomial n1 (or d2 = 1) shares no factor
      with d2, so n1/d2 needs no reduction.
    - Sums over a unit: n1/1 + n2/d2 = (n1 d2 + n2)/d2 with no gcd, since
      gcd(n1 d2 + n2, d2) = gcd(n2, d2) = 1.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, RationalFunction):
            if den is not None:
                raise TypeError("unexpected denominator")
            self.num, self.den = num.num, num.den
            self._hash = None
            return
        num = _as_laurent(num)
        den = LP_ONE if den is None else _as_laurent(den)
        n, d = _rf_canonical(num, den)
        self.num, self.den = n, d
        self._hash = None

    @staticmethod
    def _raw(num, den):
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den, out._hash = num, den, None
        return out

    def __bool__(self):
        return bool(self.num.c)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not RationalFunction:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num.c == other.num.c and self.den.c == other.den.c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __neg__(self):
        if len(self.num.c) + len(self.den.c) > _OP_MEMO_TERMS:
            return RationalFunction._raw(-self.num, self.den)
        return _memo_neg(self)

    def __add__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        n1, d1, n2, d2 = self.num.c, self.den.c, other.num.c, other.den.c
        if len(d1) == 1 and len(d2) == 1:
            return RationalFunction._raw(self.num + other.num, LP_ONE)
        if len(n1) + len(d1) + len(n2) + len(d2) > _OP_MEMO_TERMS:
            return _sum(self, other)
        return _memo_sum(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        n1, d1, n2, d2 = self.num.c, self.den.c, other.num.c, other.den.c
        if not n1 or not n2:
            return RF_ZERO
        if len(d1) == 1 and (n1 == _ONE or n1 == _MINUS_ONE):
            return other if n1 == _ONE else -other
        if len(d2) == 1 and (n2 == _ONE or n2 == _MINUS_ONE):
            return self if n2 == _ONE else -self
        if len(n1) + len(d1) + len(n2) + len(d2) > _OP_MEMO_TERMS:
            return _product(self, other)
        return _memo_product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        if not self.num.c:
            raise ZeroDivisionError("division by zero in Q(v)")
        n, d = _rf_canonical(self.den, self.num)
        return RationalFunction._raw(n, d)

    def __repr__(self):
        return f"RationalFunction({format_coeff(self)})"


def _sum(x, y):
    """x + y, not both over the denominator 1."""
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if len(d1.c) == 1 or len(d2.c) == 1:   # a sum over a unit: canonical
        num, den = (n1 * d2 + n2, d2) if len(d1.c) == 1 else \
            (n1 + n2 * d1, d1)
        return RationalFunction._raw(num, den) if num.c else RF_ZERO
    if d1 is d2 or d1 == d2:
        num, den = n1 + n2, d1
    else:
        num, den = n1 * d2 + n2 * d1, d1 * d2
    if not num.c:
        return RF_ZERO
    return RationalFunction._raw(*_rf_canonical(num, den))


def _product(x, y):
    """x * y, both nonzero and neither of them +-1."""
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if len(d1.c) == 1 and len(d2.c) == 1:
        return RationalFunction._raw(n1 * n2, LP_ONE)
    a, b = (n1, d2) if len(n1.c) == 1 or len(d2.c) == 1 else \
        _rf_canonical(n1, d2)
    c, e = (n2, d1) if len(n2.c) == 1 or len(d1.c) == 1 else \
        _rf_canonical(n2, d1)
    return RationalFunction._raw(a * c, b * e)


def _as_laurent(x):
    if isinstance(x, LaurentPolynomial):
        return x
    if isinstance(x, dict):
        return LaurentPolynomial(x)
    if isinstance(x, (int, Fraction)):
        return LaurentPolynomial({0: x})
    raise TypeError(f"cannot interpret {x!r} as a Laurent polynomial")


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return rf_const(x)
    return NotImplemented


# bounds of the gcd-path memo.  Pairs: four times the 1,000 distinct pairs
# that one pbw-modules benchmark batch reduces.  Terms of a pair (num and
# den together): the products and sums of entries of the largest module the
# CLI accepts, n = 228, stay under 512 and repeat, whereas folding e^1200 f
# reduces 2,400 distinct sums, most of them larger, and holding them all
# took 145 MiB.
_REDUCE_MEMO_SIZE = 4096
_REDUCE_MEMO_TERMS = 512
# bounds of the operation memos and the intern table (see RationalFunction):
# one pbw-modules batch multiplies 3,695 distinct pairs and adds 1,797
_OP_MEMO_SIZE = 4096
_OP_MEMO_TERMS = 16


@lru_cache(maxsize=_OP_MEMO_SIZE)
def _intern(x):
    """The value equal to x that the operation memos share."""
    return x


def _memoised(op):
    """op memoised on its operands, with its results interned."""
    return lru_cache(maxsize=_OP_MEMO_SIZE)(lambda *xs: _intern(op(*xs)))


_memo_sum, _memo_product = _memoised(_sum), _memoised(_product)
_memo_neg = _memoised(lambda x: RationalFunction._raw(-x.num, x.den))


def _rf_canonical(num, den):
    """Reduce num/den to the canonical pair described on RationalFunction."""
    if not den.c:
        raise ZeroDivisionError("division by zero in Q(v)")
    if not num.c:
        return LP_ZERO, LP_ONE
    if len(den.c) == 1:     # a unit c v^a: the gcd path gives num v^-a / c
        (a, c), = den.c.items()
        return num.shift(-a, Fraction(1, c)), LP_ONE
    if len(num.c) + len(den.c) > _REDUCE_MEMO_TERMS:
        return _rf_reduce.__wrapped__(num, den)
    return _rf_reduce(num, den)


@lru_cache(maxsize=_REDUCE_MEMO_SIZE)
def _rf_reduce(num, den):
    """The gcd path of _rf_canonical: num nonzero, den of two or more terms.

    The memo hands the same reduced pair to every caller; that is safe
    because Laurent polynomials are read-only.
    """
    gn, dn, sn, pn = _laurent_to_int_poly(num)
    gd, dd, sd, pd = _laurent_to_int_poly(den)
    g = _ip_gcd(pn, pd)
    if len(g) > 1:
        pn = _ip_exact_div(pn, g)
        pd = _ip_exact_div(pd, g)
    p, q = gn * dd, dn * gd     # the scalar (gn/dn) / (gd/dd), q > 0
    if pd[-1] < 0:
        pd = [-x for x in pd]
        p = -p
    if len(pd) == 1:
        return _int_poly_to_laurent(pn, sn - sd, p, q * pd[0]), LP_ONE
    # pd is primitive: a primitive polynomial over a primitive divisor
    # leaves a primitive quotient (Gauss's lemma)
    return _int_poly_to_laurent(pn, sn - sd, p, q), _int_poly_to_laurent(pd)


RF_ZERO = RationalFunction._raw(LP_ZERO, LP_ONE)
RF_ONE = RationalFunction._raw(LP_ONE, LP_ONE)


def rf_const(x):
    """Constant rational function of an int (not a bool) or a Fraction."""
    x = _exact(x)
    if not x:
        return RF_ZERO
    return RationalFunction._raw(LaurentPolynomial._raw({0: x}), LP_ONE)


def v_power(n):
    """The unit v^n."""
    return RationalFunction._raw(lp_v_power(n), LP_ONE)


def rf_laurent(coeffs):
    """Rational function from {exponent: coefficient}."""
    return RationalFunction._raw(LaurentPolynomial(coeffs), LP_ONE)


def quantum_integer(m):
    """Balanced quantum integer [m] = v^(m-1) + v^(m-3) + ... + v^(1-m).

    [0] = 0 and [-m] = -[m].
    """
    if m == 0:
        return RF_ZERO
    if m < 0:
        return -quantum_integer(-m)
    return rf_laurent({m - 1 - 2 * i: 1 for i in range(m)})


def quantum_factorial(m):
    """[m]! = [m][m-1]...[1], with [0]! = 1."""
    if m < 0:
        raise ValueError("negative quantum factorial")
    out = RF_ONE
    for i in range(2, m + 1):
        out = out * quantum_integer(i)
    return out


def q_power(j):
    """q^j as an element of Q(v) under q = v^2."""
    return v_power(2 * j)


def q_bracket(m):
    """One-sided quantum integer [m]_q = 1 + q + ... + q^(m-1) at q = v^2."""
    if m <= 0:
        return RF_ZERO
    return rf_laurent({2 * i: 1 for i in range(m)})


@lru_cache(maxsize=32)
def _lagrange_basis(nodes):
    """The Lagrange basis at distinct integer nodes over one denominator.

    Returns (cols, den) with den * L_i(x) = sum_m cols[m][i] x^m for the
    basis polynomials L_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j); den is
    the lcm of the |prod_{j != i} (x_i - x_j)|, so every entry is an integer.
    """
    full = [1]      # prod_j (x - x_j), constant term first
    for t in nodes:
        full = [a - t * b for a, b in zip([0] + full, full + [0])]
    rows = []
    for t in nodes:
        # synthetic division of `full` by (x - t), highest term first
        quot = [full[-1]]
        for c in reversed(full[1:-1]):
            quot.append(c + t * quot[-1])
        quot.reverse()
        rows.append((quot, prod(t - u for u in nodes if u != t)))
    den = lcm(*(abs(w) for _, w in rows))
    cols = tuple(zip(*([den // w * c for c in quot] for quot, w in rows)))
    return cols, den


def lagrange_interpolate(points, degree_bound):
    """Integer polynomial in q through the given (q-value, value) points.

    `points` is a list of (x, y) pairs with rational entries and distinct x.
    The first degree_bound + 1 points determine the candidate polynomial;
    every supplied point is then checked against it, and all coefficients
    must come out integral.  Returns the coefficient list, constant term
    first.  Raises ValueError when the data does not support such a
    polynomial.

    The fit is integer arithmetic only: nodes and values are scaled to
    integers by the lcm of their denominators, and each coefficient is an
    integer combination of the values, divided exactly by the common
    denominator of the (cached) Lagrange basis at those nodes.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if len(points) < degree_bound + 1:
        raise ValueError(
            f"need {degree_bound + 1} points for degree {degree_bound}, "
            f"got {len(points)}")
    xs = [x if type(x) is int else Fraction(x) for x, _ in points]
    ys = [y if type(y) is int else Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    k = degree_bound + 1
    # P(x) = Q(sx x) / sy, where Q has integer nodes sx x_i and values sy y_i
    sx = lcm(*(x.denominator for x in xs[:k]))
    sy = lcm(*(y.denominator for y in ys[:k]))
    nodes = tuple(x.numerator * (sx // x.denominator) for x in xs[:k])
    vals = [y.numerator * (sy // y.denominator) for y in ys[:k]]
    cols, den = _lagrange_basis(nodes)
    den *= sy
    poly = []
    for m, col in enumerate(cols):
        num = sum(map(mul, vals, col)) * sx ** m
        c, rem = divmod(num, den)
        if rem:
            raise ValueError("non-integral interpolation coefficient "
                             f"{Fraction(num, den)}")
        poly.append(c)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    for x, y in zip(xs[k:], ys[k:]):
        val = 0
        for c in reversed(poly):
            val = val * x + c
        if val != y:
            raise ValueError(
                f"interpolated polynomial fails at q = {x}: {val} != {y}")
    return poly


def substitute_q(qpoly):
    """Turn an integer polynomial in q (constant first) into Q(v) via q = v^2."""
    return rf_laurent({2 * i: c for i, c in enumerate(qpoly) if c})


# ---------------------------------------------------------------------------
# Printing and parsing.  Grammar, with terms in strictly decreasing exponent
# order:   coeff := term {("+"|"-") term};  term := [rat "*"] "v" ["^" int]
#                                                 | rat
# A nontrivial denominator wraps both sides: "(num)/(den)".
# ---------------------------------------------------------------------------

def _format_laurent(p):
    if not p.c:
        return "0"
    parts = []
    for exp in sorted(p.c, reverse=True):
        coef = p.c[exp]
        neg = coef < 0
        mag = -coef if neg else coef
        if exp == 0:
            body = str(mag)
        else:
            vp = "v" if exp == 1 else f"v^{exp}"
            body = vp if mag == 1 else f"{mag}*{vp}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


def format_coeff(x):
    """Canonical string form of a rational function."""
    if x.den is LP_ONE or x.den == LP_ONE:
        return _format_laurent(x.num)
    return f"({_format_laurent(x.num)})/({_format_laurent(x.den)})"


_TERM_RE = re.compile(
    r"(?:(?P<rat>\d+(?:/\d+)?)(?:\*(?P<var1>v(?:\^(?P<exp1>-?\d+))?))?"
    r"|(?P<var2>v(?:\^(?P<exp2>-?\d+))?))$")


def _parse_laurent(s):
    s = s.strip()
    if not s:
        raise ValueError("empty coefficient string")
    if s == "0":
        return LP_ZERO
    # split into signed terms
    terms = []
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    while i <= len(s):
        # a sign right after '^' belongs to the exponent, not a new term
        if i == len(s) or (s[i] in "+-" and s[i - 1] != "^"):
            piece = s[start:i]
            if not piece:
                raise ValueError(f"malformed coefficient string {s!r}")
            terms.append((sign, piece))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
            start = i + 1
        i += 1
    coeffs = {}
    for sign, piece in terms:
        m = _TERM_RE.match(piece)
        if not m:
            raise ValueError(f"malformed term {piece!r}")
        if m.group("rat") is not None:
            if int(m.group("rat").partition("/")[2] or 1) == 0:
                raise ValueError(f"zero denominator in {piece!r}")
            mag = Fraction(m.group("rat"))
            if m.group("var1") is not None:
                exp = int(m.group("exp1") or 1)
            else:
                exp = 0
        else:
            mag = Fraction(1)
            exp = int(m.group("exp2") or 1)
        val = coeffs.get(exp, 0) + sign * mag
        if val:
            coeffs[exp] = val
        else:
            coeffs.pop(exp, None)
    return LaurentPolynomial(coeffs)


def parse_coeff(s):
    """Inverse of format_coeff; accepts any valid string of the grammar and
    raises ValueError on any other, a zero denominator included."""
    s = s.strip()
    m = re.match(r"^\((?P<num>[^()]*)\)/\((?P<den>[^()]*)\)$", s)
    if m:
        den = _parse_laurent(m.group("den"))
        if not den.c:
            raise ValueError(f"zero denominator in {s!r}")
        return RationalFunction(_parse_laurent(m.group("num")), den)
    if s.startswith("(") and s.endswith(")") and "(" not in s[1:-1]:
        s = s[1:-1]
    return RationalFunction(_parse_laurent(s))
