"""Rank-two mirabolic q-Schur algebra with exact structure constants.

Basis symbols are indexed by decorated 2x2 matrices with entry sum d.  Left
multiplication by the special basis elements (a diagonal idempotent, a
diagonal plus one off-diagonal unit, or a diagonal with a marked corner) is
one count of subspaces or vectors on any decorated 2 x N label; everything
else is assembled from it: the five distinguished generators e, f, k, k^-1,
l, products of arbitrary basis elements (the triangular recursion of
Beilinson-Lusztig-MacPherson, run on the special elements), expressions of
basis elements as generator words (the same recursion, run on words), and
the transpose anti-automorphism.

The counts are polynomials in q and enter Q(v) via q = v^2.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial
from math import comb

from .decorated import (D_11, D_12, D_1221, D_21, D_22, D_EMPTY,
                        DecoratedMatrix, Record, decorated2, decorations, diag2,
                        transpose_decorated, validate)
from .linalg import (FOLD_MEMO_TERMS, Combination, LruMemo, bump, fold_word,
                     linear_sum, stored_terms)
from .qv import (RF_ONE, format_coeff, quantum_factorial, quantum_integer,
                 rf_laurent, v_power)


class SchurElement(Combination):
    """Finite Q(v)-linear combination of decorated-matrix basis symbols."""

    __slots__ = ()

    @staticmethod
    def basis(d, label):
        return SchurElement(d, {label: RF_ONE})

    @staticmethod
    def read_label(obj, d):
        """A label of Xi_{2,d} from its JSON form."""
        label = DecoratedMatrix.from_json(obj)
        _require_label(label, d)
        return label

    def __repr__(self):
        if not self.terms:
            return "SchurElement(0)"
        bits = [f"({format_coeff(c)})*T{label}"
                for label, c in self.sorted_terms()]
        return "SchurElement(" + " + ".join(bits) + ")"


def _require_label(label, d=None):
    """Raise ValueError unless label is a valid decorated 2x2 matrix (with
    entry sum d, when given)."""
    if len(label.a) != 2 or any(len(row) != 2 for row in label.a):
        raise ValueError(f"bad label {label}: not a 2x2 matrix")
    ok, why = validate(label)
    if not ok:
        raise ValueError(f"bad label {label}: {why}")
    if d is not None and label.d != d:
        raise ValueError(f"bad label {label}: entry sum {label.d}, "
                         f"expected d={d}")


# special multiplication keys ------------------------------------------------

def e_key(d, r):
    """Diagonal (r, d-r-1) with one unit in the upper-right corner."""
    if not 0 <= r <= d - 1:
        raise ValueError(f"e index {r} out of range for degree {d}")
    return decorated2(r, 1, 0, d - r - 1)


def f_key(d, r):
    """Diagonal (r, d-r-1) with one unit in the lower-left corner."""
    if not 0 <= r <= d - 1:
        raise ValueError(f"f index {r} out of range for degree {d}")
    return decorated2(r, 0, 1, d - r - 1)


def one_key(d, r):
    """Diagonal idempotent label (r, d-r)."""
    if not 0 <= r <= d:
        raise ValueError(f"idempotent index {r} out of range for degree {d}")
    return diag2(r, d - r)


def x_key(d, r):
    """Diagonal (r, d-r) with the upper-left entry marked; needs r >= 1."""
    if not 1 <= r <= d:
        raise ValueError(f"marked index {r} out of range for degree {d}")
    return diag2(r, d - r, D_11)


def x22_key(d, r):
    """Diagonal (r, d-r) with the lower-right entry marked; needs r <= d-1."""
    if not 0 <= r <= d - 1:
        raise ValueError(f"marked index {r} out of range for degree {d}")
    return diag2(r, d - r, D_22)


def classify_special(key):
    """Which special element this label is: the kind `_special_column`
    reads."""
    (a11, a12), (a21, a22) = key.a
    if key.delta == D_EMPTY:
        if a12 == 1 and a21 == 0:
            return "e"
        if a21 == 1 and a12 == 0:
            return "f"
        if a12 == 0 and a21 == 0:
            return "diag"
    elif key.delta == D_11 and a12 == 0 and a21 == 0 and a11 >= 1:
        return "x11"
    elif key.delta == D_22 and a12 == 0 and a21 == 0 and a22 >= 1:
        return "x22"
    raise ValueError(f"not a special multiplication key: {key}")


# The special elements count subspaces and vectors.  A decorated 2 x N
# label A is an orbit of triples (F, C, v), F a subspace, C_1 < ... <
# C_(N-1) a chain and v a vector: D_j = dim F & C_j and S_j = dim C_j sum
# row 1 and both rows over the first j columns, and the marks (2, c) if
# c > 0 and (1, m) if m > c give the jumps c = min{j : v in F + C_j} <=
# m = min{j : v in C_j}.
#
# At (F'', C, v) in an orbit B, E_r T_A counts the hyperplanes F of F''
# with (F, C, v) in A, and F_(r-1) T_A the F > F'' with dim F/F'' = 1.  For
# j the first column where F & C_j and F'' & C_j differ, B is A with one
# unit of column j moved up (E) or down (F), and the jump m, which (C, v)
# fixes, stays.  Of the hyperplanes of F'', [dim F'' - dim U]_q contain a
# given subspace U, so q^s [n + 1] contain F'' & C_(j-1) but not F'' & C_j,
# for s = a_1(j+1) + ... + a_1N and n = a_1j; the lines of V / F'' count
# alike, with t = a_21 + ... + a_2(j-1) for s and n = a_2j.  One f with
# v - f in C_c decides whether the jump c moves.  E: f, in F'', lies in C_m
# and not in C_(j-1) if c < j <= m, so U holds f too and the count is
# q^(s-1) [n + 1] (j < m) or q^s [n] (j = m); if j = c, the F without f
# give B a jump c' < c, q^(s+n) (m = c) or q^(s-1) (q^(n+1) - 1) (m > c) of
# them by inclusion and exclusion.  F: if c < j <= m, the lines in
# F'' + C_c + v and not in F'' + C_c, less those in F'' + C_(c-1) + v,
# q^(S_c - D_c) - q^(S_(c-1) - D_(c-1)) of them (1 if c = 0), give B the
# jump j; if j = c, the lines in F'' + C_(c-1) + v lose the jump c and
# q^(t+1) [n] remain.  An output whose mark would sit on a zero entry is
# empty.
#
# At (F, C, v) in B, "v in F" (v^(2r) l = 1 + X_r) and "v not in F"
# (T22_r) convolved with T_A count the u in v + F, or outside it, with
# (F, C, u) in A.  In the coset all u have the jump c of v, and q^D_j of
# them lie in C_j if j >= c, none if j < c: v^(2r) l T_A is w(A) = q^D_m -
# q^D_(m-1) (m > c) or q^D_c (m = c) times the sum of T_B over the B with
# the jump c (`ell_rule`).  In all, (F + C_i) & C_j = C_i + F & C_j holds
# q^(S_i - D_i + D_j) vectors if i <= j, so N(A) of them have the jumps
# (c, m) (inclusion and exclusion), and T22_r T_A = N(A) (sum of T_B over
# every B) - v^(2r) l T_A.

def _jumps(delta):
    """The jumps (c, m) of a decoration: the columns of its row-2 mark, or
    0, and of its row-1 mark, or c."""
    marks = dict(delta)     # an antichain has one mark per row at most
    c = marks.get(2, 0)
    return c, marks.get(1, c)


def _step_column(kind, label):
    """E_r T_label ("e") or F_(r-1) T_label ("f") as {label: coefficient},
    for r the first row sum of the 2 x N label: the subspace count above."""
    top, bottom = label.a
    c, m = _jumps(label.delta)
    up = 1 if kind == "e" else -1   # a unit of column j moves up or down
    out = {}
    for j in range(1, len(top) + 1):
        if not (bottom if up > 0 else top)[j - 1]:
            continue
        if up > 0:
            s, n = sum(top[j:]), top[j - 1]
            lo, hi = s - (c < j < m), s + n - (c < j <= m)
            terms = [(c, dict.fromkeys(range(lo, hi + 1), 1))]
            if j == c:
                jump = {s + n: 1} if m == c else {s + n: 1, s - 1: -1}
                terms += [(c2, jump) for c2 in range(c)]
        else:
            t, n = sum(bottom[:j - 1]), bottom[j - 1]
            terms = [(c, dict.fromkeys(range(t + (j == c), t + n + 1), 1))]
            if c < j <= m:
                terms.append((j, {sum(bottom[:c]): 1, sum(bottom[:c - 1]): -1}
                              if c else {0: 1}))
        a = (top[:j - 1] + (top[j - 1] + up,) + top[j:],
             bottom[:j - 1] + (bottom[j - 1] - up,) + bottom[j:])
        for c2, exps in terms:
            if (c2 and not a[1][c2 - 1]) or (m > c2 and not a[0][m - 1]):
                continue            # a mark on a zero entry
            delta = {(2, c2)} if c2 else set()
            if m > c2:
                delta.add((1, m))
            out[DecoratedMatrix(a, delta)] = rf_laurent(
                {2 * i: x for i, x in exps.items()})
    return out


def ell_rule(a, delta):
    """l T_A = v^-2r w(A) (sum of T_B over B in jump_cell(a, c)) for the
    decorated 2 x N label A = (a, delta) of first row sum r, as
    (v^-2r w(A), c)."""
    c, m = _jumps(delta)
    e = 2 * (sum(a[0][:m]) - sum(a[0]))
    if m > c:
        return rf_laurent({e: 1, e - 2 * a[0][m - 1]: -1}), c
    return v_power(e), c


def jump_cell(a, c):
    """The decorations of a with the jump c: a mark (2, c) if c > 0, and no
    row-1 mark or one after column c, on a positive entry."""
    base = frozenset({(2, c)}) if c else frozenset()
    return [base] + [base | {(1, j)} for j in range(c + 1, len(a[0]) + 1)
                     if a[0][j - 1]]


def _coset_size(a, c, m):
    """N(A): how many u have the jumps (c, m), for a fixed (F, C)."""
    n = {}      # +-|(F + C_i) & C_j|, none when i or j is -1
    for i, j, sign in ((c, m, 1), (c - 1, m, -1), (c, m - 1, -1),
                       (c - 1, m - 1, 1)):
        i = min(i, j)
        if i >= 0:
            e = 2 * (sum(a[1][:i]) + sum(a[0][:j]))
            n[e] = n.get(e, 0) + sign
    return rf_laurent(n)


@lru_cache(maxsize=4096)
def _marked_column(kind, label):
    """X_r T_label ("x11") or T22_r T_label ("x22"), read-only."""
    a = label.a
    u, c = ell_rule(a, label.delta)
    w = v_power(2 * sum(a[0])) * u
    if kind == "x11":       # X_r = v^(2r) l - 1
        out = dict.fromkeys(jump_cell(a, c), w)
        out[label.delta] = w - RF_ONE
    else:                   # T22_r = N(A) (sum over every B) - v^(2r) l
        n = _coset_size(a, *_jumps(label.delta))
        out = dict.fromkeys(decorations(a), n)
        out.update(dict.fromkeys(jump_cell(a, c), n - w))
    return {DecoratedMatrix(a, delta): x for delta, x in out.items() if x}


def _special_column(kind, label):
    """T_S * T_label as {label: coefficient}, where S is the special element
    of this kind whose column sums are ro(label), on any decorated 2 x N
    label: E_r and F_(r-1) by the subspace count (`_step_column`), X_r and
    T22_r by the coset count (`_marked_column`)."""
    if kind == "diag":
        return {label: RF_ONE}
    if kind in ("x11", "x22"):
        return _marked_column(kind, label)
    return _step_column(kind, label)


def left_mul_special(key, x):
    """Left-multiply x by the special basis element with the given label."""
    kind = classify_special(key)
    if key.d != x.d:
        raise ValueError("mixed degrees")
    margin = key.sums[1]
    return x.apply(lambda label: _special_column(kind, label)
                   if label.sums[0] == margin else {})


def identity_element(d):
    return SchurElement(d, {one_key(d, r): RF_ONE for r in range(d + 1)})


# the power of v on T_A is m r + c d, for r the first row sum of A; that of
# l, v^-2r, is in `ell_rule`
_POWERS = {"k": (2, -1), "k^-1": (-2, 1), "e": (-1, 0), "f": (1, -1),
           "l": (0, 0)}


def apply_letter(letter, x):
    """Left-multiply by a generator.  With r the first row sum of a label A
    and d the degree, the generators act on T_A by
        k:     v^(2r-d) T_A,
        k^-1:  v^(d-2r) T_A,
        e:     v^-r E_r T_A, and 0 when r = d,
        f:     v^(r-d) F_(r-1) T_A, and 0 when r = 0,
        l:     v^-2r w(A) (sum of T_B over B in the cell of `ell_rule`),
    where E_r and F_(r-1) act by the subspace count.  Each label's column,
    its power of v included, is built once."""
    if letter not in _POWERS:
        raise ValueError(f"unknown generator {letter!r}")
    return x.apply(partial(_letter_column, letter))


@lru_cache(maxsize=4096)    # 5 (d + 1)^3 columns at d: d <= 8 fit
def _letter_column(letter, label):
    """apply_letter(letter, T_label) as {label: coefficient}, read-only; the
    e (f) count alone gives 0 when row 2 (row 1) is empty."""
    r = label.sums[0][0]
    if letter in ("e", "f"):
        out = _special_column(letter, label)
    elif letter == "l":
        u, c = ell_rule(label.a, label.delta)
        out = {DecoratedMatrix(label.a, delta): u
               for delta in jump_cell(label.a, c)}
    else:
        out = {label: RF_ONE}
    m, c = _POWERS[letter]
    return {lab: x * v_power(m * r + c * label.d) for lab, x in out.items()}


def chevalley(d, which):
    """One of the five distinguished generators as an algebra element:
    g * 1."""
    return apply_letter(which, identity_element(d))


class GeneratorWord(Record):
    """A scalar in Q(v) times a tuple of generator names."""

    __slots__ = ("scalar", "letters")

    def __init__(self, scalar, letters):
        # built for every word evaluated or acted by: write the slots directly
        put_scalar, put_letters, put_key, put_hash = self._put
        put_scalar(self, scalar)
        put_letters(self, letters)
        put_key(self, (scalar, letters))
        put_hash(self, None)

    def __str__(self):
        body = " ".join(self.letters) if self.letters else "1"
        return f"({format_coeff(self.scalar)}) {body}"


def apply_word(word, x):
    return fold_word(None, None, lambda: x, word.letters, apply_letter,
                     _POWERS).scale(word.scalar)


_EVAL_CACHE = LruMemo(FOLD_MEMO_TERMS)


def eval_letters(d, letters):
    """A generator word multiplied out from the identity at d by `fold_word`,
    which memoises every suffix: the result is shared and read-only."""
    return fold_word(_EVAL_CACHE, d, partial(identity_element, d), letters,
                     apply_letter, _POWERS)


def evaluate_words(d, words):
    """Sum of scalar * (multiplied-out word) over an iterable of words, by
    `linear_sum`; a lone word with scalar 1 gives its shared, read-only
    `eval_letters` value, and no word the zero of degree d."""
    pairs = [(w.scalar, eval_letters(d, w.letters)) for w in words]
    return linear_sum(pairs) if pairs else SchurElement(d)


def star(x):
    """Transpose anti-automorphism on basis labels."""
    return SchurElement(x.d, {transpose_decorated(label): c
                              for label, c in x.terms.items()})


# ---------------------------------------------------------------------------
# The triangular recursion of Beilinson-Lusztig-MacPherson: every basis
# element is a leading product of special elements (1_r, E_r, F_r, X_r and
# the marked diagonal T22_r) minus lower terms.  The case analysis is written
# once, against a "reading" that says what a special element is and how to
# multiply, add and scale:
#   _Words      a value is a combo {(letters, r): coefficient}, each key the
#               word in e, f, l times the idempotent 1_r; concatenation
#               mirrors multiplication, and 1_r is written as a polynomial
#               in k only in the output (express_in_generators);
#   _Operators  a value is a map y -> (element) * y; special elements act by
#               their counts and composition mirrors multiplication
#               (mul_general, t22_diagonal).
# ---------------------------------------------------------------------------

# word combos of basis elements, 1_r in k and basis products, charged in
# Laurent terms (`stored_terms`): all d = 6 products fill 465,093, and with
# about half of that they take 7% longer and peak 26 MiB lower
_COMBO_CACHE = LruMemo(FOLD_MEMO_TERMS << 2)


def _cached(key, build):
    got = _COMBO_CACHE.get(key)
    if got is None:
        got = build()
        terms = got.terms if isinstance(got, Combination) else got
        _COMBO_CACHE.put(key, got, stored_terms(terms.values()))
    return got


def _with_delta(label, delta):
    return DecoratedMatrix(label.a, delta)


def _t22(alg, r):
    """The diagonal (r, d-r) marked in the lower-right corner, assembled from
    1_r, E_r, F_r and the marked idempotents X_r, X_{r+1}; 0 <= r <= d-1."""
    d = alg.d
    fe = alg.cat(alg.f(r), alg.e(r))
    fxe = alg.cat(alg.f(r), alg.cat(alg.x(r + 1), alg.e(r)))
    bracket = fe
    tail = alg.one(r)
    if r >= 1:
        fex = alg.cat(alg.f(r), alg.cat(alg.e(r), alg.x(r)))
        xfe = alg.cat(alg.x(r), fe)
        xfex = alg.cat(alg.x(r), fex)
        bracket = alg.add(alg.add(bracket, xfex), alg.add(xfe, fex))
        tail = alg.add(tail, alg.x(r))
    # the diagonal correction carries v^{d-r+1} - v^{d-r-1}, i.e. the
    # positive multiple (q^{d-r} - 1)v^{-(d-r)} of [d-r]
    scal = (v_power(d - r + 1) - v_power(d - r - 1)) * quantum_integer(d - r)
    out = alg.sub(fxe, alg.scale(bracket, v_power(2 - 2 * r)))
    return alg.add(alg.add(out, fe), alg.scale(tail, scal))


def _unit(m):
    """1 / (v^(m-1) [m]), the normalisation of a peeled lower-left unit."""
    return (v_power(m - 1) * quantum_integer(m)).inverse()


def _blm(alg, label):
    """The basis element with this label, in the given reading; zero when
    the label is outside the index set."""
    (a11, a12), (a21, a22) = label.a
    if min(a11, a12, a21, a22) < 0 or not validate(label)[0]:
        return alg.zero()
    cat, add, sub, scale, lab = alg.cat, alg.add, alg.sub, alg.scale, alg.label
    delta = label.delta
    if a21 == 0:
        if delta == D_EMPTY:
            if a12 == 0:
                return alg.one(a11)
            # divided power of e applied to an idempotent
            prod = alg.e(a11 + a12 - 1)
            for i in range(a12 - 2, -1, -1):
                prod = cat(prod, alg.e(a11 + i))
            return scale(prod, v_power(-comb(a12, 2)) / quantum_factorial(a12))
        if delta == D_11:
            return cat(lab(_with_delta(label, D_EMPTY)), alg.x(a11))
        if delta == D_12:
            out = cat(alg.x(a11 + a12), lab(_with_delta(label, D_EMPTY)))
            if a11 >= 1:
                out = sub(out, lab(_with_delta(label, D_11)))
            return out
        if delta == D_22:
            return cat(alg.t22(a11 + a12), lab(_with_delta(label, D_EMPTY)))
        return alg.zero()
    # a21 >= 1: peel one unit off the lower-left entry
    up = decorated2(a11, a12, a21 - 1, a22 + 1, delta)            # A'
    over = decorated2(a11 + 1, a12 - 1, a21 - 1, a22 + 1, delta)  # A''
    s = a11 + a21 - 1
    if delta == D_EMPTY:
        rest = scale(lab(over),
                     v_power(2 * a21 + a11 - 2) * quantum_integer(a11 + 1))
        return scale(sub(cat(lab(up), alg.f(s)), rest), _unit(a21))
    if delta == D_11:
        rest = scale(lab(over),
                     v_power(2 * a21 + a11 - 3) * quantum_integer(a11))
        return scale(sub(cat(lab(up), alg.f(s)), rest), _unit(a21))
    if delta == D_12:
        r1 = scale(lab(_with_delta(over, D_11)), v_power(2 * a21 + 2 * a11 - 2))
        r2 = scale(lab(over),
                   v_power(2 * a21 + a11 - 2) * quantum_integer(a11 + 1))
        return scale(sub(cat(lab(up), alg.f(s)), add(r1, r2)), _unit(a21))
    if delta == D_21:
        anchor = decorated2(a11 + 1, a12, a21 - 1, a22, D_11)  # A'''
        r1 = scale(lab(_with_delta(label, D_11)),
                   v_power(a21 - 1) * quantum_integer(a21))
        r2 = scale(lab(_with_delta(over, D_11)),
                   v_power(2 * a21 + a22 - 2) * quantum_integer(a22 + 1))
        return sub(cat(alg.f(a11 + a12), lab(anchor)), add(r1, r2))
    if delta == D_1221:
        if a21 == 1:
            anchor = decorated2(a11 + 1, a12, 0, a22, D_12)  # A'''
            r1 = lab(_with_delta(label, D_12))
            r2 = scale(lab(_with_delta(over, D_12)),
                       v_power(a22) * quantum_integer(a22 + 1))
            r3 = lab(_with_delta(over, D_22))
            return sub(cat(alg.f(a11 + a12), lab(anchor)),
                       add(add(r1, r2), r3))
        r1 = scale(lab(_with_delta(over, D_21)),
                   v_power(2 * a21 + 2 * a11 - 2) - v_power(2 * a21 - 4))
        r2 = scale(lab(over),
                   v_power(2 * a21 + a11 - 2) * quantum_integer(a11 + 1))
        return scale(sub(cat(lab(up), alg.f(s)), add(r1, r2)),
                     _unit(a21 - 1))
    # delta == D_22
    lead = cat(alg.t22(a11 + a12), lab(_with_delta(label, D_EMPTY)))
    return sub(lead, add(lab(_with_delta(label, D_21)),
                         lab(_with_delta(label, D_1221))))


# the word reading ------------------------------------------------------------

def _ccat(a, b):
    """The word combo a * b.  A key (letters, r) is letters * 1_r, and the
    letters lead from 1_r to 1_(r + #e - #f); as 1_a 1_b = 0 for a != b,
    a word of a takes a word of b only when its r is where b's word leads."""
    out = {}
    for (wb, rb), sb in b.terms.items():
        top = rb + wb.count("e") - wb.count("f")
        for (wa, ra), sa in a.terms.items():
            if ra == top:
                bump(out, (wa + wb, rb), sa * sb)
    return a._like(out)


class _Words:
    """Special elements as one-term combos {(letters in e, f, l; r): coeff},
    each key meaning letters * 1_r; basis elements are cached per label."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    scale = staticmethod(Combination.scale)
    cat = staticmethod(_ccat)
    t22 = _t22

    def __init__(self, d):
        self.d = d

    def zero(self):
        return Combination(self.d)

    def one(self, r):
        return Combination(self.d, {((), r): RF_ONE})

    def e(self, r):
        return Combination(self.d, {(("e",), r): v_power(r)})

    def f(self, r):
        return Combination(self.d, {(("f",), r + 1): v_power(self.d - r - 1)})

    def x(self, r):
        return Combination(self.d, {(("l",), r): v_power(2 * r)}) - self.one(r)

    def label(self, label):
        return _cached((self.d, label), lambda: _blm(self, label))


def _idempotent_in_k(d, r):
    """1_r as {("k",) * i: coefficient}: the Lagrange polynomial in k that
    picks the eigenvalue v^(2r-d) of k out of the v^(2j-d), 0 <= j <= d."""
    def build():
        lam_r, poly, den = v_power(2 * r - d), [RF_ONE], RF_ONE
        for j in range(d + 1):
            if j != r:
                lam = v_power(2 * j - d)
                poly = [a - lam * b for a, b in zip([0] + poly, poly + [0])]
                den = den * (lam_r - lam)
        return {("k",) * i: c / den for i, c in enumerate(poly) if c}
    return _cached((d, "one", r), build)


def express_in_generators(label):
    """Generator words whose sum multiplies out to the basis element, each
    a k-free word followed by at most d letters k that spell its 1_r.  The
    k-free words of each label and each 1_r are cached; bad labels raise."""
    _require_label(label)
    d = label.d
    out = {}
    for (letters, r), s in _Words(d).label(label).terms.items():
        for ks, c in _idempotent_in_k(d, r).items():
            bump(out, letters + ks, s * c)
    words = [GeneratorWord(s, w) for w, s in out.items()]
    words.sort(key=lambda gw: (len(gw.letters), gw.letters))
    return tuple(words)


# the operator reading --------------------------------------------------------

def _acts_by(key_of):
    """Reads the special element with index r as left multiplication by the
    basis element labelled key_of(d, r)."""
    def special(self, r):
        key = key_of(self.d, r)
        return lambda y: left_mul_special(key, y)
    return special


class _Operators:
    """Special elements as left multiplications by their columns; basis
    elements act through the products memoised per basis pair."""

    one = _acts_by(one_key)
    e = _acts_by(e_key)
    f = _acts_by(f_key)
    x = _acts_by(x_key)
    t22 = _acts_by(x22_key)

    def __init__(self, d):
        self.d = d

    @staticmethod
    def zero():
        return lambda y: SchurElement(y.d)

    @staticmethod
    def add(a, b):
        return lambda y: a(y) + b(y)

    @staticmethod
    def sub(a, b):
        return lambda y: a(y) - b(y)

    @staticmethod
    def scale(a, c):
        return lambda y: a(y).scale(c)

    @staticmethod
    def cat(a, b):
        return lambda y: a(b(y))

    @staticmethod
    def label(label):
        return partial(_label_times, label)


def _basis_product(a, b):
    """The terms of T_a * T_b, memoised per pair; empty unless
    co(a) = ro(b)."""
    if a.sums[1] != b.sums[0]:
        return {}
    d = a.d
    return _cached(("mul", a, b), lambda: _blm(_Operators(d), a)(
        SchurElement.basis(d, b)).terms)


def _label_times(label, y):
    """T_label * y.  _blm recurses through here once per lower term; a
    partial, unlike a lambda, adds no Python frame to each level."""
    return y.apply(partial(_basis_product, label))


def t22_diagonal(d, r):
    """The diagonal basis element with marked lower-right corner, assembled
    from products of the distinguished idempotents, steps and marked
    idempotents; 0 <= r <= d-1."""
    if not 0 <= r <= d - 1:
        raise ValueError(f"index {r} out of range for degree {d}")
    return _t22(_Operators(d), r)(identity_element(d))


def mul_general(x, y):
    """Product of two algebra elements by the triangular recursion, each
    special element acting through its column (`_special_column`)."""
    if x.d != y.d:
        raise ValueError("mixed degrees")

    def column(label):
        _require_label(label)
        return _label_times(label, y).terms
    return x.apply(column)
