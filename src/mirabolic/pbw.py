"""Abstract rank-one mirabolic quantum algebra in PBW normal form.

The algebra is generated over Q(v) by e, f, k, k^-1 and an extra idempotent
l.  Its elements are linear combinations of monomials from six families:

    class 0:  f^r e^s k^t
    class 1:  l f^r e^s k^t
    class 2:  f^r e^s l k^t     with (r, s) != (0, 0)
    class 3:  l f^r e^s l k^t   with r, s >= 1
    class 4:  f^r l e^s k^t     with r, s >= 1
    class 5:  e^s l f^r k^t     with r, s >= 1

Left multiplication by a generator lands back in the span of these: powers
of k commute past e and f up to powers of v^2, e straightens against a block
of f's by the usual quantum-sl2 rule, colliding idempotents collapse through
l e l = l e and l f l = f l, and a sandwiched l splits across a block of
equal letters by the move-out identities

    e^a l e^b = (v^-b [a]/[a+b]) e^(a+b) l + (v^a [b]/[a+b]) l e^(a+b),
    f^a l f^b = (v^b [a]/[a+b]) f^(a+b) l + (v^-a [b]/[a+b]) l f^(a+b).

Left multiplication reads every coefficient from the straightening formula
(`ef_straighten`) and from these two identities.  Arbitrary products reduce
to folds of single-generator multiplications, so normal forms are canonical
by construction.  The finite-dimensional quotient map sends a normal form to
its generator word evaluated in the convolution algebra.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from .decorated import Record
from .linalg import (FOLD_MEMO_TERMS, SIZE_GUARD, Combination, LruMemo, bump,
                     fold_word, json_terms, stored_terms)
from .qv import (RF_ONE, format_coeff, parse_coeff, quantum_integer, rf_const,
                 v_power)
from .schur_algebra import GeneratorWord, evaluate_words

GENERATORS = ("e", "f", "k", "k^-1", "l")

# v - v^-1, the denominator of the commutator relation
_VM = v_power(1) - v_power(-1)


class PbwMonomial(Record):
    """One basis monomial; r counts f letters, s counts e letters."""

    __slots__ = ("cls", "r", "s", "t")

    def __init__(self, cls, r, s, t):
        if cls not in (0, 1, 2, 3, 4, 5):
            raise ValueError(f"unknown monomial class {cls}")
        if r < 0 or s < 0:
            raise ValueError("negative exponent")
        if cls == 2 and r == 0 and s == 0:
            raise ValueError("class 2 requires an e or f letter")
        if cls in (3, 4, 5) and (r < 1 or s < 1):
            raise ValueError(f"class {cls} requires both letter blocks")
        # built on every rewriting step: write the slots directly (Record)
        put_cls, put_r, put_s, put_t, put_key, put_hash = self._put
        put_cls(self, cls)
        put_r(self, r)
        put_s(self, s)
        put_t(self, t)
        put_key(self, (cls, r, s, t))
        put_hash(self, None)

    def letters(self):
        """The monomial as a generator word, leftmost factor first."""
        f = ("f",) * self.r
        e = ("e",) * self.s
        if self.t >= 0:
            k = ("k",) * self.t
        else:
            k = ("k^-1",) * (-self.t)
        body = (f + e, ("l",) + f + e, f + e + ("l",),
                ("l",) + f + e + ("l",), f + ("l",) + e,
                e + ("l",) + f)[self.cls]
        return body + k

    def sort_key(self):
        return (self.cls, self.r, self.s, self.t)

    def __str__(self):
        return format_word(self.letters())


def _mono(cls, r, s, t):
    """Monomial constructor that renormalizes degenerate letter blocks.

    A class-3/4/5 shape with an empty block is not a basis monomial but is
    still a valid product; the idempotent collisions l e^s l = l e^s and
    l f^r l = f^r l identify it with a monomial of a smaller class.  Case
    formulas below go through this constructor so they may emit degenerate
    shapes freely.
    """
    if cls == 3:
        if r == 0:
            cls = 1
        elif s == 0:
            cls = 2
    elif cls == 4:
        if r == 0:
            cls = 1
        elif s == 0:
            cls = 2
    elif cls == 5:
        if s == 0:
            cls = 1
        elif r == 0:
            cls = 2
    if cls == 2 and r == 0 and s == 0:
        cls = 1
    return PbwMonomial(cls, r, s, t)


class PbwElement(Combination):
    """Finite Q(v)-linear combination of PBW monomials."""

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(None, terms)

    @staticmethod
    def monomial(mono, coeff=RF_ONE):
        return PbwElement({mono: coeff})

    def to_json(self):
        return {"terms": [{"monomial": str(mono), "coeff": format_coeff(c)}
                          for mono, c in self.sorted_terms()]}

    @staticmethod
    def from_json(obj):
        """Read what `to_json` writes; any other JSON shape raises
        ValueError, and so does a "monomial" that is not the word of one
        basis monomial, rather than being normalised into several terms."""
        terms = json_terms(obj, '{"terms": [{"monomial": string, "coeff": '
                           'string}, ...]}', ("monomial", "coeff"))
        out = PbwElement()
        for item in terms:
            coeff, letters = parse_word(f"({item['coeff']}) {item['monomial']}")
            norm = normalize_word(letters)
            mono = next(iter(norm.terms), None)
            if len(norm.terms) != 1 or mono.letters() != letters:
                raise ValueError(
                    f"{item['monomial']!r} is not a PBW basis monomial")
            out = out + PbwElement.monomial(mono, coeff)
        return out

    def __repr__(self):
        if not self.terms:
            return "PbwElement(0)"
        bits = [f"({format_coeff(c)}) {mono}" for mono, c in self.sorted_terms()]
        return "PbwElement(" + " + ".join(bits) + ")"


def unit():
    return PbwElement({PbwMonomial(0, 0, 0, 0): RF_ONE})


def generator(name):
    """The generator as a normal form, shared and read-only."""
    return normalize_word((name,))


# ---------------------------------------------------------------------------
# straightening of mixed e/f blocks

# memos of the straightening forms, {(a, b): form}, each charged its stored
# terms like the word memos (`linalg.stored_terms`)
_EF_CACHE = LruMemo(FOLD_MEMO_TERMS)
_FE_CACHE = LruMemo(FOLD_MEMO_TERMS)


def _memo_put(memo, key, terms):
    """Store the read-only {key: coeff} dict terms under key and return it."""
    return memo.put(key, terms, stored_terms(terms.values()))


def ef_straighten(a, b):
    """Normal form of e^a f^b; returns {(r, s, t): coeff} for f^r e^s k^t.

    By the commutation formula of quantum sl2 for divided powers,
    e^a f^b = sum_j [a]!/[a-j]! [b]!/[b-j]! f^(b-j) [k; 2j-a-b, j] e^(a-j)
    with [k; c, j] = prod_{i=1..j} (v^(c-i+1) k - v^(i-1-c) k^-1)/(v^i - v^-i),
    and k^t e^s = v^(2ts) e^s k^t moves each k-power to the right.  For
    a = 1 this is e f^b = f^b e + [b] f^(b-1) (v^(1-b) k - v^(b-1) k^-1)
    /(v - v^-1).  The min(a, b) + 1 terms are summed directly: no recursion
    over a or b, and no table of the forms of e^i f^j on the way.
    """
    got = _EF_CACHE.get((a, b))
    if got is not None:
        return got
    out = {}
    scale = RF_ONE      # [a]!/[a-j]! [b]!/[b-j]! / prod_{i<=j} (v^i - v^-i)
    for j in range(min(a, b) + 1):
        if j:
            scale = (scale * quantum_integer(a - j + 1)
                     * quantum_integer(b - j + 1) / (v_power(j) - v_power(-j)))
        c = 2 * j - a - b
        poly = {0: RF_ONE}  # the numerator of [k; c, j], by power of k
        for i in range(1, j + 1):
            nxt = {}
            for t, x in poly.items():
                bump(nxt, t + 1, x * v_power(c - i + 1))
                bump(nxt, t - 1, -x * v_power(i - 1 - c))
            poly = nxt
        for t, x in poly.items():
            bump(out, (b - j, a - j, t), scale * x * v_power(2 * t * (a - j)))
    return _memo_put(_EF_CACHE, (a, b), out)


def fe_straighten(a, b):
    """Reversed form of f^a e^b; returns {(s, r, t): coeff} for e^s f^r k^t.

    The image of ef_straighten(a, b) under the automorphism that swaps e
    and f and sends k to k^-1.
    """
    got = _FE_CACHE.get((a, b))
    if got is None:
        got = _memo_put(_FE_CACHE, (a, b), {
            (r, s, -t): c for (r, s, t), c in ef_straighten(a, b).items()})
    return got


def _split(a, b, sign):
    """(hi, lo) with e^a l e^b = hi e^(a+b) l + lo l e^(a+b) for sign 1;
    sign -1 swaps v and v^-1 and gives f^a l f^b in the same way."""
    den = quantum_integer(a + b)
    return (v_power(-sign * b) * quantum_integer(a) / den,
            v_power(sign * a) * quantum_integer(b) / den)


def move_out(side, a, b):
    """The basis expansion of e^a l e^b (side "e") or f^a l f^b (side "f")."""
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError("need a, b >= 0 with a + b >= 1")
    if side not in ("e", "f"):
        raise ValueError(f"side must be 'e' or 'f', got {side!r}")
    hi, lo = _split(a, b, 1 if side == "e" else -1)
    r, s = (0, a + b) if side == "e" else (a + b, 0)
    return PbwElement({_mono(2, r, s, 0): hi, _mono(1, r, s, 0): lo})


# ---------------------------------------------------------------------------
# left multiplication by a generator

# g * mono as {monomial: coeff} under (g, mono): one entry per power k^t
# that a word passes through, so bounded like the word memos
_MUL_CACHE = LruMemo(FOLD_MEMO_TERMS)


def _shift(mono, t):
    if t == 0:
        return mono
    return PbwMonomial(mono.cls, mono.r, mono.s, mono.t + t)


def _append_ell(mono):
    """Right product mono * l as {monomial: coeff}."""
    cls, r, s, t = mono.cls, mono.r, mono.s, mono.t
    if cls == 0:
        return {_mono(2, r, s, t): RF_ONE}
    if cls == 1:
        return {_mono(3, r, s, t): RF_ONE}
    if cls == 5:
        # e^s l f^r l = e^s f^r l; straighten the now-plain pair
        out = {}
        for (a, b, c), coeff in ef_straighten(s, r).items():
            bump(out, _mono(2, a, b, c + t), coeff)
        return out
    # classes 2, 3, 4 already end in l, up to l e^s l = l e^s
    return {mono: RF_ONE}


def _mul_mono(g, mono):
    key = (g, mono)
    got = _MUL_CACHE.get(key)
    if got is not None:
        return got
    cls, r, s, t = mono.cls, mono.r, mono.s, mono.t
    out = {}
    if g == "k":
        out[PbwMonomial(cls, r, s, t + 1)] = v_power(2 * (s - r))
    elif g == "k^-1":
        out[PbwMonomial(cls, r, s, t - 1)] = v_power(2 * (r - s))
    elif g == "l":
        if cls == 0:
            out[_mono(1, r, s, t)] = RF_ONE
        elif cls == 2:
            out[_mono(3, r, s, t)] = RF_ONE
        elif cls == 5:
            # l e^s l f^r = l e^s f^r
            for (a, b, c), coeff in ef_straighten(s, r).items():
                bump(out, _mono(1, a, b, c + t), coeff)
        else:
            # classes 1, 3, 4 start with l (or reach it through k e^s)
            out[mono] = RF_ONE
    elif g == "e":
        if cls == 5:
            out[PbwMonomial(5, r, s + 1, t)] = RF_ONE
        elif cls in (1, 3):
            # the f block crosses the e block so that the idempotent sees a
            # pure power of e on its right; that sandwich splits by move-out,
            # and the letters left in the wrong order are restraightened
            base = {}
            for (b, a, c), coeff in fe_straighten(r, s).items():
                hi, lo = _split(1, b, 1)
                bump(base, _mono(5, a, b + 1, c), coeff * hi)
                lo = coeff * lo
                for (a2, b2, c2), coeff2 in ef_straighten(b + 1, a).items():
                    bump(base, _mono(1, a2, b2, c2 + c), lo * coeff2)
            base = PbwElement({_shift(m, t): x for m, x in base.items()})
            out = (base.apply(_append_ell) if cls == 3 else base).terms
        else:
            # e f^r = sum f^a e^b k^c, and k^c crosses e^s at v^(2cs)
            for (a, b, c), coeff in ef_straighten(1, r).items():
                if c:
                    coeff = coeff * v_power(2 * c * s)
                if cls == 4 and b:
                    # f^r (e l e^s) k^t: the sandwich splits by move-out
                    hi, lo = _split(1, s, 1)
                    bump(out, _mono(2, r, s + 1, t), coeff * hi)
                    bump(out, _mono(4, r, s + 1, t), coeff * lo)
                else:
                    bump(out, _mono(cls, a, b + s, c + t), coeff)
    elif g == "f":
        if cls in (0, 2, 4):
            out[PbwMonomial(cls, r + 1, s, t)] = RF_ONE
        elif cls in (1, 3):
            hi, lo = _split(1, r, -1)
            bump(out, _mono(4, r + 1, s, t), hi)
            bump(out, _mono(cls, r + 1, s, t), lo)
        else:
            # f e^s = sum e^b f^a k^c, and k^c crosses l f^r at v^(-2cr)
            for (b, a, c), coeff in fe_straighten(1, s).items():
                if c:
                    coeff = coeff * v_power(-2 * c * r)
                if a:
                    # e^s (f l f^r) k^t: move out, restraighten e^s f^(r+1) l
                    hi, lo = _split(1, r, -1)
                    hi = coeff * hi
                    for (a2, b2, c2), y in ef_straighten(s, r + 1).items():
                        bump(out, _mono(2, a2, b2, c2 + t), hi * y)
                    bump(out, PbwMonomial(5, r + 1, s, t), coeff * lo)
                else:
                    bump(out, _mono(5, r, b, c + t), coeff)
    else:
        raise ValueError(f"unknown generator {g!r}")
    return _memo_put(_MUL_CACHE, key, out)


def left_mul_generator(g, x):
    """Normal form of g * x for a single generator g."""
    return x.apply(lambda mono: _mul_mono(g, mono))


def _fold(letters, x):
    """Normal form of (the word letters) * x, one generator at a time."""
    for letter in reversed(letters):
        x = left_mul_generator(letter, x)
    return x


_NORMAL_FORMS = LruMemo(FOLD_MEMO_TERMS)


def normalize_word(letters):
    """Normal form of a generator word from the unit by `fold_word`, which
    memoises every suffix: the result is shared and read-only."""
    return fold_word(_NORMAL_FORMS, (), unit, tuple(letters),
                     left_mul_generator, GENERATORS)


def multiply(x, y):
    """Normal form of the product x * y."""
    return x.apply(lambda mono: _fold(mono.letters(), y).terms)


def antiautomorphism(x):
    """The linear anti-involution swapping e and f and fixing k and l.

    On a monomial it reverses the word; pushing the k-power back to the
    right end costs v^(2 t (r - s)).
    """
    swap = (0, 2, 1, 3, 4, 5)
    return x.apply(lambda mono: {
        _mono(swap[mono.cls], mono.s, mono.r, mono.t):
            v_power(2 * mono.t * (mono.r - mono.s))})


def specialize_ell(eps, x):
    """Quotient to the plain quantum algebra: l maps to 0 or to 1."""
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")

    def column(mono):
        if mono.cls == 0:
            return {mono: RF_ONE}
        if eps == 0:
            return {}
        if mono.cls == 5:
            straight = ef_straighten(mono.s, mono.r)
            return {PbwMonomial(0, a, b, c + mono.t): coeff
                    for (a, b, c), coeff in straight.items()}
        return {PbwMonomial(0, mono.r, mono.s, mono.t): RF_ONE}
    return x.apply(column)


_PROJECTIONS = LruMemo(FOLD_MEMO_TERMS)


def project_to_schur(d, x):
    """Image in the d-th convolution quotient, as a SchurElement.

    Memoised under (d, the terms of x), so equal elements share one image
    however they were built and an element changed by its caller is
    projected afresh; an entry is charged the stored terms of its key and
    image, and the result is shared and read-only."""
    key = (d, frozenset(x.terms.items()))
    got = _PROJECTIONS.get(key)
    if got is None:
        words = [GeneratorWord(c, mono.letters())
                 for mono, c in x.sorted_terms()]
        got = evaluate_words(d, words)
        _PROJECTIONS.put(key, got, stored_terms(
            chain(x.terms.values(), got.terms.values())))
    return got


@cache
def casimir_element():
    """The central element that separates the simple modules.

    The plain quantum Casimir fe + (kv + k^-1 v^-1)/(v - v^-1)^2 is scaled
    by 1 - v^-2 and corrected by five l-terms so that it commutes with the
    idempotent as well.
    """
    d2 = _VM * _VM
    a = RF_ONE - v_power(-2)
    terms = {
        PbwMonomial(0, 1, 1, 0): a,
        PbwMonomial(0, 0, 0, 1): a * v_power(1) / d2,
        PbwMonomial(0, 0, 0, -1): a * v_power(-1) / d2,
        PbwMonomial(2, 1, 1, 0): -RF_ONE,
        PbwMonomial(1, 1, 1, 0): -RF_ONE,
        PbwMonomial(4, 1, 1, 0): v_power(2),
        PbwMonomial(5, 1, 1, 0): v_power(-2),
        PbwMonomial(1, 0, 0, 1):
            ((v_power(2) - rf_const(2)) * v_power(1) + v_power(-3)) / d2,
        PbwMonomial(1, 0, 0, -1):
            ((v_power(2) - rf_const(2)) * v_power(-1) + v_power(-1)) / d2,
    }
    return PbwElement(terms)


def defining_relations():
    """The ten generator relations as (name, lhs, rhs) word combinations.

    Each side is a tuple of (coefficient, letter word) pairs; both sides
    normalize to the same element, and project to the same element of every
    finite quotient.
    """
    two = quantum_integer(2)
    inv_vm = RF_ONE / _VM
    return [
        ("k k^-1 = 1",
         ((RF_ONE, ("k", "k^-1")),), ((RF_ONE, ()),)),
        ("k e k^-1 = v^2 e",
         ((RF_ONE, ("k", "e", "k^-1")),), ((v_power(2), ("e",)),)),
        ("k f k^-1 = v^-2 f",
         ((RF_ONE, ("k", "f", "k^-1")),), ((v_power(-2), ("f",)),)),
        ("e f - f e = (k - k^-1)/(v - v^-1)",
         ((RF_ONE, ("e", "f")), (-RF_ONE, ("f", "e"))),
         ((inv_vm, ("k",)), (-inv_vm, ("k^-1",)))),
        ("l^2 = l",
         ((RF_ONE, ("l", "l")),), ((RF_ONE, ("l",)),)),
        ("k l = l k",
         ((RF_ONE, ("k", "l")),), ((RF_ONE, ("l", "k")),)),
        ("l e l = l e",
         ((RF_ONE, ("l", "e", "l")),), ((RF_ONE, ("l", "e")),)),
        ("l f l = f l",
         ((RF_ONE, ("l", "f", "l")),), ((RF_ONE, ("f", "l")),)),
        ("[2] e l e = v^-1 e^2 l + v l e^2",
         ((two, ("e", "l", "e")),),
         ((v_power(-1), ("e", "e", "l")), (v_power(1), ("l", "e", "e")))),
        ("[2] f l f = v^-1 l f^2 + v f^2 l",
         ((two, ("f", "l", "f")),),
         ((v_power(-1), ("l", "f", "f")), (v_power(1), ("f", "f", "l")))),
    ]


def enumerate_monomials(max_r, max_s, max_t):
    """All basis monomials with r <= max_r, s <= max_s, |t| <= max_t."""
    out = []
    ts = range(-max_t, max_t + 1)
    for t in ts:
        for r in range(max_r + 1):
            for s in range(max_s + 1):
                out.append(PbwMonomial(0, r, s, t))
                out.append(PbwMonomial(1, r, s, t))
                if (r, s) != (0, 0):
                    out.append(PbwMonomial(2, r, s, t))
                if r >= 1 and s >= 1:
                    out.append(PbwMonomial(3, r, s, t))
                    out.append(PbwMonomial(4, r, s, t))
                    out.append(PbwMonomial(5, r, s, t))
    out.sort(key=PbwMonomial.sort_key)
    return out


# ---------------------------------------------------------------------------
# word grammar: "(v^-1) e^2 l f k^-2"


def format_word(letters):
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        n = j - i
        if letters[i] == "k^-1":
            parts.append("k^-1" if n == 1 else f"k^-{n}")
        elif n == 1:
            parts.append(letters[i])
        else:
            parts.append(f"{letters[i]}^{n}")
        i = j
    return " ".join(parts)


def parse_word(text):
    """Parse "(coeff) letters" into (coefficient, letter tuple).

    The parenthesized coefficient is optional and uses the scalar grammar;
    letters are e, f, l, k with optional integer exponents, where only k
    admits negative ones.  A word of more than linalg.SIZE_GUARD letters is
    refused before its letters are listed.
    """
    text = text.strip()
    coeff = RF_ONE
    if text.startswith("("):
        depth = 0
        end = -1
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end < 0:
            raise ValueError("unbalanced parenthesis in word")
        coeff = parse_coeff(text[1:end].replace(" ", ""))
        text = text[end + 1:]
    blocks = []
    for tok in text.split():
        if tok == "1":
            continue
        base, caret, exp = tok.partition("^")
        if base not in ("e", "f", "k", "l"):
            raise ValueError(f"unknown generator {base!r}")
        n = int(exp) if caret else 1    # so "e^" is refused like "e^x"
        if n < 0 and base != "k":
            raise ValueError(f"negative power of {base}")
        blocks.append(("k^-1" if n < 0 else base, abs(n)))
    length = sum(n for _, n in blocks)
    if length > SIZE_GUARD:
        raise ValueError(f"a word of {length} letters exceeds the guard "
                         f"{SIZE_GUARD}")
    return coeff, tuple(g for g, n in blocks for _ in range(n))
