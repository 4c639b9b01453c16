"""Sparse exact linear algebra over any Python field type.

Sparse vectors are dicts mapping hashable keys to nonzero coefficients:
`bump` adds into one entry, `Combination` is the vector type behind the
algebra, PBW, module and tensor-space elements, `fold_word` multiplies out
a word on one through a bounded suffix memo (`LruMemo`), `linear_sum` adds
up c * word over an element's words, and elimination treats such dicts as
rows.  Coefficients need only +, -, *, / and truthiness (Fraction and Q(v)
alike); no floating point anywhere, so a reported rank or solution is exact.
"""

from collections import OrderedDict
from fractions import Fraction
from itertools import count

from .qv import RF_ONE, format_coeff, parse_coeff


def bump(terms, key, c):
    """terms[key] += c, keeping the dict free of zero coefficients."""
    if not c:
        return
    prev = terms.get(key)
    if prev is None:
        terms[key] = c
        return
    s = prev + c
    if s:
        terms[key] = s
    else:
        del terms[key]


def json_terms(obj, shape, strings, ints=()):
    """The list obj["terms"] of a JSON element, after checking that obj is
    a dict with an integer (not a boolean) at each key of ints and that
    each term is a dict with a string at each key of strings; any other
    shape raises ValueError saying that an element is shape."""
    terms = obj.get("terms") if isinstance(obj, dict) else None
    if not (isinstance(terms, list)
            and all(type(obj.get(k)) is int for k in ints)
            and all(isinstance(t, dict)
                    and all(isinstance(t.get(k), str) for k in strings)
                    for t in terms)):
        raise ValueError(f"an element is {shape}, got {obj!r:.80}")
    return terms


class Combination:
    """Finite linear combination {key: nonzero coefficient} of degree d.

    Sums of combinations of different types or degrees are refused
    (TypeError, ValueError).  Subclasses say what the keys are and how they
    print; those whose keys have to_json and a read_label(obj, d) parser
    share the JSON form {"d", "terms"}.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = d
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _like(self, terms):
        """A combination of the same type and degree holding terms, which
        must have no zero coefficients."""
        out = object.__new__(type(self))
        out.d = self.d
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.d != other.d:
            raise ValueError("mixed degrees")
        t = dict(self.terms)
        for k, c in other.terms.items():
            bump(t, k, c)
        return self._like(t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return self._like({})
        return self._like({k: c * c0 for k, c0 in self.terms.items()})

    def apply(self, column):
        """The linear map with column(key) = {key2: coefficient} as the
        image of each key, applied to self: sum_k c_k column(k), of the
        same type and degree."""
        out = {}
        for k, c in self.terms.items():
            for k2, c2 in column(k).items():
                bump(out, k2, c * c2)
        return self._like(out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def to_json(self):
        return {"d": self.d,
                "terms": [{"label": key.to_json(), "coeff": format_coeff(c)}
                          for key, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, obj):
        """Parse the to_json form.  Any other JSON shape raises ValueError,
        and so does a label that read_label finds invalid or of the wrong
        size."""
        terms = json_terms(obj, '{"d": integer, "terms": [{"label": ..., '
                           '"coeff": string}, ...]}', ("coeff",), ("d",))
        d = obj["d"]
        return cls(d, {cls.read_label(t["label"], d): parse_coeff(t["coeff"])
                       for t in terms})


class LruMemo:
    """A memo charging each entry a size: past `limit` the least recently
    used go, and a larger entry is handed back unstored.  Stored values are
    shared, so read-only."""

    def __init__(self, limit):
        self.limit, self.size = limit, 0
        self.entries = OrderedDict()    # key -> (value, size)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, key):
        """Membership without marking the entry as used."""
        return key in self.entries

    def get(self, key):
        got = self.entries.get(key)
        if got is not None:
            self.entries.move_to_end(key)
            return got[0]

    def put(self, key, value, size):
        if size > self.limit:
            return value
        while self.size + size > self.limit:
            _, (_, old) = self.entries.popitem(last=False)
            self.size -= old
        self.entries[key] = (value, size)
        self.size += size
        return value


# bound of a word memo (`fold_word`) in Laurent terms of the stored
# coefficients: 35,000 in the MU_v(2,3) memo after a pbw-modules batch, at
# most 80 per entry.  An entry over a 64th of it is not stored, or the forms
# of e^a f, a <= 1200, would fill it, shared by no other word (+4.5 MiB RSS)
FOLD_MEMO_TERMS = 1 << 16

_NODE_IDS = count()
_MINUS_ONE = -RF_ONE


def fold_word(memo, root_key, root, letters, step, alphabet):
    """letters * root(), with step(letter, x) = letter * x, folded right to
    left with no recursion; a letter outside alphabet raises ValueError
    before any step.  With a memo, the empty word is stored under root_key
    and each suffix as (id, value) under (id of the suffix one letter
    shorter, its first letter), charged one plus the Laurent terms of its
    coefficients, so words sharing a tail share its read-only value.  Ids
    are never reused: a key left by an evicted suffix names no later one."""
    for g in letters:
        if g not in alphabet:
            raise ValueError(f"unknown generator {g!r}")
    if memo is None:
        x = root()
        for g in reversed(letters):
            x = step(g, x)
        return x
    probe, touch = memo.entries.get, memo.entries.move_to_end
    node = memo.get(root_key) or _stored(memo, root_key, root())
    for g in reversed(letters):
        key = (node[0], g)
        got = probe(key)
        if got:
            touch(key)
        node = got[0] if got else _stored(memo, key, step(g, node[1]))
    return node[1]


def linear_sum(pairs):
    """sum c * x over (c, x) pairs of Combinations of one type and degree,
    in one dict, with no x written into; a lone x with c == 1 is returned."""
    pairs = list(pairs)
    if len(pairs) == 1 and pairs[0][0] == RF_ONE:
        return pairs[0][1]
    out = {}
    for c, x in pairs:
        one, minus = c == RF_ONE, c == _MINUS_ONE   # no Q(v) product by +-1
        for k, c0 in x.terms.items():
            bump(out, k, c0 if one else -c0 if minus else c * c0)
    return pairs[0][1]._like(out) if pairs else Combination(None)


def _stored(memo, key, x):
    node = (next(_NODE_IDS), x)
    size = stored_terms(x.terms.values())
    return memo.put(key, node, size) if size <= FOLD_MEMO_TERMS >> 6 else node


def stored_terms(coeffs):
    """The charge of a memo entry holding Q(v) coeffs: one plus their
    Laurent terms."""
    return 1 + sum(len(c.num.c) + len(c.den.c) for c in coeffs)


def _coeff_size(c):
    """Crude cost estimate used to pick cheap pivots."""
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    try:
        return len(c.num.c) + len(c.den.c)
    except AttributeError:
        return 1


def reduce_row(row, pivots):
    """Reduce a row against unit pivot rows; returns the residual dict,
    with int entries read as Fractions so that no division makes a float."""
    r = {col: Fraction(c) if isinstance(c, int) else c
         for col, c in row.items() if c}
    for col, prow in pivots:
        c = r.pop(col, None)
        if c is None:
            continue
        m = -c
        for col2, x2 in prow.items():
            if col2 != col:
                bump(r, col2, m * x2)
    return r


def eliminate(rows):
    """Forward elimination; returns [(pivot_col, unit_row), ...].

    Each stored row is scaled so its pivot entry is 1.  Pivot columns are
    chosen to minimize coefficient size, which keeps blow-up down when the
    entries are rational functions.
    """
    pivots = []
    for row in rows:
        r = reduce_row(row, pivots)
        if not r:
            continue
        col = min(r, key=lambda k: _coeff_size(r[k]))
        inv = 1 / r[col]
        pivots.append((col, {c2: x2 * inv for c2, x2 in r.items()}))
    return pivots


def rank_of_rows(rows):
    """Exact rank of the sparse matrix whose rows are the given dicts."""
    return len(eliminate(rows))


_RHS = ("rhs",)


def solve_unique(equations, rhs):
    """Solve a linear system that must have exactly one solution.

    equations: list of dicts var -> coeff; rhs: list of coeffs.  Returns
    {var: value} covering every variable that appears.  Raises ValueError
    when the system is inconsistent or underdetermined.
    """
    seen = set()
    pivots = []
    for eq, b in zip(equations, rhs):
        row = {var: c for var, c in eq.items() if c}
        seen.update(row)
        if b:
            row[_RHS] = b
        r = reduce_row(row, pivots)
        if not r:
            continue
        cols = [c for c in r if c is not _RHS]
        if not cols:
            raise ValueError("inconsistent linear system")
        col = min(cols, key=lambda k: _coeff_size(r[k]))
        inv = 1 / r[col]
        prow = {c2: x2 * inv for c2, x2 in r.items()}
        # keep earlier pivot rows reduced against the new one
        for i, (c0, prow0) in enumerate(pivots):
            if col in prow0:
                pivots[i] = (c0, reduce_row(prow0, [(col, prow)]))
        pivots.append((col, prow))
    solved = {col for col, _ in pivots}
    if seen - solved:
        raise ValueError("underdetermined linear system")
    out = {}
    for col, prow in pivots:
        extra = [c for c in prow if c is not _RHS and c != col]
        if extra:
            raise ValueError("underdetermined linear system")
        out[col] = prow.get(_RHS, 0)
    return out
