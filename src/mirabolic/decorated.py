"""Decorated nonnegative integer matrices and marked sequences.

A decorated matrix is a pair (A, delta) where A has nonnegative integer
entries and delta is a set of positions (i, j), 1-based, such that every
marked position carries a positive entry and the marks form an antichain:
no two marks share a row or a column, and listing them by increasing row
the columns strictly decrease.

A marked sequence is a pair (seq, marks): a word i_1 ... i_d over the
alphabet {1, ..., n} together with a set of positions j_1 < ... < j_k whose
letters strictly decrease, i_{j_1} > ... > i_{j_k}.  Marked sequences are in
bijection with decorated n-by-d matrices whose column sums are all 1: column
r carries its single 1 in row i_r, and position j in marks corresponds to
the mark (i_j, j).
"""

from __future__ import annotations

from math import comb


class Record:
    """Base of the package's immutable value types, which generate no code
    at import.  A subclass names its fields in __slots__, and Record(*fields)
    sets them in that order; a subclass that checks or converts its fields
    does so in its own __init__ first.  Constructors write the slots, then
    _key and _hash, through the writers in `_put`, which skip
    object.__setattr__'s name lookup.  A value equals only a value of
    its own type with equal fields, hashes them once, and refuses
    assignment."""

    __slots__ = ("_key", "_hash")

    def __init_subclass__(cls):
        cls._put = tuple(getattr(cls, name).__set__
                         for name in cls.__slots__ + Record.__slots__)

    def __init__(self, *fields):
        put = self._put
        if len(fields) != len(put) - 2:
            raise TypeError(f"{type(self).__name__} takes {len(put) - 2} "
                            f"fields, got {len(fields)}")
        for write, x in zip(put, fields + (fields, None)):
            write(self, x)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        if self._hash is None:
            self._put[-1](self, hash(self._key))
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}{self._key!r}"


class DecoratedMatrix(Record):
    """A tuple of rows, each a tuple of ints, and an iterable of marks (i, j),
    taken as given (from_json checks JSON); it stores its row and column
    sums as `sums`."""

    __slots__ = ("a", "delta", "sums")

    def __init__(self, a, delta=frozenset()):
        delta = frozenset(delta)
        put_a, put_delta, put_sums, put_key, put_hash = self._put
        put_a(self, a)
        put_delta(self, delta)
        put_sums(self, (tuple(map(sum, a)), tuple(map(sum, zip(*a)))))
        put_key(self, (a, delta))
        put_hash(self, None)

    @property
    def n_rows(self):
        return len(self.a)

    @property
    def n_cols(self):
        return len(self.a[0]) if self.a else 0

    @property
    def d(self):
        return sum(self.sums[0])

    def entry(self, i, j):
        """1-based access."""
        return self.a[i - 1][j - 1]

    def sorted_delta(self):
        return tuple(sorted(self.delta))

    def sort_key(self):
        flat = tuple(x for row in self.a for x in row)
        return (self.n_rows, self.n_cols, flat, self.sorted_delta())

    def to_json(self):
        return {"A": [list(row) for row in self.a],
                "delta": [list(p) for p in self.sorted_delta()]}

    @staticmethod
    def from_json(obj):
        """Read the to_json form; any other JSON shape raises ValueError."""
        if not (isinstance(obj, dict) and _int_rows(obj.get("A"))
                and _int_rows(obj.get("delta"), 2)):
            raise ValueError(f'a label is {{"A": rows of integers, "delta": '
                             f'[[i, j], ...]}}, got {obj!r:.80}')
        return DecoratedMatrix(tuple(tuple(r) for r in obj["A"]),
                               frozenset(tuple(p) for p in obj["delta"]))

    def __str__(self):
        rows = ";".join(",".join(str(x) for x in row) for row in self.a)
        marks = "{" + ",".join(f"({i},{j})" for i, j in self.sorted_delta()) + "}"
        return f"[{rows}]{marks}"


def _int_rows(obj, width=None):
    """Whether obj is a JSON list of lists of integers (not booleans), each
    of the given width if there is one."""
    return isinstance(obj, list) and all(
        isinstance(row, list) and width in (None, len(row))
        and all(type(x) is int for x in row) for row in obj)


class MarkedSequence(Record):
    """A tuple of ints and an iterable of ints, taken as given (from_json
    checks JSON)."""

    __slots__ = ("seq", "marks")

    def __init__(self, seq, marks=frozenset()):
        Record.__init__(self, seq, frozenset(marks))

    @property
    def d(self):
        return len(self.seq)

    def sorted_marks(self):
        return tuple(sorted(self.marks))

    def sort_key(self):
        return (self.seq, self.sorted_marks())

    def to_json(self):
        return {"seq": list(self.seq), "marks": sorted(self.marks)}

    @staticmethod
    def from_json(obj):
        """Read the to_json form; any other JSON shape raises ValueError."""
        if not (isinstance(obj, dict)
                and _int_rows([obj.get("seq"), obj.get("marks")])):
            raise ValueError(f'a label is {{"seq": [integers], "marks": '
                             f'[integers]}}, got {obj!r:.80}')
        return MarkedSequence(tuple(obj["seq"]), frozenset(obj["marks"]))

    def __str__(self):
        word = "".join(str(x) for x in self.seq)
        return f"({word},{{{','.join(str(j) for j in sorted(self.marks))}}})"


def validate(x):
    """Check the defining constraints; returns (ok, reason)."""
    if isinstance(x, DecoratedMatrix):
        if not x.a or any(len(row) != x.n_cols for row in x.a):
            return False, "ragged matrix"
        for row in x.a:
            for e in row:
                if e < 0:
                    return False, f"negative entry {e}"
        for i, j in x.delta:
            if not (1 <= i <= x.n_rows and 1 <= j <= x.n_cols):
                return False, f"mark ({i},{j}) out of range"
            if x.entry(i, j) <= 0:
                return False, f"mark ({i},{j}) sits on a zero entry"
        marks = x.sorted_delta()
        for (i1, j1), (i2, j2) in zip(marks, marks[1:]):
            if i1 == i2:
                return False, f"marks share row {i1}"
            if j1 <= j2:
                return False, "mark columns must strictly decrease down rows"
        return True, "ok"
    if isinstance(x, MarkedSequence):
        if not x.seq:
            return False, "empty sequence"
        for e in x.seq:
            if e < 1:
                return False, f"letter {e} out of range"
        for j in x.marks:
            if not (1 <= j <= x.d):
                return False, f"mark position {j} out of range"
        pos = x.sorted_marks()
        for j1, j2 in zip(pos, pos[1:]):
            if x.seq[j1 - 1] <= x.seq[j2 - 1]:
                return False, "marked letters must strictly decrease"
        return True, "ok"
    return False, f"unsupported type {type(x).__name__}"


def row_col_sums(x):
    """(row sums, column sums) of the underlying matrix."""
    if isinstance(x, MarkedSequence):
        x = sequence_to_matrix(x)
    return x.sums


def transpose_decorated(x):
    a_t = tuple(tuple(x.a[i][j] for i in range(x.n_rows))
                for j in range(x.n_cols))
    return DecoratedMatrix(a_t, frozenset((j, i) for i, j in x.delta))


# the six decorations of a 2x2 matrix, in display order
D_EMPTY = frozenset()
D_11 = frozenset({(1, 1)})
D_12 = frozenset({(1, 2)})
D_21 = frozenset({(2, 1)})
D_1221 = frozenset({(1, 2), (2, 1)})
D_22 = frozenset({(2, 2)})

ALL_DELTAS = (D_EMPTY, D_11, D_12, D_21, D_1221, D_22)


def decorations(a):
    """Every decoration of the matrix a, the empty one first: the antichains
    of its positive entries, grown by rows: last mark lowest, leftmost."""
    out = [()]
    for i, row in enumerate(a, start=1):
        for j, x in enumerate(row, start=1):
            if x > 0:
                out += [ac + ((i, j),) for ac in out
                        if not ac or (ac[-1][0] < i and j < ac[-1][1])]
    return [frozenset(ac) for ac in out]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_xi(n, d, tensor=False):
    """All decorated matrices of size n with entry sum d, sorted.

    With tensor=True, instead enumerate the marked sequences of length d over
    {1, ..., n} (equivalently: decorated matrices with all column sums 1).
    """
    if tensor:
        out = []
        seqs = [()]
        for _ in range(d):
            seqs = [s + (a,) for s in seqs for a in range(1, n + 1)]
        for seq in seqs:
            # choose mark positions left to right; letters must decrease
            chosen = [[]]
            for j in range(1, d + 1):
                new = []
                for ch in chosen:
                    if not ch or seq[ch[-1] - 1] > seq[j - 1]:
                        new.append(ch + [j])
                chosen.extend(new)
            for ch in chosen:
                out.append(MarkedSequence(seq, frozenset(ch)))
        out.sort(key=MarkedSequence.sort_key)
        return out
    out = []
    for flat in _compositions(d, n * n):
        a = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        for delta in decorations(a):
            out.append(DecoratedMatrix(a, delta))
    out.sort(key=DecoratedMatrix.sort_key)
    return out


def count_xi_tensor(n, d):
    """Closed-form count of marked sequences of length d over {1, ..., n}."""
    return sum(comb(d, k) * comb(n, k) * n ** (d - k)
               for k in range(min(n, d) + 1))


class SequenceStats(Record):
    __slots__ = ("ones", "twos", "inversions")


def sequence_stats(ms):
    """Letter counts and inversion number of a sequence.  Inversions are
    pairs p < q with i_p > i_q."""
    seq = ms.seq if isinstance(ms, MarkedSequence) else tuple(ms)
    ones = sum(1 for x in seq if x == 1)
    twos = sum(1 for x in seq if x == 2)
    inv = sum(1 for p in range(len(seq)) for q in range(p + 1, len(seq))
              if seq[p] > seq[q])
    return SequenceStats(ones, twos, inv)


def sequence_to_matrix(ms, n=None):
    """The decorated n-by-d matrix with unit column sums matching ms."""
    if n is None:
        n = max(ms.seq)
    d = ms.d
    a = [[0] * d for _ in range(n)]
    for r, letter in enumerate(ms.seq, start=1):
        if letter > n:
            raise ValueError(f"letter {letter} exceeds row count {n}")
        a[letter - 1][r - 1] = 1
    delta = frozenset((ms.seq[j - 1], j) for j in ms.marks)
    return DecoratedMatrix(tuple(tuple(row) for row in a), delta)


def matrix_to_sequence(dm):
    """Inverse of sequence_to_matrix; requires unit column sums."""
    _, co = row_col_sums(dm)
    if any(c != 1 for c in co):
        raise ValueError("matrix must have all column sums equal to 1")
    seq = []
    for j in range(1, dm.n_cols + 1):
        for i in range(1, dm.n_rows + 1):
            if dm.entry(i, j) == 1:
                seq.append(i)
                break
    marks = frozenset(j for i, j in dm.delta)
    return MarkedSequence(tuple(seq), marks)


def decorated2(a11, a12, a21, a22, delta=D_EMPTY):
    """Convenience constructor for 2x2 labels."""
    return DecoratedMatrix(((a11, a12), (a21, a22)), delta)


def diag2(r, s, delta=D_EMPTY):
    return decorated2(r, 0, 0, s, delta)
