"""Brute-force finite-field verification of the convolution algebra.

Basis symbols correspond to orbits of (flag, flag, vector) triples over F_p.
Products are obtained by literally counting the points of the convolution
sum for several primes and interpolating the counts as polynomials in q,
with q = p at each prime.  Nothing here touches the closed-form case tables,
so agreement between the two is a genuine cross-check.

Conventions: vectors are length-d coordinate tuples over F_p, also addressed
by the integer index sum(x_k p^k); subspaces are kept as canonical reduced
row-echelon bases.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice, product

import numpy as np

from .decorated import (ALL_DELTAS, MarkedSequence, decorated2, enumerate_xi,
                        row_col_sums, validate)
from .qv import lagrange_interpolate, substitute_q
from .schur_algebra import SchurElement

SIZE_GUARD = 1 << 20


def is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def primes_list(count, start=2):
    out = []
    n = start
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


# --- small exact linear algebra over F_p -----------------------------------

def rref(rows, p):
    """Canonical reduced row-echelon basis (tuple of tuples, no zero rows)."""
    m = [list(r) for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(m)):
            if m[r][col] % p:
                pr = r
                break
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        inv = pow(m[pivot_row][col], p - 2, p) if p > 2 else m[pivot_row][col]
        m[pivot_row] = [(x * inv) % p for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] % p:
                c = m[r][col]
                m[r] = [(a - c * b) % p for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return tuple(tuple(r) for r in m[:pivot_row] if any(r))


def fp_rank(rows, p):
    return len(rref(rows, p))


def in_span(basis, vec, p):
    """Membership test against an echelon basis."""
    v = list(vec)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            c = v[lead]
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return not any(v)


@dataclass(frozen=True)
class PrimeFieldSubspace:
    p: int
    d: int
    basis: tuple

    @staticmethod
    def from_rows(rows, d, p):
        return PrimeFieldSubspace(p, d, rref(rows, p))

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        return in_span(self.basis, vec, self.p)


@dataclass(frozen=True)
class FlagTriple:
    F: tuple
    Fp: tuple
    v: tuple

    @property
    def p(self):
        chain = self.F or self.Fp
        return chain[0].p

    @property
    def d(self):
        return len(self.v)


def _all_subspace_bases(d, p, r):
    """Echelon bases of all r-dimensional subspaces of F_p^d, one at a
    time."""
    for pivots in combinations(range(d), r):
        free = [(i, j) for i, pc in enumerate(pivots)
                for j in range(pc + 1, d) if j not in pivots]
        for vals in product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(r)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), val in zip(free, vals):
                rows[i][j] = val
            yield tuple(tuple(row) for row in rows)


def _subspace_count(d, r, p):
    """Number of r-dimensional subspaces of F_p^d (a Gaussian binomial)."""
    num = den = 1
    for i in range(r):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def enumerate_flags(d, p, kind):
    """Flags over F_p^d: kind is "complete" or an integer r for the two-step
    flag 0 <= F_1 <= F_p^d with dim F_1 = r.  The full space is implicit, so a
    two-step flag is returned as a single subspace and a complete flag as the
    chain of dimensions 1..d-1."""
    if p ** d > SIZE_GUARD:
        raise ValueError(f"p^d = {p**d} exceeds the enumeration guard")
    if kind == "complete":
        chains = [()]
        for r in range(1, d):
            new = []
            for chain in chains:
                prev = chain[-1].basis if chain else ()
                for basis in _all_subspace_bases(d, p, r):
                    if all(in_span(basis, row, p) for row in prev):
                        new.append(chain
                                   + (PrimeFieldSubspace(p, d, basis),))
            chains = new
        return chains
    r = int(kind)
    if not 0 <= r <= d:
        raise ValueError(f"two-step dimension {r} out of range")
    return [(PrimeFieldSubspace(p, d, b),) for b in _all_subspace_bases(d, p, r)]


# --- orbit classification ---------------------------------------------------

# every label the oracle emits is built once and then shared
_label = cache(decorated2)


def _pair_matrix(f1, f2, d, p):
    """2x2 dimension matrix of a pair of subspaces."""
    i11 = f1.dim + f2.dim - fp_rank(f1.basis + f2.basis, p)
    return (i11, f1.dim - i11, f2.dim - i11, d - f1.dim - f2.dim + i11)


def _vector_zone(v, f1, f2, p):
    """Which of the six membership cases the vector falls in, 0..5."""
    if not any(v):
        return 0
    in1 = f1.contains(v)
    in2 = f2.contains(v)
    if in1 and in2:
        return 1
    if in1:
        return 2
    if in2:
        return 3
    if in_span(rref(f1.basis + f2.basis, p), v, p):
        return 4
    return 5


def orbit_invariant(t):
    """Decorated matrix classifying the orbit of a (2-step, 2-step, vector)
    triple."""
    f1, f2 = t.F[0], t.Fp[0]
    p, d = t.p, t.d
    a11, a12, a21, a22 = _pair_matrix(f1, f2, d, p)
    delta = ALL_DELTAS[_vector_zone(t.v, f1, f2, p)]
    return _label(a11, a12, a21, a22, delta)


def canonical_representative(label, p):
    """A distinguished triple in the orbit: coordinates are grouped in block
    order (1,1), (1,2), (2,1), (2,2), the first flag spans the first two
    blocks, the second flag the first and third, and the vector is the sum of
    the first coordinate of each marked block."""
    (a11, a12), (a21, a22) = label.a
    d = label.d
    starts = {(1, 1): 0, (1, 2): a11, (2, 1): a11 + a12,
              (2, 2): a11 + a12 + a21}
    def unit(i):
        row = [0] * d
        row[i] = 1
        return tuple(row)
    f_rows = [unit(i) for i in range(a11 + a12)]
    fp_rows = [unit(i) for i in range(a11)]
    fp_rows += [unit(a11 + a12 + i) for i in range(a21)]
    v = [0] * d
    for pos in label.delta:
        v[starts[pos]] = 1
    return FlagTriple((PrimeFieldSubspace.from_rows(f_rows, d, p),),
                      (PrimeFieldSubspace.from_rows(fp_rows, d, p),),
                      tuple(v))


# --- the counting kernel -----------------------------------------------------

class _PointMemo:
    """Point sets and shift permutations shared by every table of one
    (d, p), least recently used first out.

    Each entry is charged its number of point indices, at most `limit`;
    once the entries would hold more than `limit` of them the oldest are
    dropped.
    """

    def __init__(self, limit):
        self.limit = limit
        self.size = 0
        self.entries = OrderedDict()    # key -> (value, size)

    def get(self, key):
        got = self.entries.get(key)
        if got is None:
            return None
        self.entries.move_to_end(key)
        return got[0]

    def put(self, key, value, size):
        while self.size + size > self.limit:
            _, (_, old) = self.entries.popitem(last=False)
            self.size -= old
        self.entries[key] = (value, size)
        self.size += size
        return value


_POINTS = _PointMemo(SIZE_GUARD)


def _frozen(values):
    """A read-only index array, since every caller gets the same object.
    It keeps numpy's own index type: an int32 index array is converted on
    every use, which made a table build about 1.8 times slower."""
    arr = np.asarray(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _points_of(bases, r, d, p):
    """Indices of the points of the span of each basis of r rows: one row of
    p^r indices per basis."""
    rows = np.array(bases, dtype=np.int64).reshape(len(bases), r, d)
    coeffs = np.indices((p,) * r).reshape(r, p ** r)
    idx = np.zeros((len(bases), p ** r), dtype=np.int64)
    for k in range(d):
        idx += (rows[:, :, k] @ coeffs % p) * p ** k
    return _frozen(idx)


def _span_indices(basis, d, p):
    """Indices of all points of the span of the given echelon rows."""
    key = ("span", basis, d, p)
    got = _POINTS.get(key)
    if got is None:
        got = _POINTS.put(key, _points_of((basis,), len(basis), d, p)[0],
                          p ** len(basis))
    return got


def _middle_chunks(d, p, r):
    """All r-dimensional subspaces in enumeration order, in chunks of at
    most SIZE_GUARD / p^d, so that a chunk has at most SIZE_GUARD points:
    (echelon bases, indices of their points, one row per subspace)."""
    size = max(1, SIZE_GUARD // p ** d)
    todo = None     # the enumeration, from the first chunk not kept on
    for lo in range(0, _subspace_count(d, r, p), size):
        key = ("middle", d, p, r, lo)
        got = _POINTS.get(key)
        if got is None:
            if todo is None:
                todo = islice(_all_subspace_bases(d, p, r), lo, None)
            part = list(islice(todo, size))
            got = _POINTS.put(key, (part, _points_of(part, r, d, p)),
                              len(part) * p ** r)
        elif todo is not None:
            for _ in islice(todo, size):    # keep the enumeration in step
                pass
        yield got


def _span_mask(basis, d, p):
    mask = np.zeros(p ** d, dtype=bool)
    mask[_span_indices(basis, d, p)] = True
    return mask


def _shift_perm(v, d, p):
    """perm[u] = index of v - u, coordinatewise mod p."""
    key = ("shift", v, p)
    got = _POINTS.get(key)
    if got is None:
        idx = np.arange(p ** d, dtype=np.int64)
        perm = np.zeros(p ** d, dtype=np.int64)
        for k in range(d):
            perm += ((v[k] - idx // p ** k) % p) * p ** k
        got = _POINTS.put(key, _frozen(perm), p ** d)
    return got


def _sums_in_chunk(a, meets, h_bases, h_pts, offs, shift):
    """The points of A + H for each middle subspace H of a chunk where that
    sum is a proper subspace.  `meets` holds dim(A & H) and `h_pts` the
    points of each H; every point is mapped through `shift` when that is
    given (the caller maps `h_pts`), then offset by p^d times the row of its
    H in the chunk."""
    d, p, mid_dim = a.d, a.p, len(h_bases[0])
    full = a.dim + mid_dim - meets == d
    a_in_h = ~full & (meets == a.dim)               # A + H = H
    h_in_a = ~full & ~a_in_h & (meets == mid_dim)   # A + H = A
    rest = np.flatnonzero(~(full | a_in_h | h_in_a))
    in_a = _span_indices(a.basis, d, p)
    if shift is not None:
        in_a = shift[in_a]
    parts = [(h_pts[a_in_h] + offs[a_in_h, None]).ravel(),
             (in_a + offs[h_in_a, None]).ravel()]
    if len(rest):
        sums = [_span_indices(rref(a.basis + h_bases[i], p), d, p)
                for i in rest.tolist()]
        flat = np.concatenate(sums)
        if shift is not None:
            flat = shift[flat]
        parts.append(flat + np.repeat(offs[rest], [len(x) for x in sums]))
    return np.concatenate(parts)


def _count(rep, mid_dim):
    """Counts of the convolution sum at the triple rep = (F, chain, v) over
    the middle subspaces H of one dimension, in the sense of Beilinson,
    Lusztig and MacPherson: {(left label, dims, c, m): number of (H, u)}.

    The chain C_1 < ... < C_{N-1} is F' alone (N = 2) for a two-step triple
    and the complete flag (N = d) for a tensor triple; C_0 = 0 and
    C_N = F_p^d.  Every (H, u) pair is counted: (F, H, u) by its decorated
    matrix, and (H, chain, x = v - u) by dims = (dim(H & C_r), 0 < r < N)
    and the jump pair c = #{r < N: x not in H + C_r}, m = #{r < N: x not
    in C_r}.  So u runs over all points w of F_p^d, and the pair adds to
    the code K zone(w) + (N + 1) c(v - w) + m(v - w), K = (N + 1)^2, where
    zone(w) = 5 - [w in F+H] - 2[w in F] - [w in H] - [w = 0] is the
    membership case of `_vector_zone`.  Split off what does not depend on
    H, base(w) = (5 - 2[w in F]) K + N (N + 1) + m(v - w), whose histogram
    is taken once; the rest, K([w in F+H] + [w in H] + [w = 0])
    + (N + 1) sum_r [v - w in H + C_r], is zero outside H, F + H and the
    v - (H + C_r), and constant where a sum is the whole space, so only the
    points of the proper sums are reclassified.  The middle subspaces go in
    chunks (`_middle_chunks`), each H with its points offset by p^d times
    its row in the chunk, so one pass of array operations reclassifies a
    whole chunk.  The subspaces H with the same dim(F & H) and dims form a
    group: they share their labels and which sums are full.
    """
    f, v, d, p = rep.F[0], rep.v, rep.d, rep.p
    if p ** d > SIZE_GUARD:
        raise ValueError(f"p^d = {p**d} exceeds the enumeration guard")
    chain = (PrimeFieldSubspace(p, d, ()),) + rep.Fp
    n, big_n = p ** d, len(chain)
    k = (big_n + 1) ** 2
    perm = _shift_perm(v, d, p)
    # base(w), with m(v - w) = N - #{r < N: w in v - C_r}
    base = np.full(n, 5 * k + big_n * (big_n + 2), dtype=np.int64)
    base[_span_indices(f.basis, d, p)] -= 2 * k
    for c in chain:
        base[perm[_span_indices(c.basis, d, p)]] -= 1
    base_hist = np.bincount(base, minlength=6 * k)
    masks = [_span_mask(a.basis, d, p) for a in (f,) + chain[1:]]
    powers = p ** np.arange(d + 1)
    totals = {}     # group -> [subspaces H, histogram corrections]
    moved = None
    for h_bases, chunk_h in _middle_chunks(d, p, mid_dim):
        rows = len(h_bases)
        offs = np.arange(rows) * n
        # dim(F & H) and dim(H & C_r), 0 < r < N, from the points of H they
        # contain; together they are the group of H
        meet_l, *meets = [np.searchsorted(powers, mask[chunk_h].sum(axis=1))
                          for mask in masks]
        slots = {}
        group = np.array([slots.setdefault(g, len(slots)) for g in zip(
            meet_l.tolist(), *[meet.tolist() for meet in meets])])
        if moved is None:   # the first chunk is the largest
            moved = np.zeros(rows * n, dtype=np.min_scalar_type(
                3 * k + big_n * (big_n + 1)))
        moved[(chunk_h + offs[:, None]).ravel()] = k        # w in H
        moved[offs] += k                                    # w = 0
        sum_l = _sums_in_chunk(f, meet_l, h_bases, chunk_h, offs, None)
        moved[sum_l] += k                                   # w in F + H
        # the points moved so far: F + H, which contains H, or H where
        # F + H is the whole space
        full = f.dim + mid_dim - meet_l == d
        pts = [(chunk_h[full] + offs[full, None]).ravel(), sum_l]
        # w in v - (H + C_r), where that is proper; H + C_0 = H
        chunk_vh = perm[chunk_h]
        right = [_sums_in_chunk(c, meet, h_bases, chunk_vh, offs, perm)
                 for c, meet in zip(chain[1:], meets)]
        if mid_dim < d:
            right.append((chunk_vh + offs[:, None]).ravel())
        for where in right:
            # moved is nonzero exactly on the points listed so far
            was = moved[where]
            pts.append(where[was == 0])
            moved[where] = was + (big_n + 1)
        pts = np.concatenate(pts)
        row = pts // n
        old = base[pts - row * n] + (6 * k * group)[row]
        size = len(slots) * 6 * k
        fix = (np.bincount(old - moved[pts], minlength=size)
               - np.bincount(old, minlength=size)).reshape(len(slots), -1)
        n_h = np.bincount(group, minlength=len(slots))
        for g, count, corr in zip(slots, n_h.tolist(), fix):
            acc = totals.setdefault(g, [0, 0])
            acc[0] += count
            acc[1] += corr
        moved[pts] = 0
    counts = {}
    for (i11, *dims), (n_h, fix) in totals.items():
        al = (i11, f.dim - i11, mid_dim - i11, d - f.dim - mid_dim + i11)
        # a full sum lowers the code of every point by K (left) or N + 1
        shift = k * (al[3] == 0) + (big_n + 1) * sum(
            mid_dim + sub.dim - meet == d
            for sub, meet in zip(chain, [0] + dims))
        cnt = (n_h * base_hist + fix)[shift:]
        for code in np.flatnonzero(cnt).tolist():
            zone, rest = divmod(code, k)
            c, m = divmod(rest, big_n + 1)
            counts[_label(*al, ALL_DELTAS[zone]), tuple(dims), c, m] = \
                int(cnt[code])
    return counts


_CONV_CACHE = {}

# the jump pair (c, m) of (H, F', x) -> the zone of `_vector_zone`
_ZONES = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}


def _conv_table(d, out_label, mid_dim, p):
    """Counts of the convolution sum at the canonical triple of out_label,
    restricted to middle subspaces of the given dimension, for every pair of
    (left, right) orbit labels at once (see `_count`)."""
    key = (d, out_label, mid_dim, p)
    got = _CONV_CACHE.get(key)
    if got is not None:
        return got
    rep = canonical_representative(out_label, p)
    fp1 = rep.Fp[0]
    counts = {}
    for (lab_l, (i11,), c, m), n in _count(rep, mid_dim).items():
        ar = (i11, mid_dim - i11, fp1.dim - i11, d - mid_dim - fp1.dim + i11)
        counts[lab_l, _label(*ar, ALL_DELTAS[_ZONES[c, m]])] = n
    _CONV_CACHE[key] = counts
    return counts


def convolution_count(left, right, out, p):
    """Number of (H, u) pairs realizing the product coefficient at out."""
    _, co_l = row_col_sums(left)
    ro_r, co_r = row_col_sums(right)
    ro_o, co_o = row_col_sums(out)
    if co_l != ro_r or ro_o != row_col_sums(left)[0] or co_o != co_r:
        return 0
    table = _conv_table(out.d, out, ro_r[0], p)
    return table.get((left, right), 0)


def _candidate_outputs(d, ro, co):
    outs = []
    lo = max(0, ro[0] - co[1])
    hi = min(ro[0], co[0])
    for a11 in range(lo, hi + 1):
        a12 = ro[0] - a11
        a21 = co[0] - a11
        a22 = ro[1] - a21
        for delta in ALL_DELTAS:
            lab = _label(a11, a12, a21, a22, delta)
            if validate(lab)[0]:
                outs.append(lab)
    return outs


def _checked_primes(primes, d):
    """The distinct primes, sorted; raises ValueError unless they are all
    prime, there are at least d^2 + 1 of them and the largest has
    p^d <= SIZE_GUARD."""
    primes = sorted(set(primes))
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if len(primes) < d * d + 1:
        raise ValueError(f"need at least {d*d + 1} primes, got {len(primes)}")
    if primes[-1] ** d > SIZE_GUARD:    # refused before any table is built
        raise ValueError(f"p^d = {primes[-1]**d} exceeds the enumeration "
                         f"guard")
    return primes


def interpolation_primes(d):
    """The d^2 + 1 primes that interpolation at d needs.  Raises ValueError
    if the last of them has p^d > SIZE_GUARD; as p^d >= 2^d, a d past the
    guard's bit length is refused without listing the primes."""
    if d < SIZE_GUARD.bit_length():
        primes = primes_list(d * d + 1)
        if primes[-1] ** d <= SIZE_GUARD:
            return primes
    raise ValueError(f"the oracle at d={d} counts more than {SIZE_GUARD} "
                     f"points per prime")


def _interpolated(outs, primes, d, count):
    """{out: nonzero coefficient} from the point counts count(out, p).

    The counts at each prime are interpolated in q with degree bound d^2;
    if an output's counts fail to interpolate (bound breach), the bound is
    doubled once, with the primes extended to 2 d^2 + 1 of them and checked
    again against the size guard.
    """
    # prime by prime, so the tables of one prime share its point sets
    counts = [[count(out, p) for out in outs] for p in primes]
    terms = {}
    for out, col in zip(outs, zip(*counts)):
        try:
            poly = lagrange_interpolate(list(zip(primes, col)), d * d)
        except ValueError:
            more = _checked_primes(primes + primes_list(
                2 * d * d + 1 - len(primes), primes[-1] + 1), d)
            poly = lagrange_interpolate([(p, count(out, p)) for p in more],
                                        2 * d * d)
        coeff = substitute_q(poly)
        if coeff:
            terms[out] = coeff
    return terms


def structure_constants(left, right, primes):
    """The product of two basis symbols recovered purely from point counts
    (interpolated by `_interpolated`)."""
    d = left.d
    if right.d != d:
        raise ValueError("mixed degrees")
    primes = _checked_primes(primes, d)
    ro_l, co_l = row_col_sums(left)
    ro_r, co_r = row_col_sums(right)
    if co_l != ro_r:
        return SchurElement(d)
    return SchurElement(d, _interpolated(
        _candidate_outputs(d, ro_l, co_r), primes, d, lambda out, p:
        _conv_table(d, out, ro_r[0], p).get((left, right), 0)))


# --- mixed orbits: two-step flag, complete flag, vector ---------------------

def _chain_subspaces(t):
    """Complete chain including the two trivial ends, dims 0..d."""
    d = t.d
    p = t.p
    chain = [PrimeFieldSubspace(p, d, ())]
    chain.extend(t.Fp)
    full = rref(tuple(tuple(1 if i == j else 0 for j in range(d))
                      for i in range(d)), p)
    chain.append(PrimeFieldSubspace(p, d, full))
    return chain


def tensor_orbit_invariant(t):
    """Marked sequence classifying a (two-step, complete, vector) triple.

    The letter at position r records whether the intersection with the
    two-step subspace grows at step r of the complete flag.  The marks come
    from the two jump positions of the vector: the first step c at which v
    falls into F_1 plus the partial flag, and the first step m at which v
    falls into the partial flag itself; v = 0 gives no marks, c = 0 gives
    {m}, c = m gives {c}, and c < m gives {c, m}.
    """
    f1 = t.F[0]
    p, d = t.p, t.d
    chain = _chain_subspaces(t)
    seq = []
    prev = 0
    for r in range(1, d + 1):
        inter = f1.dim + chain[r].dim - fp_rank(f1.basis + chain[r].basis, p)
        seq.append(1 if inter > prev else 2)
        prev = inter
    if not any(t.v):
        return MarkedSequence(tuple(seq), frozenset())
    m = next(r for r in range(d + 1) if chain[r].contains(t.v))
    c = next(r for r in range(d + 1)
             if in_span(rref(f1.basis + chain[r].basis, p), t.v, p))
    if c == 0:
        marks = frozenset({m})
    elif c == m:
        marks = frozenset({c})
    else:
        marks = frozenset({c, m})
    ms = MarkedSequence(tuple(seq), marks)
    ok, why = validate(ms)
    if not ok:
        raise RuntimeError(f"classification inconsistency at {t}: {why}")
    return ms


def canonical_tensor_representative(ms, p):
    """Distinguished mixed triple mapping to the marked sequence: the
    complete flag is the standard coordinate flag, the two-step subspace is
    spanned by the coordinates carrying letter 1, and the vector encodes the
    marks."""
    d = ms.d
    def unit(i):
        row = [0] * d
        row[i] = 1
        return tuple(row)
    f_rows = [unit(r - 1) for r in range(1, d + 1) if ms.seq[r - 1] == 1]
    chain = tuple(PrimeFieldSubspace.from_rows([unit(i) for i in range(r)],
                                               d, p)
                  for r in range(1, d))
    v = [0] * d
    for j in ms.marks:
        v[j - 1] = 1
    return FlagTriple((PrimeFieldSubspace.from_rows(f_rows, d, p),),
                      chain, tuple(v))


_MIXED_CACHE = {}


def _mixed_conv_table(d, out_ms, mid_dim, p):
    """Counts of the mixed convolution at the canonical triple of a marked
    sequence, middle subspaces of fixed dimension: keys are (left decorated
    matrix, right marked sequence).  The right sequence has a letter 1
    where dim(H & C_r) grows and the marks {c, m} - {0} (see `_count`)."""
    key = (d, out_ms, mid_dim, p)
    got = _MIXED_CACHE.get(key)
    if got is not None:
        return got
    counts = {}
    for (lab_l, dims, c, m), n in _count(
            canonical_tensor_representative(out_ms, p), mid_dim).items():
        dims = (0, *dims, mid_dim)
        ms_r = MarkedSequence(tuple(1 if b > a else 2
                                    for a, b in zip(dims, dims[1:])),
                              frozenset({c, m} - {0}))
        ok, why = validate(ms_r)
        if not ok:
            raise RuntimeError(
                f"classification inconsistency at {out_ms}: {why}")
        counts[lab_l, ms_r] = n
    _MIXED_CACHE[key] = counts
    return counts


def tensor_action_constants(left, right_ms, primes):
    """Exact coefficients of (left basis symbol) acting on a marked-sequence
    basis vector, interpolated from point counts (by `_interpolated`):
    {output sequence: coeff}."""
    d = left.d
    if right_ms.d != d:
        raise ValueError("mixed degrees")
    primes = _checked_primes(primes, d)
    ro_l, co_l = row_col_sums(left)
    ones = sum(1 for x in right_ms.seq if x == 1)
    if co_l != (ones, d - ones):
        return {}
    cands = [cand for cand in enumerate_xi(2, d, tensor=True)
             if (cand.seq.count(1), d - cand.seq.count(1)) == ro_l]
    return _interpolated(
        cands, primes, d, lambda out, p:
        _mixed_conv_table(d, out, ones, p).get((left, right_ms), 0))

