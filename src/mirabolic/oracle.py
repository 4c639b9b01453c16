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


def _zone_array(mask_first, mask_second, sum_rank, sum_basis, d, p):
    n = p ** d
    zone = np.full(n, 4, dtype=np.int64)
    if sum_rank < d:
        zone[~_span_mask(sum_basis, d, p)] = 5
    both = mask_first & mask_second
    zone[mask_first] = 2
    zone[mask_second] = 3
    zone[both] = 1
    zone[0] = 0
    return zone


def _sums_in_chunk(a, in_a, meets, h_bases, h_pts, offs, shift):
    """The points each middle subspace H of a chunk reclassifies on one
    side: A + H where that is a proper subspace, H where it is the whole
    space.  `meets` holds dim(A & H) and `h_pts` the points of each H, and
    every point is offset by p^d times the row of its H in the chunk and,
    when `shift` is given, mapped through it first.  Returns (the points of
    the proper sums, the reclassified points)."""
    d, p, mid_dim = a.d, a.p, len(h_bases[0])
    full = a.dim + mid_dim - meets == d
    a_in_h = ~full & (meets == a.dim)               # A + H = H
    h_in_a = ~full & ~a_in_h & (meets == mid_dim)   # A + H = A
    rest = np.flatnonzero(~(full | a_in_h | h_in_a))
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
    sums = np.concatenate(parts)
    return sums, np.concatenate([(h_pts[full] + offs[full, None]).ravel(),
                                 sums])


_CONV_CACHE = {}


def _conv_table(d, out_label, mid_dim, p):
    """Counts of the convolution sum at the canonical triple of out_label,
    restricted to middle subspaces of the given dimension, for every pair of
    (left, right) orbit labels at once.

    Every (H, u) pair is counted: u runs over all points w of F_p^d, and
    the pair contributes to the code 6 zone(w; F, H) + zone(v - w; H, F'),
    where zone(x; A, B) = 5 - [x in A+B] - 2[x in A] - [x in B] - [x = 0]
    is the membership case of `_vector_zone`.  Split off what does not
    depend on H, base(w) = 35 - 12[w in F] - [v - w in F'], whose histogram
    is taken once; the rest, 6[w in F+H] + 6[w in H] + [v - w in H+F']
    + 2[v - w in H] + 6[w = 0] + [w = v], is zero outside H, v - H, F+H
    and v - (H+F'), and constant where a sum is the whole space, so only
    the points of the proper ones (0 and v included) are reclassified.
    The middle subspaces go in chunks (`_middle_chunks`), each H with its
    points offset by p^d times its row in the chunk, so one pass of array
    operations reclassifies a whole chunk.
    """
    key = (d, out_label, mid_dim, p)
    got = _CONV_CACHE.get(key)
    if got is not None:
        return got
    if p ** d > SIZE_GUARD:
        raise ValueError(f"p^d = {p**d} exceeds the enumeration guard")
    rep = canonical_representative(out_label, p)
    f1, fp1 = rep.F[0], rep.Fp[0]
    n = p ** d
    perm = _shift_perm(rep.v, d, p)
    in_f = _span_indices(f1.basis, d, p)
    in_fp = _span_indices(fp1.basis, d, p)
    base = np.full(n, 35, dtype=np.int64)
    base[in_f] -= 12
    base[perm[in_fp]] -= 1
    base_hist = np.bincount(base, minlength=36)
    mask_f = _span_mask(f1.basis, d, p)
    mask_fp = _span_mask(fp1.basis, d, p)
    powers = p ** np.arange(d + 1)
    n_groups = (d + 1) ** 2    # group (i11l, i11r) is i11l * (d + 1) + i11r
    n_h = np.zeros(n_groups, dtype=np.int64)      # subspaces H per group
    fix = np.zeros(n_groups * 36, dtype=np.int64)  # histogram corrections
    moved = None
    for h_bases, chunk_h in _middle_chunks(d, p, mid_dim):
        # dim(F & H) and dim(H & F') from the points of H they contain
        meet_l = np.searchsorted(powers, mask_f[chunk_h].sum(axis=1))
        meet_r = np.searchsorted(powers, mask_fp[chunk_h].sum(axis=1))
        group = meet_l * (d + 1) + meet_r
        n_h += np.bincount(group, minlength=n_groups)
        offs = np.arange(len(h_bases)) * n
        chunk_vh = perm[chunk_h]
        sum_l, left = _sums_in_chunk(f1, in_f, meet_l, h_bases, chunk_h,
                                     offs, None)
        sum_r, right = _sums_in_chunk(fp1, in_fp, meet_r, h_bases, chunk_vh,
                                      offs, perm)
        if moved is None:   # the first chunk is the largest
            moved = np.zeros(len(h_bases) * n, dtype=np.int8)
        # moved = base(w) - code(w); the left zone: w in F+H, w in H, w = 0
        moved[(chunk_h + offs[:, None]).ravel()] += 6
        moved[offs] += 6
        moved[sum_l] += 6
        # the right zone: v - w in H+F', v - w in H, w = v; moved is
        # nonzero exactly on `left` here, so pts lists each point once
        pts = np.concatenate([left, right[moved[right] == 0]])
        moved[(chunk_vh + offs[:, None]).ravel()] += 2
        moved[offs + perm[0]] += 1
        moved[sum_r] += 1
        row = pts // n
        old = base[pts - row * n] + 36 * group[row]
        fix += (np.bincount(old - moved[pts], minlength=n_groups * 36)
                - np.bincount(old, minlength=n_groups * 36))
        moved[pts] = 0
    counts = {}
    for g in np.flatnonzero(n_h).tolist():
        i11l, i11r = divmod(g, d + 1)
        al = (i11l, f1.dim - i11l, mid_dim - i11l,
              d - f1.dim - mid_dim + i11l)
        ar = (i11r, mid_dim - i11r, fp1.dim - i11r,
              d - mid_dim - fp1.dim + i11r)
        # full sums subtract 6 (left) and 1 (right) at every point
        shift = 6 * (al[3] == 0) + (ar[3] == 0)
        cnt = (n_h[g] * base_hist + fix[36 * g:36 * g + 36])[shift:]
        for code in np.nonzero(cnt)[0]:
            zl, zr = divmod(int(code), 6)
            pair = (_label(*al, ALL_DELTAS[zl]), _label(*ar, ALL_DELTAS[zr]))
            counts[pair] = int(cnt[code])
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
    prime and there are at least d^2 + 1 of them."""
    primes = sorted(set(primes))
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if len(primes) < d * d + 1:
        raise ValueError(f"need at least {d*d + 1} primes, got {len(primes)}")
    return primes


def structure_constants(left, right, primes):
    """The product of two basis symbols recovered purely from point counts.

    Counts at each prime are interpolated in q with degree bound d^2; if the
    coefficients fail to interpolate (bound breach), the bound is doubled
    once with automatically extended primes.
    """
    d = left.d
    if right.d != d:
        raise ValueError("mixed degrees")
    primes = _checked_primes(primes, d)
    ro_l, co_l = row_col_sums(left)
    ro_r, co_r = row_col_sums(right)
    if co_l != ro_r:
        return SchurElement(d)
    outs = _candidate_outputs(d, ro_l, co_r)
    # prime by prime, so the tables of one prime share its point sets
    counts = [[_conv_table(d, out, ro_r[0], p).get((left, right), 0)
               for out in outs] for p in primes]
    terms = {}
    for out, col in zip(outs, zip(*counts)):
        pts = list(zip(primes, col))
        try:
            poly = lagrange_interpolate(pts, d * d)
        except ValueError:
            need = 2 * d * d + 1
            extra = [n for n in primes]
            n = max(primes) + 1
            while len(extra) < need:
                if is_prime(n):
                    extra.append(n)
                n += 1
            pts = [(p, _conv_table(d, out, ro_r[0], p).get((left, right), 0))
                   for p in extra]
            poly = lagrange_interpolate(pts, 2 * d * d)
        coeff = substitute_q(poly)
        if coeff:
            terms[out] = coeff
    return SchurElement(d, terms)


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
    matrix, right marked sequence)."""
    key = (d, out_ms, mid_dim, p)
    got = _MIXED_CACHE.get(key)
    if got is not None:
        return got
    if p ** d > SIZE_GUARD:
        raise ValueError(f"p^d = {p**d} exceeds the enumeration guard")
    rep = canonical_tensor_representative(out_ms, p)
    f1 = rep.F[0]
    chain = _chain_subspaces(rep)
    mask_f = _span_mask(f1.basis, d, p)
    perm = _shift_perm(rep.v, d, p)
    n = p ** d
    # m(w): first step of the complete flag containing w
    m_arr = np.zeros(n, dtype=np.int64)
    for r in range(d):
        m_arr += ~_span_mask(chain[r].basis, d, p)
    ncodes = (d + 1) * (d + 1)
    counts = {}
    for h_basis in _all_subspace_bases(d, p, mid_dim):
        mask_h = _span_mask(h_basis, d, p)
        sum_l = rref(f1.basis + h_basis, p)
        i11l = f1.dim + mid_dim - len(sum_l)
        zone_l = _zone_array(mask_f, mask_h, len(sum_l), sum_l, d, p)
        # c(w): first step r with w in H + chain[r]
        c_arr = np.zeros(n, dtype=np.int64)
        seq = []
        prev = 0
        for r in range(d):
            c_arr += ~_span_mask(rref(h_basis + chain[r].basis, p), d, p)
        for r in range(1, d + 1):
            inter = (mid_dim + chain[r].dim
                     - fp_rank(h_basis + chain[r].basis, p))
            seq.append(1 if inter > prev else 2)
            prev = inter
        seq = tuple(seq)
        code_r = c_arr * (d + 1) + m_arr
        cnt = np.bincount(zone_l * ncodes + code_r[perm],
                          minlength=6 * ncodes)
        al = (i11l, f1.dim - i11l, mid_dim - i11l,
              d - f1.dim - mid_dim + i11l)
        for code in np.nonzero(cnt)[0]:
            zl, rest = divmod(int(code), ncodes)
            c, m = divmod(rest, d + 1)
            if c == m == 0:
                marks = frozenset()
            elif c == 0:
                marks = frozenset({m})
            elif c == m:
                marks = frozenset({c})
            else:
                marks = frozenset({c, m})
            ms_r = MarkedSequence(seq, marks)
            ok, why = validate(ms_r)
            if not ok:
                raise RuntimeError(
                    f"classification inconsistency at H={h_basis}: {why}")
            lab_l = _label(*al, ALL_DELTAS[zl])
            pair = (lab_l, ms_r)
            counts[pair] = counts.get(pair, 0) + int(cnt[code])
    _MIXED_CACHE[key] = counts
    return counts


def tensor_action_constants(left, right_ms, primes):
    """Exact coefficients of (left basis symbol) acting on a marked-sequence
    basis vector, interpolated from point counts: {output sequence: coeff}."""
    d = left.d
    if right_ms.d != d:
        raise ValueError("mixed degrees")
    primes = _checked_primes(primes, d)
    ro_l, co_l = row_col_sums(left)
    ones = sum(1 for x in right_ms.seq if x == 1)
    if co_l != (ones, d - ones):
        return {}
    out = {}
    for cand in enumerate_xi(2, d, tensor=True):
        ones_c = sum(1 for x in cand.seq if x == 1)
        if (ones_c, d - ones_c) != ro_l:
            continue
        pts = [(p, _mixed_conv_table(d, cand, ones, p).get((left, right_ms), 0))
               for p in primes]
        poly = lagrange_interpolate(pts, d * d)
        coeff = substitute_q(poly)
        if coeff:
            out[cand] = coeff
    return out


# --- whole-space classification checks ---------------------------------------

def classify_all_pairs(d, p):
    """Orbit sizes of all (two-step, two-step, vector) triples, by label."""
    if p ** d > SIZE_GUARD:
        raise ValueError("enumeration guard exceeded")
    subs = []
    for r in range(d + 1):
        subs.extend(enumerate_flags(d, p, r))
    vecs = list(product(range(p), repeat=d))
    sizes = {}
    for f in subs:
        for fp_ in subs:
            for v in vecs:
                lab = orbit_invariant(FlagTriple(f, fp_, v))
                sizes[lab] = sizes.get(lab, 0) + 1
    return sizes


def classify_all_mixed(d, p):
    """Orbit sizes of all (two-step, complete, vector) triples, by marked
    sequence."""
    if p ** d > SIZE_GUARD:
        raise ValueError("enumeration guard exceeded")
    subs = []
    for r in range(d + 1):
        subs.extend(enumerate_flags(d, p, r))
    completes = enumerate_flags(d, p, "complete")
    vecs = list(product(range(p), repeat=d))
    sizes = {}
    for f in subs:
        for ch in completes:
            for v in vecs:
                ms = tensor_orbit_invariant(FlagTriple(f, ch, v))
                sizes[ms] = sizes.get(ms, 0) + 1
    return sizes


def random_invertible(d, p, rng):
    while True:
        g = tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
        if fp_rank(g, p) == d:
            return g


def transform_triple(t, g):
    """Apply a change of basis to every constituent of the triple."""
    p, d = t.p, t.d
    def act_vec(v):
        return tuple(sum(v[i] * g[i][j] for i in range(d)) % p
                     for j in range(d))
    def act_space(s):
        return PrimeFieldSubspace.from_rows([act_vec(r) for r in s.basis],
                                            d, p)
    return FlagTriple(tuple(act_space(s) for s in t.F),
                      tuple(act_space(s) for s in t.Fp),
                      act_vec(t.v))
