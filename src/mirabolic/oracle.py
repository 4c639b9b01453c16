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

from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice, product

import numpy as np

from .decorated import (ALL_DELTAS, DecoratedMatrix, decorated2, enumerate_xi,
                        matrix_to_sequence, row_col_sums, sequence_to_matrix,
                        validate)
from .linalg import LruMemo
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


def _guard(p, d):
    """Raise ValueError if F_p^d has more than SIZE_GUARD points."""
    if p ** d > SIZE_GUARD:
        raise ValueError(f"p^d = {p**d} exceeds the enumeration guard")


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
    _guard(p, d)
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

# every 2x2 label the counting kernel emits is built once and then shared
_label = cache(decorated2)


@cache
def _classified(sizes, dims, c, m, tensor=False):
    """The decorated 2 x N matrix of the orbit of a triple (F, C_1 < ...
    < C_{N-1}, v), with C_0 = 0 and C_N the whole space, from sizes =
    (dim C_r) and dims = (dim(F & C_r)), r = 0..N, and the jumps
    c = min{r : v in F + C_r} <= m = min{r : v in C_r}.

    Row 1 of column j is dims_j - dims_{j-1}, and row 2 the rest of
    dim C_j - dim C_{j-1}.  The marks are (1, m) if c < m and (2, c) if
    c > 0, so v = 0 has none.  With tensor=True the result is the marked
    sequence of the matrix.  Each distinct label is built and validated
    once.
    """
    row1 = tuple(b - a for a, b in zip(dims, dims[1:]))
    row2 = tuple(b - a - x for a, b, x in zip(sizes, sizes[1:], row1))
    delta = {(1, m)} if c < m else set()
    if c:
        delta.add((2, c))
    label = DecoratedMatrix((row1, row2), frozenset(delta))
    ok, why = validate(label)
    if not ok:
        raise RuntimeError(f"classification inconsistency at {label}: {why}")
    return matrix_to_sequence(label) if tensor else label


def orbit_invariant(t):
    """Decorated 2 x N matrix classifying the orbit of a triple t = (F,
    chain, v) with F a two-step flag and chain = t.Fp: F' alone gives a
    2x2 label, a complete flag the 2 x d matrix of a marked sequence (see
    `_classified`)."""
    f, p, d = t.F[0], t.p, t.d
    chain = (PrimeFieldSubspace(p, d, ()),) + t.Fp      # C_0, ..., C_{N-1}
    sums = [rref(f.basis + sub.basis, p) for sub in chain]  # the F + C_r
    sizes = tuple(sub.dim for sub in chain) + (d,)
    dims = tuple(f.dim + sub.dim - len(s) for sub, s in zip(chain, sums))
    c = next((r for r, s in enumerate(sums) if in_span(s, t.v, p)),
             len(chain))
    m = next((r for r, sub in enumerate(chain) if sub.contains(t.v)),
             len(chain))
    return _classified(sizes, dims + (f.dim,), c, m)


def canonical_representative(label, p):
    """A distinguished triple (F, C_1 < ... < C_{N-1}, v) in the orbit of a
    2 x N label: the coordinates go column by column, row 1 first; F spans
    the row-1 coordinates, C_r the coordinates of the first r columns, and
    v is the sum of the first coordinate of each marked block."""
    d = label.d
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    start, f_rows, ends = {}, [], []
    i = 0
    for j, (a1, a2) in enumerate(zip(*label.a), start=1):
        start[1, j], start[2, j] = i, i + a1
        f_rows += unit[i:i + a1]
        i += a1 + a2
        ends.append(i)
    v = [0] * d
    for pos in label.delta:
        v[start[pos]] = 1
    def span(rows):     # unit rows in order are already reduced
        return PrimeFieldSubspace(p, d, tuple(rows))
    return FlagTriple((span(f_rows),),
                      tuple(span(unit[:e]) for e in ends[:-1]), tuple(v))


def tensor_orbit_invariant(t):
    """Marked sequence classifying a (two-step, complete, vector) triple:
    that of its decorated 2 x d matrix."""
    return matrix_to_sequence(orbit_invariant(t))


def canonical_tensor_representative(ms, p):
    """Distinguished (two-step, complete, vector) triple of a marked
    sequence: that of its decorated 2 x d matrix, whose chain is the
    standard coordinate flag."""
    return canonical_representative(sequence_to_matrix(ms, 2), p)


# --- the counting kernel -----------------------------------------------------

# point sets and shift permutations of one (d, p), charged in point indices
_POINTS = LruMemo(SIZE_GUARD)


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


def _sums_in_chunk(a, meets, h_bases, h_pts, offs):
    """The proper sums A + H over the middle subspaces H of a chunk, given
    `meets` = dim(A & H), the points `h_pts` and the offsets `offs` of each
    H: (the points of every proper sum, in order, and their offsets)."""
    d, p, mid_dim = a.d, a.p, len(h_bases[0])
    sums, lens = [np.empty(0, dtype=np.intp)], []
    for i, meet in enumerate(meets):
        if a.dim + mid_dim - meet == d:         # the whole space
            lens.append(0)
            continue
        if meet == a.dim:                       # A + H = H
            sums.append(h_pts[i])
        elif meet == mid_dim:                   # A + H = A
            sums.append(_span_indices(a.basis, d, p))
        else:
            sums.append(_span_indices(rref(a.basis + h_bases[i], p), d, p))
        lens.append(len(sums[-1]))
    return np.concatenate(sums), np.repeat(offs, lens)


def _count(reps, mid_dim):
    """Counts of the convolution sum, in the sense of Beilinson, Lusztig and
    MacPherson, at each triple rep = (F, chain, v) of a class sharing one
    chain, over the middle subspaces H of one dimension: per rep,
    {(left label, dims, c, m): number of (H, u)}.

    The chain C_1 < ... < C_{N-1} is F' alone (N = 2) for two-step triples
    and the complete flag (N = d) for tensor triples; C_0 = 0 and
    C_N = F_p^d.  Every (H, u) pair is counted: (F, H, u) by its decorated
    matrix, and (H, chain, x = v - u) by dims = (dim(H & C_r), 0 < r < N)
    and the jumps of `_classified`, c = #{r < N: x not in H + C_r} and
    m = #{r < N: x not in C_r}.  So u runs over all points w of F_p^d, and
    the pair adds to the code K zone(w) + (N + 1) c(v - w) + m(v - w),
    K = (N + 1)^2, where zone(w) = 5 - [w in F+H] - 2[w in F] - [w in H]
    - [w = 0] indexes the marks of (F, H, w) in ALL_DELTAS.  Split off
    what does not depend on H, base(w) = (5 - 2[w in F]) K + N (N + 1)
    + m(v - w), whose histogram is taken once per rep; the rest is zero
    outside H, F + H and the v - (H + C_r), and constant where a sum is the
    whole space, so only the points of the proper sums are reclassified.
    A slice of middle subspaces has a row of p^d points per (H, rep), at
    most SIZE_GUARD points (callers pass at most SIZE_GUARD / p^d reps):
    dim(H & C_r) and H + C_r are found once per slice, dim(F & H) and
    F + H once per distinct F, and one bincount takes every row.  The rows with the same
    rep, dim(F & H) and dims share their labels and which sums are full.
    """
    d, p, outs = reps[0].d, reps[0].p, len(reps)
    _guard(p, d)
    n = p ** d
    chain = (PrimeFieldSubspace(p, d, ()),) + reps[0].Fp
    big_n, k = len(chain), (len(chain) + 1) ** 2
    fs = list(dict.fromkeys(rep.F[0] for rep in reps))     # the distinct F
    f_of = [fs.index(rep.F[0]) for rep in reps]
    masks = np.array([_span_mask(a.basis, d, p) for a in fs + [*chain[1:]]])
    perms = np.stack([_shift_perm(rep.v, d, p) for rep in reps])
    # base(w), with m(v - w) = N - #{r < N: v - w in C_r}
    depth = masks[len(fs):].sum(axis=0, dtype=np.int8)
    depth[0] += 1
    base = np.subtract(5 * k + big_n * (big_n + 2), depth[perms],
                       dtype=np.intp)
    base[masks[f_of]] -= 2 * k
    base_hist = np.bincount((base + 6 * k * np.arange(outs)[:, None]).ravel(),
                            minlength=outs * 6 * k).reshape(outs, -1)
    powers = p ** np.arange(d + 1)
    most = max(1, SIZE_GUARD // (n * outs))     # H per slice
    totals = {}     # group -> its histogram
    moved = np.zeros(min(most, _subspace_count(d, mid_dim, p)) * outs * n,
                     dtype=np.min_scalar_type(3 * k + big_n * (big_n + 1)))
    for all_bases, all_h in _middle_chunks(d, p, mid_dim):
        for lo in range(0, len(all_bases), most):
            h_bases, chunk_h = all_bases[lo:lo + most], all_h[lo:lo + most]
            rows = len(h_bases)
            # row h outs + i holds the points of the h-th H for rep i
            offs = np.arange(rows) * (outs * n)
            blocks = np.arange(outs)[:, None] * n
            # dim(F & H) per F and dim(H & C_r), 0 < r < N, from the points
            # of H they contain; with the rep they are the group of a row
            meets = np.searchsorted(powers, np.take(masks, chunk_h, axis=1)
                                    .sum(axis=2))
            meet_f, meet_c = meets[:len(fs)].tolist(), meets[len(fs):]
            slots = {}
            group = np.array([
                slots.setdefault((i, meet_f[f][h], *dim), len(slots))
                for h, dim in enumerate(map(tuple, meet_c.T.tolist()))
                for i, f in enumerate(f_of)])
            pts = [(chunk_h + offs[:, None] + blocks[:, :, None]).ravel()]
            moved[pts[0]] = k                                   # w in H
            moved[(offs + blocks).ravel()] += k                 # w = 0
            # w in F + H and v - w in H + C_r, where those are proper
            left = [np.add(*_sums_in_chunk(f, meet, h_bases, chunk_h, offs))
                    for f, meet in zip(fs, meet_f)]
            sums = [(np.concatenate([left[f] for f in f_of])
                     + np.repeat(blocks, [len(left[f]) for f in f_of]), k)]
            right = [_sums_in_chunk(c, meet, h_bases, chunk_h, offs)
                     for c, meet in zip(chain[1:], meet_c.tolist())]
            if mid_dim < d:     # H + C_0 = H
                right.append((chunk_h.ravel(),
                              np.repeat(offs, chunk_h.shape[1])))
            for at, off in right:
                sums.append(((np.take(perms, at, axis=1) + off + blocks)
                             .ravel(), big_n + 1))
            for where, step in sums:
                # moved is nonzero exactly on the points listed so far
                was = moved[where]
                pts.append(where[was == 0])
                moved[where] = was + step
            pts = np.concatenate(pts)
            old = np.take(base, pts % (outs * n)) + (6 * k * group)[pts // n]
            size = len(slots) * 6 * k
            hist = (np.bincount(old - moved[pts], minlength=size)
                    - np.bincount(old, minlength=size)).reshape(len(slots), -1)
            hist += (np.bincount(group, minlength=len(slots))[:, None]
                     * base_hist[[i for i, *_ in slots]])
            for key, part in zip(slots, hist):
                totals[key] = totals.get(key, 0) + part
            moved[pts] = 0
    # each group's histogram is shifted down where a sum is full: that
    # lowers the code of every point by K (left) or N + 1
    hist = np.array(list(totals.values()))
    heads, shifts = [], []
    for i, i11, *dims in totals:
        f_dim = fs[f_of[i]].dim
        al = (i11, f_dim - i11, mid_dim - i11, d - f_dim - mid_dim + i11)
        heads.append((i, al, tuple(dims)))
        shifts.append(k * (al[3] == 0) + (big_n + 1) * sum(
            mid_dim + sub.dim - meet == d
            for sub, meet in zip(chain, [0] + dims)))
    group, at = np.nonzero(hist)
    counts = [{} for _ in reps]
    for g, code, n_pairs in zip(group.tolist(), (at - np.array(shifts)[group])
                                .tolist(), hist[group, at].tolist()):
        i, al, dims = heads[g]
        zone, rest = divmod(code, k)
        c, m = divmod(rest, big_n + 1)
        counts[i][_label(*al, ALL_DELTAS[zone]), dims, c, m] = n_pairs
    return counts


# tables of one (d, output, dim H, p), charged in entries
_CONV_CACHE = LruMemo(SIZE_GUARD)
_MIXED_CACHE = LruMemo(SIZE_GUARD)


def _table(memo, key, tensor):
    """Counts of the convolution sum at the canonical triple of the output
    label of key = (d, output, dim H, p), for every pair of left and right
    labels at once: each right triple (H, chain, x) of `_count` classified
    by `_classified`, as a marked sequence when tensor is true.  A miss
    counts the output's whole class in one pass of `_count`, or the output
    alone where the class's rows of one H, p^d points per output, pass
    SIZE_GUARD, and stores every table counted under its own key."""
    got = memo.get(key)
    if got is None:
        d, out, mid_dim, p = key
        outs = (_tensor_outputs(d, out.seq.count(1)) if tensor
                else _candidate_outputs(d, *row_col_sums(out)))
        if len(outs) * p ** d > SIZE_GUARD:
            outs = (out,)
        reps = [canonical_representative(
            sequence_to_matrix(lab, 2) if tensor else lab, p) for lab in outs]
        sizes = (0, *(sub.dim for sub in reps[0].Fp), d)
        for lab, counts in zip(outs, _count(reps, mid_dim)):
            table = {(left, _classified(sizes, (0, *dims, mid_dim), c, m,
                                        tensor)): n
                     for (left, dims, c, m), n in counts.items()}
            memo.put((d, lab, mid_dim, p), table, len(table))
            if lab == out:
                got = table
    return got


def _conv_table(d, out_label, mid_dim, p):
    """Counts at the canonical triple of a 2x2 label, middle subspaces of
    the given dimension: keys are (left label, right label)."""
    return _table(_CONV_CACHE, (d, out_label, mid_dim, p), False)


def _mixed_conv_table(d, out_ms, mid_dim, p):
    """Counts at the canonical triple of a marked sequence, middle
    subspaces of the given dimension: keys are (left label, right marked
    sequence)."""
    return _table(_MIXED_CACHE, (d, out_ms, mid_dim, p), True)


def convolution_count(left, right, out, p):
    """Number of (H, u) pairs realizing the product coefficient at out."""
    _, co_l = row_col_sums(left)
    ro_r, co_r = row_col_sums(right)
    ro_o, co_o = row_col_sums(out)
    if co_l != ro_r or ro_o != row_col_sums(left)[0] or co_o != co_r:
        return 0
    table = _conv_table(out.d, out, ro_r[0], p)
    return table.get((left, right), 0)


@cache
def _candidate_outputs(d, ro, co):
    """The class of the outputs of a product: the 2x2 labels with row sums
    ro and column sums co, whose chains F' are one.  A shared tuple."""
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
    return tuple(outs)


@cache
def _tensor_outputs(d, ones):
    """The class of the outputs of a tensor action: the marked sequences
    with `ones` 1s, in enumeration order.  A shared tuple."""
    return tuple(ms for ms in enumerate_xi(2, d, tensor=True)
                 if ms.seq.count(1) == ones)


def _checked_primes(primes, d):
    """The distinct primes, sorted; raises ValueError unless they are all
    prime, there are at least d^2 + 1 of them and the largest has
    p^d <= SIZE_GUARD.  They are a pool: `_nodes` picks from it the primes
    each call counts at."""
    primes = sorted(set(primes))
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if len(primes) < d * d + 1:
        raise ValueError(f"need at least {d*d + 1} primes, got {len(primes)}")
    _guard(primes[-1], d)   # refused before any table is built
    return primes


def interpolation_primes(d):
    """The pool of d^2 + 1 primes that `_checked_primes` asks for at d; an
    entry is counted only at the smallest D + 2 of them (see `_nodes`).
    Raises ValueError if the last of them has p^d > SIZE_GUARD; as
    p^d >= 2^d, a d past the guard's bit length is refused without listing
    the primes."""
    if d < SIZE_GUARD.bit_length():
        primes = primes_list(d * d + 1)
        if primes[-1] ** d <= SIZE_GUARD:
            return primes
    raise ValueError(f"the oracle at d={d} counts more than {SIZE_GUARD} "
                     f"points per prime")


def _nodes(pool, d, mid_dim):
    """(D, nodes): the degree bound D = mid (d - mid) + d of every entry at
    middle dimension mid, and the smallest min(D + 2, len(pool)) primes of
    the sorted pool.

    An entry counts pairs (H, u) with H in Gr(mid, d)(F_q) and u in F_q^d,
    so 0 <= N(q) <= |Gr(mid, d)(F_q)| q^d at every prime q.  The Gaussian
    binomial |Gr(mid, d)(F_q)| is a polynomial of degree mid (d - mid), so
    the polynomial N has degree at most D.  D + 1 nodes fix the fit and the
    last one checks it.  As D <= d^2, a pool of d^2 + 1 primes always holds
    D + 1 nodes; only at d = 1 (D = 1, two primes) is none left to check.
    """
    bound = mid_dim * (d - mid_dim) + d
    return bound, pool[:bound + 2]


def _interpolated(outs, primes, d, count, bound=None):
    """{out: nonzero coefficient} from the point counts count(out, p).

    The counts are taken prime by prime: the first output's table builds
    those of its whole class (`_table`).  They are interpolated in q with
    degree bound `bound` (d^2 if None); the primes past the first bound + 1
    check the fit.  If an output's counts fail to interpolate (bound
    breach, or a check off the fit), the bound is doubled once, with the
    primes extended to 2 bound + 2 of them, so that one checks the new fit,
    and the largest checked again against the size guard.
    """
    if bound is None:
        bound = d * d
    counts = [[count(out, p) for out in outs] for p in primes]
    terms = {}
    for out, col in zip(outs, zip(*counts)):
        try:
            poly = lagrange_interpolate(list(zip(primes, col)), bound)
        except ValueError:
            more = primes + primes_list(2 * bound + 2 - len(primes),
                                        primes[-1] + 1)
            _guard(more[-1], d)
            poly = lagrange_interpolate([(p, count(out, p)) for p in more],
                                        2 * bound)
        coeff = substitute_q(poly)
        if coeff:
            terms[out] = coeff
    return terms


def structure_constants(left, right, primes):
    """The product of two basis symbols recovered purely from point counts.
    `primes` is a pool of at least d^2 + 1 primes (`_checked_primes`); every
    candidate output has the middle dimension mid = ro_r[0] of the right
    factor, and each is interpolated by `_interpolated` at the degree bound
    D = mid (d - mid) + d through the smallest D + 2 primes of the pool
    (`_nodes` gives the proof)."""
    d = left.d
    if right.d != d:
        raise ValueError("mixed degrees")
    primes = _checked_primes(primes, d)
    ro_l, co_l = row_col_sums(left)
    ro_r, co_r = row_col_sums(right)
    if co_l != ro_r:
        return SchurElement(d)
    bound, nodes = _nodes(primes, d, ro_r[0])
    return SchurElement(d, _interpolated(
        _candidate_outputs(d, ro_l, co_r), nodes, d, lambda out, p:
        _conv_table(d, out, ro_r[0], p).get((left, right), 0), bound=bound))


def tensor_action_constants(left, right_ms, primes):
    """Exact coefficients of (left basis symbol) acting on a marked-sequence
    basis vector, interpolated from point counts: {output sequence: coeff}.
    As in `structure_constants`, `primes` is a pool; the middle dimension
    mid is the number of 1s of the sequence, and each output is
    interpolated at D = mid (d - mid) + d through the smallest D + 2 primes
    of the pool."""
    d = left.d
    if right_ms.d != d:
        raise ValueError("mixed degrees")
    primes = _checked_primes(primes, d)
    ro_l, co_l = row_col_sums(left)
    ones = sum(1 for x in right_ms.seq if x == 1)
    if co_l != (ones, d - ones):
        return {}
    bound, nodes = _nodes(primes, d, ones)
    return _interpolated(
        _tensor_outputs(d, ro_l[0]), nodes, d, lambda out, p:
        _mixed_conv_table(d, out, ones, p).get((left, right_ms), 0),
        bound=bound)
