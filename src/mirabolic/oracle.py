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

from functools import cache, lru_cache
from itertools import combinations, islice, product

import numpy as np

from .decorated import (ALL_DELTAS, DecoratedMatrix, MarkedSequence, Record,
                        decorated2, enumerate_xi, matrix_to_sequence,
                        row_col_sums, sequence_to_matrix, validate)
from .linalg import SIZE_GUARD, LruMemo
from .qv import lagrange_interpolate, substitute_q
from .schur_algebra import SchurElement


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


def in_span(basis, vec, p):
    """Membership test against an echelon basis."""
    v = list(vec)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            c = v[lead]
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return not any(v)


class PrimeFieldSubspace(Record):
    """A subspace of F_p^d by its echelon basis, taken as given."""

    __slots__ = ("p", "d", "basis")

    @staticmethod
    def from_rows(rows, d, p):
        return PrimeFieldSubspace(p, d, rref(rows, p))

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        return in_span(self.basis, vec, self.p)


class FlagTriple(Record):
    """Two flags, each a tuple of subspaces, and a vector of F_p^d."""

    __slots__ = ("F", "Fp", "v")

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


@cache
def canonical_representative(label, p):
    """A distinguished triple (F, C_1 < ... < C_{N-1}, v) in the orbit of a
    2 x N label: the coordinates go column by column, row 1 first; F spans
    the row-1 coordinates, C_r the coordinates of the first r columns, and
    v is the sum of the first coordinate of each marked block.  The same
    bases and v serve at every p.  Memoised, so shared and read-only."""
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


def _stages(nodes, outs, d):
    """(node indices, output indices): runs of nodes whose points, once per
    output, fit SIZE_GUARD together, and a node past that alone with as
    many outputs at a time as fit."""
    stages = []
    for j, p in enumerate(nodes):
        if stages and outs * sum(nodes[i] ** d
                                 for i in stages[-1][0] + [j]) <= SIZE_GUARD:
            stages[-1][0].append(j)
        else:
            step = SIZE_GUARD // p ** d
            stages += [([j], range(lo, min(lo + step, outs)))
                       for lo in range(0, outs, step)]
    return stages


def _slices(primes, outs, d, mid_dim):
    """The middle subspaces of each prime as parts (index of the prime,
    echelon bases, their points), in slices with the stride of their rows,
    the largest p^d: (parts, stride).  Each H brings outs rows, and a slice
    takes as many as fit SIZE_GUARD entries, one at least; so it holds at
    most SIZE_GUARD points (`_stages`)."""
    parts, count, wide = [], 0, 1
    for j, p in enumerate(primes):
        stride = p ** d
        room = max(1, SIZE_GUARD // (outs * stride))
        for bases, pts in _middle_chunks(d, p, mid_dim):
            lo = 0
            while lo < len(bases):
                take = min(len(bases) - lo, room - count)
                if take <= 0:
                    yield parts, wide
                    parts, count = [], 0
                    continue
                parts.append((j, bases[lo:lo + take], pts[lo:lo + take]))
                count, lo, wide = count + take, lo + take, stride
    yield parts, wide


def _count(d, outs, mid_dim, nodes, tensor=False):
    """The column table of outputs that share a chain (`_chain`) at the
    nodes, {(left, right): ((output, counts at the nodes), ...)} with
    outputs in order and no column all zero: the convolution sum
    (Beilinson, Lusztig and MacPherson) counted at the canonical triple
    (F, chain, v) of each output (a marked sequence if tensor) over the
    middle subspaces H of one dimension, at every node in one pass.

    The chain C_1 < ... < C_{N-1} is F' (N = 2), or the complete flag
    (N = d) for marked sequences; C_0 = 0, C_N = F_p^d.  A pair (H, u) is
    classified by (F, H, u) and by (H, chain, x = v - u) through dims =
    (dim(H & C_r), 0 < r < N), c = #{r < N: x not in H + C_r} and m =
    #{r < N: x not in C_r} (`_classified`).  So u runs over the points w,
    adding to K zone(w) + (N + 1) c(v - w) + m(v - w), K = (N + 1)^2, with
    zone(w) = 5 - [w in F+H] - 2[w in F] - [w in H] - [w = 0] indexing
    ALL_DELTAS.  Of that, base(w) = (5 - 2[w in F]) K + N (N + 1) + m(v - w)
    does not depend on H, and the rest is zero outside H, F + H and the
    v - (H + C_r), and constant where one of them is the whole space; so
    only the points of the proper ones are listed, in rows (p, H, output)
    of p^d points.  A stage (`_stages`) lays its primes' points end to
    end, a slice (`_slices`) at most SIZE_GUARD points; a listed point's
    row is its index divided by the stride, and gives its base code and
    its group (output, dim(F & H), dims, prime) by a gather.
    """
    _guard(nodes[-1], d)
    reps = [canonical_representative(sequence_to_matrix(lab, 2) if tensor
                                     else lab, 2) for lab in outs]
    chain = ((), *(sub.basis for sub in reps[0].Fp))   # C_0, ..., C_{N-1}
    big_n, k, nj = len(chain), (len(chain) + 1) ** 2, len(nodes)
    width, radix = 6 * k, d + 1     # a group key's digits: output, dims
    fs = list(dict.fromkeys(t.F[0].basis for t in reps))    # distinct F
    vs = list(dict.fromkeys(t.v for t in reps))             # distinct v
    f_of = [fs.index(t.F[0].basis) for t in reps]
    subs, slots = fs + [*chain[1:]], {}
    hist = rows = np.zeros(0, dtype=np.intp)    # per group: codes, rows
    base_hist = np.zeros((len(outs), nj, width), dtype=np.intp)
    for js, idx in _stages(nodes, len(outs), d):
        primes, few = [nodes[j] for j in js], len(idx)
        ns = [p ** d for p in primes]
        offs = np.cumsum([0, *ns])
        masks = np.zeros((len(subs), offs[-1]), dtype=bool)
        for (j, p), (s, a) in product(enumerate(primes), enumerate(subs)):
            masks[s, offs[j] + _span_indices(a, d, p)] = True
        shifts = [[_shift_perm(v, d, p) for p in primes] for v in vs]
        perms = np.empty((len(vs), offs[-1]), dtype=np.intp)    # to v - w
        for (j, o), (s, row) in product(enumerate(offs[:-1]), enumerate(shifts)):
            np.add(row[j], o, out=perms[s, o:offs[j + 1]])
        v_of = [vs.index(reps[i].v) for i in idx]
        if v_of != list(range(len(vs))):
            perms = perms[v_of]         # one row per output
        # base(w), m(v - w) = N - #{r < N: v - w in C_r}, plus width times
        # the index of w's prime
        depth = masks[len(fs):].sum(axis=0, dtype=np.int8)
        depth[offs[:-1]] += 1
        base = np.subtract(5 * k + big_n * (big_n + 2), depth[perms],
                           dtype=np.intp)
        base[masks[[f_of[i] for i in idx]]] -= 2 * k
        at_x = len(js) * width * np.arange(few)[:, None]    # for the histogram
        for j in range(len(js)):
            base[:, offs[j]:offs[j + 1]] += at_x + j * width
        base_hist[idx.start:idx.stop, js[0]:js[-1] + 1] = np.bincount(
            base.ravel(), minlength=few * len(js) * width).reshape(
                few, len(js), width)
        base -= at_x
        base = base.ravel()
        wide = few * ns[-1]     # a widest H's rows
        moved = np.zeros(min(max(SIZE_GUARD, wide), wide * sum(
            _subspace_count(d, mid_dim, p) for p in primes)),
            dtype=np.min_scalar_type(3 * k + big_n * (big_n + 1)))
        for parts, stride in _slices(primes, few, d, mid_dim):
            bases = [b for _, part, _ in parts for b in part]
            p_of = np.repeat([j for j, _, _ in parts],
                             [len(part) for _, part, _ in parts])
            h_off = offs[p_of]
            h_len = np.repeat([chunk.shape[1] for *_, chunk in parts],
                              [len(chunk) for *_, chunk in parts])
            h_at = np.repeat(np.arange(len(bases)), h_len)
            h_pts = np.concatenate([chunk.ravel() for *_, chunk in parts])
            h_pts += h_off[h_at]        # stage indices, as masks and perms
            # dim(A & H), A = each F and C_r (0 < r < N), from the number
            # p^dim of the points of H in A; with the output, the group
            meets = (np.add.reduceat(
                np.take(masks, h_pts, axis=1), np.cumsum(h_len) - h_len, axis=1,
                dtype=np.intp)[:, :, None] >= np.array(primes)[p_of, None]
                     ** np.arange(1, d + 1)).sum(axis=2)
            key = ((np.array(idx) * radix + meets[[f_of[i] for i in idx]].T)
                   * radix ** (big_n - 1)
                   + (radix ** np.arange(big_n - 1) @ meets[len(fs):])[:, None])
            key, slot_of = np.unique(key, return_inverse=True)
            slot = np.array([slots.setdefault(u, len(slots))
                             for u in key.tolist()])[slot_of.ravel()] * nj + js[0]
            group = slot + np.repeat(p_of, few)     # its node, by row
            slot *= width
            # row h few + x, at stride times its number, holds the points
            # of the h-th H for output idx[x]: a stage point w of it is at
            # w + shift there, and at w + x T in base
            start = (np.arange(len(bases) * few) * stride).reshape(-1, few)
            shift = start - h_off[:, None]
            to_base = np.tile(np.arange(few) * offs[-1], len(bases)) - shift.ravel()
            # w = 0, w in H, w in F + H and v - w in H + C_r (H + C_0 = H)
            # where those are proper: A + H is H where A & H = A, else A or
            # the span of both, listed one H at a time
            pts = [(h_pts + shift[h_at].T).ravel() if mid_dim < d
                   else start.ravel()]      # w in H, unless H is full
            moved[pts[0]] = k
            moved[start] += k * (mid_dim < d)   # w = 0
            lists = [(h_at, h_pts, None)] * (mid_dim < d)
            for r, (a, meet) in enumerate(zip(subs, meets)):
                whole = len(a) + mid_dim - meet == d
                same = (meet == len(a)) & ~whole
                apart = np.flatnonzero(~whole & ~same).tolist()
                spans = [_span_indices(
                    a if meet[h] == mid_dim
                    else rref(a + bases[h], primes[p_of[h]]), d,
                    primes[p_of[h]]) for h in apart]
                hs = np.repeat(np.array(apart, dtype=np.intp),
                               list(map(len, spans)))
                w = np.concatenate([hs[:0], *spans]) + h_off[hs]
                if same.all():
                    hs, w = h_at, h_pts
                elif same.any():
                    sel = same[h_at]
                    hs, w = (np.concatenate([h_at[sel], hs]),
                             np.concatenate([h_pts[sel], w]))
                lists.append((hs, w, [x for x, i in enumerate(idx)
                                      if f_of[i] == r] if r < len(fs) else None))
            for hs, w, mine in lists:
                if mine is None:    # v - w in H + C_r, for every output
                    where, step = (np.take(perms, w, axis=1)
                                   + shift[hs].T).ravel(), big_n + 1
                else:               # w in F + H, for the outputs of F
                    where, step = (w + shift[hs][:, mine].T).ravel(), k
                # moved is nonzero exactly on the points listed so far
                was = moved[where]
                pts.append(where[was == 0])
                moved[where] = was + step
            # each point's row by a division, its base code by a gather
            pts = np.concatenate(pts)
            row = pts // stride
            old = base[pts + to_base[row]] + slot[row]
            size = len(slots) * nj * width
            hist = np.pad(hist, (0, size - len(hist)))
            hist += (np.bincount(old - moved[pts], minlength=size)
                     - np.bincount(old, minlength=size))
            rows = np.pad(rows, (0, len(slots) * nj - len(rows)))
            rows += np.bincount(group, minlength=len(slots) * nj)
            moved[pts] = 0
    # each group's histogram, at every node, shifted down where a sum is
    # full: a full H or F + H lowers every code by K, H + C_r by N + 1
    keys = sorted(slots)                        # by output
    at = [slots[key] for key in keys]
    hist = hist.reshape(len(keys), nj, width)[at]
    rows = rows.reshape(len(keys), nj)[at]
    info, shifts = [], []
    for key in keys:
        dims = [key // radix ** r % radix for r in range(big_n - 1)]
        i, i11 = divmod(key // radix ** (big_n - 1), radix)
        f_dim = len(fs[f_of[i]])
        al = (i11, f_dim - i11, mid_dim - i11, d - f_dim - mid_dim + i11)
        info.append((outs[i], al, (0, *dims, mid_dim)))
        hist[len(shifts)] += rows[len(shifts), :, None] * base_hist[i]
        shifts.append(k * (al[3] == 0) + k * (mid_dim == d) + (big_n + 1)
                      * sum(mid_dim + len(sub) - meet == d
                            for sub, meet in zip(chain, [0, *dims])))
    slot, at = np.nonzero(hist.any(axis=1))
    zone, rest = np.divmod(at - np.array(shifts)[slot], k)
    sizes = (0, *(len(sub) for sub in chain[1:]), d)
    cols = {}
    for s, zone, (c, m), col in zip(
            slot.tolist(), zone.tolist(),
            zip(*(x.tolist() for x in np.divmod(rest, big_n + 1))),
            hist[slot, :, at].tolist()):
        out, al, dims = info[s]
        cols.setdefault((_label(*al, ALL_DELTAS[zone]), _classified(
            sizes, dims, c, m, tensor)), []).append((out, tuple(col)))
    return {pair: tuple(col) for pair, col in cols.items()}


# column tables (`_columns`), charged in entries
_CONV_CACHE = LruMemo(SIZE_GUARD)
_MIXED_CACHE = LruMemo(SIZE_GUARD)
_FIT_MEMO_SIZE = 4096   # distinct fits `_fit` keeps


def _columns(d, outs, mid_dim, nodes, tensor=False):
    """The column table of a class at a tuple of nodes (`_count`), kept
    under (d, outs, dim H, nodes) in _MIXED_CACHE if tensor, else in
    _CONV_CACHE.  A miss counts the whole chain of the class (`_chain`) in
    one pass if one slice holds its rows, outputs times the sum of
    #H(p) p^d over the nodes, else the class alone (or the one output of
    `_conv_table`, whose chain never fits).  A pair's outputs all have its
    left factor's row sums, so the table splits by class, and each class's
    table not yet kept is kept."""
    memo = _MIXED_CACHE if tensor else _CONV_CACHE
    got = memo.get((d, outs, mid_dim, nodes))
    if got is None:
        chain = _chain(d, outs[0], tensor)
        if sum(map(len, chain)) * sum(_subspace_count(d, mid_dim, p) * p ** d
                                      for p in nodes) > SIZE_GUARD:
            chain = (outs,)
        tables = {cls: {} for cls in chain}
        of = {out: tables[cls] for cls in chain for out in cls}
        for pair, cols in _count(d, sum(chain, ()), mid_dim, nodes,
                                 tensor).items():
            of[cols[0][0]][pair] = cols
        tables[outs] = got = tables.pop(outs)   # kept last, so dropped last
        for cls, table in tables.items():
            if (d, cls, mid_dim, nodes) not in memo:
                memo.put((d, cls, mid_dim, nodes), table, len(table))
    return got


def _chain(d, out, tensor=False):
    """The classes whose canonical triples share the chain of out's: the
    2x2 labels of each row sums at out's column sums, or the marked
    sequences of each number of 1s."""
    co = None if tensor else row_col_sums(out)[1]
    return tuple(_tensor_outputs(d, a) if tensor else
                 _candidate_outputs(d, (a, d - a), co) for a in range(d + 1))


def _conv_table(d, out, mid_dim, p):
    """{(left, right): count} at the canonical triple of out (a 2x2 label or
    a marked sequence) at the one node p: its column in the column table
    of its class at (p,), or of out alone if the class's rows of one H,
    p^d points per output, pass SIZE_GUARD."""
    tensor = isinstance(out, MarkedSequence)
    outs = (_tensor_outputs(d, out.seq.count(1)) if tensor
            else _candidate_outputs(d, *row_col_sums(out)))
    outs = outs if len(outs) * p ** d <= SIZE_GUARD else (out,)
    return {pair: col[0]
            for pair, cols in _columns(d, outs, mid_dim, (p,), tensor).items()
            for lab, col in cols if lab == out}


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
    """The distinct primes, a sorted tuple; raises ValueError unless they
    are all prime, there are at least d^2 + 1 of them and the largest has
    p^d <= SIZE_GUARD.  They are a pool: `_nodes` picks from it the primes
    each call counts at, a key of `_columns`."""
    primes = tuple(sorted(set(primes)))
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


@lru_cache(maxsize=_FIT_MEMO_SIZE)
def _fit(nodes, col, bound):
    """substitute_q of the fit of the counts col at the nodes (checked at
    the nodes past bound + 1), or None if they do not fit."""
    try:
        return substitute_q(lagrange_interpolate(list(zip(nodes, col)), bound))
    except ValueError:
        return None


def _interpolated(outs, primes, d, count, bound=None, cols=None):
    """{out: nonzero coefficient} from the counts count(out, primes) of
    each out at the primes, or the columns cols (out, counts) (`_columns`).
    `_fit` fits each distinct column in q, once while its entry lives, at
    degree bound `bound` (d^2 if None); the primes past the first bound + 1
    check the fit.  If an output's counts fail it, the bound is doubled
    once and count counts the primes extended to 2 bound + 2 (for a class,
    in one kernel pass), one to check, the largest within the size guard.
    A column of zeros is skipped: the zero polynomial fits it."""
    if bound is None:
        bound = d * d
    if cols is None:    # a column table has no column of zeros
        cols = [(out, col) for out in outs
                if any(col := tuple(count(out, primes)))]
    terms = {}
    for out, col in cols:
        coeff = _fit(tuple(primes), col, bound)
        if coeff is None:
            more = (*primes, *primes_list(2 * bound + 2 - len(primes),
                                          primes[-1] + 1))
            _guard(more[-1], d)
            coeff = substitute_q(lagrange_interpolate(
                list(zip(more, count(out, more))), 2 * bound))
        if coeff:
            terms[out] = coeff
    return terms


def _constants(d, outs, mid_dim, pool, pair, tensor=False):
    """{out: coefficient} of pair = (left, right) over the outputs of its
    class, fitted by `_interpolated` at the degree bound D and nodes of
    `_nodes` from the column table of the class there."""
    bound, nodes = _nodes(pool, d, mid_dim)

    def count(out, primes):
        cols = _columns(d, outs, mid_dim, tuple(primes), tensor)
        return dict(cols.get(pair, ())).get(out, (0,) * len(primes))
    return _interpolated(outs, nodes, d, count, bound,
                         _columns(d, outs, mid_dim, nodes, tensor)
                         .get(pair, ()))


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
    return SchurElement(d, _constants(d, _candidate_outputs(d, ro_l, co_r),
                                      ro_r[0], primes, (left, right)))


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
    return _constants(d, _tensor_outputs(d, ro_l[0]), ones, primes,
                      (left, right_ms), True)
