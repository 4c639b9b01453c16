"""Finite-field brute force: orbit classification and interpolated products."""

import json
import random
import time
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from mirabolic import checks, oracle, schur_algebra
from mirabolic.decorated import (MarkedSequence, count_xi_tensor, decorated2,
                                 diag2, enumerate_xi, matrix_to_sequence,
                                 row_col_sums, sequence_to_matrix)
from mirabolic.linalg import LruMemo
from mirabolic.qv import (RF_ONE, lagrange_interpolate, rf_const,
                          substitute_q, v_power)
from mirabolic.schur_algebra import (SchurElement, chevalley, e_key, f_key,
                                     mul_general, one_key, x_key)
from mirabolic.tensor_space import TensorElement, ell_action, k_action


# --- brute-force references: flags, ranks and the tensor orbits -----------

def enumerate_flags(d, p, kind):
    """Flags over F_p^d: kind is "complete" or an integer r for the two-step
    flag 0 <= F_1 <= F_p^d with dim F_1 = r.  The full space is implicit, so a
    two-step flag is returned as a single subspace and a complete flag as the
    chain of dimensions 1..d-1."""
    oracle._guard(p, d)
    if kind == "complete":
        chains = [()]
        for r in range(1, d):
            new = []
            for chain in chains:
                prev = chain[-1].basis if chain else ()
                for basis in oracle._all_subspace_bases(d, p, r):
                    if all(oracle.in_span(basis, row, p) for row in prev):
                        new.append(chain + (
                            oracle.PrimeFieldSubspace(p, d, basis),))
            chains = new
        return chains
    r = int(kind)
    if not 0 <= r <= d:
        raise ValueError(f"two-step dimension {r} out of range")
    return [(oracle.PrimeFieldSubspace(p, d, b),)
            for b in oracle._all_subspace_bases(d, p, r)]


def fp_rank(rows, p):
    return len(oracle.rref(rows, p))


def tensor_orbit_invariant(t):
    """Marked sequence classifying a (two-step, complete, vector) triple:
    that of its decorated 2 x d matrix."""
    return matrix_to_sequence(oracle.orbit_invariant(t))


def canonical_tensor_representative(ms, p):
    """Distinguished (two-step, complete, vector) triple of a marked
    sequence: that of its decorated 2 x d matrix, whose chain is the
    standard coordinate flag."""
    return oracle.canonical_representative(sequence_to_matrix(ms, 2), p)


# --- whole-space classification, by brute force over every triple ----------

def classify_all_pairs(d, p):
    """Orbit sizes of all (two-step, two-step, vector) triples, by label."""
    if p ** d > oracle.SIZE_GUARD:
        raise ValueError("enumeration guard exceeded")
    subs = []
    for r in range(d + 1):
        subs.extend(enumerate_flags(d, p, r))
    vecs = list(product(range(p), repeat=d))
    sizes = {}
    for f in subs:
        for fp_ in subs:
            for v in vecs:
                lab = oracle.orbit_invariant(oracle.FlagTriple(f, fp_, v))
                sizes[lab] = sizes.get(lab, 0) + 1
    return sizes


def classify_all_mixed(d, p):
    """Orbit sizes of all (two-step, complete, vector) triples, by marked
    sequence."""
    if p ** d > oracle.SIZE_GUARD:
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
                ms = tensor_orbit_invariant(oracle.FlagTriple(f, ch, v))
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
        return oracle.PrimeFieldSubspace.from_rows(
            [act_vec(r) for r in s.basis], d, p)
    return oracle.FlagTriple(tuple(act_space(s) for s in t.F),
                             tuple(act_space(s) for s in t.Fp),
                             act_vec(t.v))


def test_enumerate_flags():
    assert len(enumerate_flags(2, 2, 1)) == 3
    assert len(enumerate_flags(3, 3, "complete")) == 52
    assert len(enumerate_flags(2, 2, 0)) == 1
    # canonical echelon bases, no duplicates
    lines = enumerate_flags(3, 2, 1)
    assert len({f[0].basis for f in lines}) == 7


def test_orbit_invariant_examples():
    p = 2
    f1 = oracle.PrimeFieldSubspace.from_rows([(1, 0)], 2, p)
    fp1 = oracle.PrimeFieldSubspace.from_rows([(0, 1)], 2, p)
    t = oracle.FlagTriple((f1,), (fp1,), (1, 1))
    assert oracle.orbit_invariant(t) == \
        decorated2(0, 1, 1, 0, frozenset({(1, 2), (2, 1)}))
    t0 = oracle.FlagTriple((f1,), (fp1,), (0, 0))
    assert oracle.orbit_invariant(t0).delta == frozenset()
    t2 = oracle.FlagTriple((f1,), (f1,), (1, 0))
    lab = oracle.orbit_invariant(t2)
    assert lab.a[0][0] == 1 and lab.delta == frozenset({(1, 1)})


def test_canonical_representative_round_trip():
    for d in (1, 2, 3):
        for p in (2, 3):
            for lab in enumerate_xi(2, d):
                t = oracle.canonical_representative(lab, p)
                assert oracle.orbit_invariant(t) == lab, (lab, p)


def test_orbit_partition():
    # orbit sizes add up to the full triple count
    for d in (1, 2, 3):
        for p in (2, 3):
            sizes = classify_all_pairs(d, p)
            subs = sum(len(enumerate_flags(d, p, r))
                       for r in range(d + 1))
            assert sum(sizes.values()) == subs * subs * p ** d
            assert set(sizes) == set(enumerate_xi(2, d))


def test_orbit_invariance_random_group_elements():
    rng = random.Random(2024)
    d, p = 3, 3
    subs = []
    for r in range(d + 1):
        subs.extend(enumerate_flags(d, p, r))
    vecs = list(product(range(p), repeat=d))
    for _ in range(100):
        t = oracle.FlagTriple(rng.choice(subs), rng.choice(subs),
                              rng.choice(vecs))
        g = random_invertible(d, p, rng)
        assert oracle.orbit_invariant(transform_triple(t, g)) == \
            oracle.orbit_invariant(t)


def test_convolution_count_examples():
    e1 = decorated2(1, 1, 0, 0)
    one1 = diag2(1, 1)
    assert oracle.convolution_count(e1, one1, e1, 2) == 1
    # diagonal left factor is a delta projector
    for out in enumerate_xi(2, 2):
        ro = row_col_sums(out)[0]
        dlab = diag2(ro[0], ro[1])
        for cand in enumerate_xi(2, 2):
            want = 1 if cand == out else 0
            assert oracle.convolution_count(dlab, out, cand, 3) == want
    # incompatible margins
    a = decorated2(1, 1, 0, 0)
    b = decorated2(0, 0, 1, 1)
    assert oracle.convolution_count(a, b, a, 2) == 0


def _literal_table(rep, mid_dim, p, right_invariant):
    """Convolution counts at the triple rep = (F, chain, v), found by
    classifying (F, H, u) with `orbit_invariant` and (H, chain, v - u) with
    right_invariant for every H and every u."""
    counts = {}
    for h in enumerate_flags(rep.d, p, mid_dim):
        for u in product(range(p), repeat=rep.d):
            v_minus_u = tuple((a - b) % p for a, b in zip(rep.v, u))
            pair = (oracle.orbit_invariant(oracle.FlagTriple(rep.F, h, u)),
                    right_invariant(oracle.FlagTriple(h, rep.Fp, v_minus_u)))
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def _literal_conv_table(out, mid_dim, p):
    return _literal_table(oracle.canonical_representative(out, p), mid_dim,
                          p, oracle.orbit_invariant)


def _literal_mixed_table(out_ms, mid_dim, p):
    return _literal_table(canonical_tensor_representative(out_ms, p),
                          mid_dim, p, tensor_orbit_invariant)


def test_conv_table_matches_literal_enumeration():
    for d, p in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        for out in enumerate_xi(2, d):
            for mid_dim in range(d + 1):
                assert oracle._conv_table(d, out, mid_dim, p) == \
                    _literal_conv_table(out, mid_dim, p), \
                    (d, out, mid_dim, p)


def test_mixed_conv_table_matches_literal_enumeration():
    tables = 0
    for d, p in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        for out_ms in enumerate_xi(2, d, tensor=True):
            for mid_dim in range(d + 1):
                assert oracle._conv_table(d, out_ms, mid_dim, p) == \
                    _literal_mixed_table(out_ms, mid_dim, p), \
                    (d, out_ms, mid_dim, p)
                tables += 1
    assert tables == 246


class _CheckedMemo(LruMemo):
    """The memo, checking its bound after every insertion and counting the
    entries it drops."""

    evicted = 0

    def put(self, key, value, size):
        before = len(self.entries)
        got = super().put(key, value, size)
        self.evicted += before + (size <= self.limit) - len(self.entries)
        assert self.size == sum(n for _, n in self.entries.values())
        assert self.size <= oracle.SIZE_GUARD
        return got


def test_point_memo_stays_bounded(monkeypatch):
    # under a guard of 2^14 points, the planes of F_11^3 fill most of the
    # memo and those of F_13^3 alone exceed it, so the memo drops entries
    # while it counts (the real guard has this shape at p = 31 and 37);
    # the tables are those counted under the real guard
    d, mid, guard = 3, 2, 1 << 14
    assert oracle._subspace_count(d, mid, 11) * 11 ** mid == 16093 <= guard
    assert oracle._subspace_count(d, mid, 13) * 13 ** mid == 30927 > guard
    outs = [decorated2(0, 1, 1, 1), decorated2(1, 1, 1, 0, {(2, 1)}),
            decorated2(0, 1, 2, 0, {(1, 2), (2, 1)})]
    monkeypatch.setattr(oracle, "_CONV_CACHE", LruMemo(oracle.SIZE_GUARD))
    want = [oracle._conv_table(d, out, mid, 13) for out in outs]
    monkeypatch.setattr(oracle, "SIZE_GUARD", guard)
    points = _CheckedMemo(guard)
    monkeypatch.setattr(oracle, "_POINTS", points)
    monkeypatch.setattr(oracle, "_CONV_CACHE", LruMemo(guard))
    for out in outs:
        oracle._conv_table(d, out, mid, 11)
    assert [oracle._conv_table(d, out, mid, 13) for out in outs] == want
    assert points.evicted and points.entries
    for value, _ in points.entries.values():
        for arr in (value[1:] if isinstance(value, tuple) else (value,)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    # a fresh session, with nothing cached, counts the same
    monkeypatch.setattr(oracle, "_POINTS", LruMemo(guard))
    monkeypatch.setattr(oracle, "_CONV_CACHE", LruMemo(guard))
    assert [oracle._conv_table(d, out, mid, 13) for out in outs] == want


def test_middle_chunks_resync_after_an_eviction(monkeypatch):
    # the 871 lines of F_29^3 come in 21 chunks of 42 or fewer; a chunk
    # dropped from the memo is rebuilt from the enumeration, which must
    # then step over the chunks still kept, so that the next chunk it
    # rebuilds holds the right subspaces
    d, p, r = 3, 29, 1
    size = oracle.SIZE_GUARD // p ** d
    monkeypatch.setattr(oracle, "_POINTS",
                        LruMemo(oracle.SIZE_GUARD))
    first = list(oracle._middle_chunks(d, p, r))
    assert len(first) == 21 and size == 42
    bases = list(oracle._all_subspace_bases(d, p, r))
    for evicted in ((0,), (3,), (0, 3)):
        for i in evicted:
            _, charged = oracle._POINTS.entries.pop(("middle", d, p, r,
                                                     i * size))
            oracle._POINTS.size -= charged
        again = list(oracle._middle_chunks(d, p, r))
        assert [b for part, _ in again for b in part] == bases, evicted
        assert all(np.array_equal(pts, pts0) for (_, pts), (_, pts0)
                   in zip(again, first, strict=True)), evicted


def test_counts_are_nonnegative_integers():
    rng = random.Random(6)
    labels = enumerate_xi(2, 2)
    for _ in range(30):
        left, right, out = (rng.choice(labels) for _ in range(3))
        for p in (2, 3, 5):
            n = oracle.convolution_count(left, right, out, p)
            assert isinstance(n, int) and n >= 0


def test_structure_constants_examples():
    primes = [2, 3, 5, 7, 11]
    x1 = x_key(2, 1)
    got = oracle.structure_constants(x1, x1, primes)
    want = SchurElement.basis(2, x1).scale(v_power(2) - rf_const(2)) + \
        SchurElement.basis(2, one_key(2, 1)).scale(v_power(2) - rf_const(1))
    assert got == want
    # identity times anything
    rng = random.Random(14)
    labels = enumerate_xi(2, 2)
    for _ in range(6):
        lab = rng.choice(labels)
        r0 = row_col_sums(lab)[0]
        got = oracle.structure_constants(diag2(r0[0], r0[1]), lab, primes)
        assert got == SchurElement.basis(2, lab)


def test_structure_constants_match_engine():
    # spot sample; the exhaustive d=2 sweep runs in the acceptance suite
    primes = [2, 3, 5, 7, 11]
    rng = random.Random(31)
    sample = rng.sample(checks.compatible_pairs(2), 15)
    assert not checks.failures(checks.oracle_agrees(sample, primes))


def test_chevalley_generator_products_match():
    primes = [2, 3, 5, 7, 11]
    d = 2
    gens = {g: chevalley(d, g) for g in ("e", "f", "k", "l")}
    for g1, x in gens.items():
        for g2, y in gens.items():
            got = SchurElement(d)
            for la, ca in x.terms.items():
                for lb, cb in y.terms.items():
                    prod = oracle.structure_constants(la, lb, primes)
                    got = got + prod.scale(ca * cb)
            assert got == mul_general(x, y), (g1, g2)


def test_tensor_orbit_examples():
    p = 3
    full = oracle.PrimeFieldSubspace.from_rows([(1,)], 1, p)
    t = oracle.FlagTriple((full,), (), (1,))
    assert tensor_orbit_invariant(t) == \
        MarkedSequence((1,), frozenset({1}))
    assert len(classify_all_mixed(2, 2)) == 13


def test_tensor_partition_and_counts():
    for d in (1, 2, 3):
        for p in (2, 3):
            sizes = classify_all_mixed(d, p)
            assert set(sizes) == set(enumerate_xi(2, d, tensor=True))
            assert len(sizes) == count_xi_tensor(2, d)
            subs = sum(len(enumerate_flags(d, p, r))
                       for r in range(d + 1))
            completes = len(enumerate_flags(d, p, "complete"))
            assert sum(sizes.values()) == subs * completes * p ** d


def test_tensor_representative_round_trip():
    for d in (1, 2, 3):
        for p in (2, 3):
            for ms in enumerate_xi(2, d, tensor=True):
                t = canonical_tensor_representative(ms, p)
                assert tensor_orbit_invariant(t) == ms, (ms, p)


def test_tensor_invariance_random_group_elements():
    rng = random.Random(77)
    d, p = 3, 2
    subs = []
    for r in range(d + 1):
        subs.extend(enumerate_flags(d, p, r))
    completes = enumerate_flags(d, p, "complete")
    vecs = list(product(range(p), repeat=d))
    for _ in range(100):
        t = oracle.FlagTriple(rng.choice(subs), rng.choice(completes),
                              rng.choice(vecs))
        g = random_invertible(d, p, rng)
        assert tensor_orbit_invariant(transform_triple(t, g)) \
            == tensor_orbit_invariant(t)


def test_constants_reject_composite_moduli():
    # counting over Z/4 is not counting over a field
    lab = diag2(1, 1)
    ms = MarkedSequence((1, 2))
    with pytest.raises(ValueError, match="4 is not prime"):
        oracle.tensor_action_constants(lab, ms, [2, 3, 4, 5, 7])
    with pytest.raises(ValueError, match="4 is not prime"):
        oracle.structure_constants(lab, lab, [2, 3, 4, 5, 7])


def test_constants_refuse_oversize_primes_at_once():
    # the 17 primes d = 4 needs end at 59, and 59^4 > SIZE_GUARD: refused
    # before the tables of the smaller primes are counted
    lab = diag2(2, 2)
    primes = oracle.primes_list(17)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="enumeration guard"):
        oracle.structure_constants(lab, lab, primes)
    with pytest.raises(ValueError, match="enumeration guard"):
        oracle.tensor_action_constants(lab, MarkedSequence((1, 1, 2, 2)),
                                       primes)
    assert time.monotonic() - t0 < 1.0


def test_interpolation_retries_at_twice_the_bound():
    # at d = 1 the bound is q^1: counts q^2 at 2, 3, 5 break it, and the
    # retry at degree 2 finds q^2 = v^4 on 2, 3, 5 and checks it at 7
    seen = []
    q2 = oracle._interpolated(["x"], [2, 3, 5], 1,
                              _counts(seen, lambda p: p ** 2))
    assert q2 == {"x": v_power(4)} and seen == [(2, 3, 5), (2, 3, 5, 7)]
    # counts q^3 break degree 2 as well, which the fourth prime shows, also
    # when the caller gave only three
    for primes in ([2, 3, 5, 7], [2, 3, 5]):
        with pytest.raises(ValueError):
            oracle._interpolated(["x"], primes, 1,
                                 _counts([], lambda p: p ** 3), bound=1)
    # at d = 2, six primes check a fit of degree 4; the retry at degree 8
    # extends them to the nine it needs and a tenth that checks it, all
    # counted at once
    seen = []
    got = oracle._interpolated(["x"], oracle.primes_list(6), 2,
                               _counts(seen, lambda p: p ** 5))
    assert got == {"x": v_power(10)}
    assert seen == [tuple(oracle.primes_list(n)) for n in (6, 10)]


def _counts(seen, f):
    """count(out, primes) of `oracle._interpolated`: f(p) at each prime,
    recording each tuple of primes counted at."""
    return lambda out, primes: seen.append(tuple(primes)) or [
        f(p) for p in primes]


def _fresh_memos(monkeypatch, fits=oracle._FIT_MEMO_SIZE):
    """Empty table memos, and an empty fit memo of at most `fits` entries."""
    for memo in ("_CONV_CACHE", "_MIXED_CACHE"):
        monkeypatch.setattr(oracle, memo, LruMemo(oracle.SIZE_GUARD))
    monkeypatch.setattr(oracle, "_fit",
                        lru_cache(maxsize=fits)(oracle._fit.__wrapped__))


def _kernel_passes(monkeypatch):
    """Record (middle dimension, nodes, number of outputs) of every pass of
    the counting kernel from here on, starting from empty memos."""
    passes = []
    count = oracle._count

    def counting(d, outs, mid_dim, nodes, tensor=False):
        passes.append((mid_dim, nodes, len(outs)))
        return count(d, outs, mid_dim, nodes, tensor)
    monkeypatch.setattr(oracle, "_count", counting)
    _fresh_memos(monkeypatch)
    return passes


def test_entries_are_counted_at_their_degree_bound(monkeypatch):
    # at d = 3 an entry at middle dimension mid has degree at most
    # mid (3 - mid) + 3: 5 at mid 1 and 2, 3 at mid 0 and 3, so of the
    # 10-prime pool only the 7 or the 5 smallest are counted, in one pass
    d, pool = 3, oracle.primes_list(10)
    want = {0: pool[:5], 1: pool[:7], 2: pool[:7], 3: pool[:5]}
    labels = enumerate_xi(2, d)
    for mid, nodes in want.items():
        passes = _kernel_passes(monkeypatch)
        left, right = next((a, b) for a, b in checks.compatible_pairs(d)
                           if row_col_sums(b)[0][0] == mid
                           and a.a[0][1] + a.a[1][0])
        assert oracle.structure_constants(left, right, pool) == \
            mul_general(SchurElement.basis(d, left),
                        SchurElement.basis(d, right)), mid
        assert [(m, ps) for m, ps, _ in passes] == \
            [(mid, tuple(nodes))], mid
        passes = _kernel_passes(monkeypatch)
        ms = next(m for m in enumerate_xi(2, d, tensor=True)
                  if m.seq.count(1) == mid)
        left = next(lab for lab in labels
                    if row_col_sums(lab)[1] == (mid, d - mid)
                    and lab.a[0][1] + lab.a[1][0])
        oracle.tensor_action_constants(left, ms, pool)
        assert [(m, ps) for m, ps, _ in passes] == \
            [(mid, tuple(nodes))], mid


def test_two_prime_pool_at_d1_is_used_whole(monkeypatch):
    # D = 1 at d = 1, so the two primes fix the fit and none is spare;
    # one pass counts at both
    for right in enumerate_xi(2, 1):
        left = diag2(*row_col_sums(right)[0])
        passes = _kernel_passes(monkeypatch)
        assert oracle.structure_constants(left, right, [2, 3]) == \
            SchurElement.basis(1, right)
        assert [ps for _, ps, _ in passes] == [(2, 3)]
    passes = _kernel_passes(monkeypatch)
    assert oracle.tensor_action_constants(
        diag2(1, 0), MarkedSequence((1,)), [2, 3]) == \
        {MarkedSequence((1,)): RF_ONE}
    assert [ps for _, ps, _ in passes] == [(2, 3)]


def _pair_of_class(d, ro, mid, co):
    """The first compatible pair with left row sums ro, middle sum mid and
    right column sums co."""
    return next((a, b) for a, b in checks.compatible_pairs(d)
                if row_col_sums(a)[0] == ro and row_col_sums(b)[1] == co
                and row_col_sums(b)[0][0] == mid)


def test_one_kernel_pass_per_class_at_all_its_nodes(monkeypatch):
    # every candidate output of a product (or of a tensor action) is
    # counted at every interpolation node in the same pass; a class with a
    # single H (mid 0 or d) is counted with its whole chain, the 22 labels
    # of every row sums at its column sums, whose rows all fit one slice
    d, pool = 3, oracle.primes_list(10)
    for kind, ro, mid, co, size in (("trivial", (1, 2), 0, (2, 1), 22),
                                    ("trivial", (2, 1), 3, (1, 2), 22),
                                    ("edge", (3, 0), 1, (0, 3), 2),
                                    ("wide", (1, 2), 2, (2, 1), 8)):
        left, right = _pair_of_class(d, ro, mid, co)
        passes = _kernel_passes(monkeypatch)
        assert oracle.structure_constants(left, right, pool) == \
            mul_general(SchurElement.basis(d, left),
                        SchurElement.basis(d, right)), kind
        _, nodes = oracle._nodes(pool, d, mid)
        assert passes == [(mid, tuple(nodes), size)], kind
        outs = oracle._candidate_outputs(d, ro, co)
        if kind == "trivial":
            outs = sum(oracle._chain(d, outs[0]), ())
        assert len(outs) == size
    passes = _kernel_passes(monkeypatch)
    ms = MarkedSequence((1, 2, 2))
    left = next(lab for lab in enumerate_xi(2, d)
                if row_col_sums(lab) == ((2, 1), (1, 2)))
    got = oracle.tensor_action_constants(left, ms, pool)
    assert got and set(got) <= set(oracle._tensor_outputs(d, 2))
    _, nodes = oracle._nodes(pool, d, 1)
    assert passes == [(1, tuple(nodes), len(oracle._tensor_outputs(d, 2)))]


def test_class_past_the_guard_counts_the_output_alone(monkeypatch):
    # under the real guard a table miss at d = 2, p = 5 counts the chain
    # of 13 outputs that holds the class of 7 in one pass; with room for
    # the p^d points of one output but not for the rows of its whole
    # class, it counts the output asked for alone, and each table equals
    # the one counted with its chain under the real guard; the chunks of
    # middle subspaces are memoised at the size the guard gives them, so
    # the smaller guard starts from an empty point memo
    d, p, mid = 2, 5, 1
    for outs, tensor in ((oracle._candidate_outputs(d, (1, 1), (1, 1)), False),
                         (oracle._tensor_outputs(d, 1), True)):
        assert len(outs) == 7
        assert sum(map(len, oracle._chain(d, outs[0], tensor))) == 13
        passes = _kernel_passes(monkeypatch)
        want = [oracle._conv_table(d, out, mid, p) for out in outs]
        assert passes == [(mid, (p,), 13)]
        passes = _kernel_passes(monkeypatch)
        monkeypatch.setattr(oracle, "SIZE_GUARD", p ** d)
        monkeypatch.setattr(oracle, "_POINTS", LruMemo(p ** d))
        assert [oracle._conv_table(d, out, mid, p) for out in outs] == want
        assert passes == [(mid, (p,), 1)] * len(outs)
        monkeypatch.undo()


def test_every_product_takes_one_pass_per_chain_or_class(monkeypatch):
    # from empty memos, all 267 products at d = 2 take 9 passes (a chain
    # per column sums and middle dimension), and all 1,168 at d = 3 take
    # 40: a chain per column sums at mid 0 and 3, a class per row and
    # column sums at mid 1 and 2, whose rows at the primes up to 17 pass
    # the guard
    for d, want in ((2, [3, 3, 3]), (3, [4, 16, 16, 4])):
        passes = _kernel_passes(monkeypatch)
        pairs, pool = checks.compatible_pairs(d), oracle.interpolation_primes(d)
        assert len(pairs) == (267 if d == 2 else 1168)
        for left, right in pairs:
            oracle.structure_constants(left, right, pool)
        assert [[m for m, _, _ in passes].count(mid)
                for mid in range(d + 1)] == want, d


def test_chain_pass_keeps_each_class_table_of_its_own_pass(monkeypatch):
    # at mid 0 and d, where a chain's rows fit one slice, the table that a
    # chain pass keeps for each of its classes is the one the class's own
    # pass counts, entry for entry and in the same order, for 2x2 labels
    # and marked sequences
    for d in (1, 2, 3):
        pool = oracle.interpolation_primes(d)
        sums = [(a, d - a) for a in range(d + 1)]
        heads = [(oracle._candidate_outputs(d, sums[0], co), False)
                 for co in sums] + [(oracle._tensor_outputs(d, 0), True)]
        for mid, (outs, tensor) in product((0, d), heads):
            nodes = tuple(oracle._nodes(pool, d, mid)[1])
            passes = _kernel_passes(monkeypatch)
            oracle._columns(d, outs, mid, nodes, tensor)
            chain = oracle._chain(d, outs[0], tensor)
            assert passes == [(mid, nodes, sum(map(len, chain)))]
            memo = oracle._MIXED_CACHE if tensor else oracle._CONV_CACHE
            assert len(memo) == len(chain)
            for cls in chain:
                kept = memo.get((d, cls, mid, nodes))
                assert list(kept.items()) == list(oracle._count(
                    d, cls, mid, nodes, tensor).items()), (d, mid, cls)


def test_pass_split_into_stages_and_slices_counts_the_same(monkeypatch):
    # under a guard of 2^12 points, a pass of a class of 8 outputs at the
    # nodes 2, ..., 11 goes in stages: 2, 3, 5, 7 together, then 11 with 3
    # outputs at a time (for the 15 marked sequences with one 1, 7 goes
    # alone with 11 of them at a time), and the lines of each prime come
    # in many slices; its column table is the one counted in one stage
    # under the real guard
    d, mid, guard = 3, 1, 1 << 12
    nodes = tuple(oracle.primes_list(5))
    for tensor, outs in ((False, oracle._candidate_outputs(d, (1, 2), (1, 2))),
                         (True, oracle._tensor_outputs(d, 1))):
        _fresh_memos(monkeypatch)
        want = oracle._count(d, outs, mid, nodes, tensor)
        monkeypatch.setattr(oracle, "SIZE_GUARD", guard)
        monkeypatch.setattr(oracle, "_POINTS", LruMemo(guard))
        stages = [(js, list(idx))
                  for js, idx in oracle._stages(nodes, len(outs), d)]
        assert stages[-1] == ([4], [12, 13, 14] if tensor else [6, 7])
        assert stages[:2] == ([([0, 1, 2], list(range(15))),
                               ([3], list(range(11)))] if tensor else
                              [([0, 1, 2, 3], list(range(8))),
                               ([4], [0, 1, 2])])
        assert oracle._count(d, outs, mid, nodes, tensor) == want, tensor
        monkeypatch.undo()


class _NumpyRecorder:
    """numpy, recording the number of entries of every one-dimensional
    array made by `zeros`."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, *args, **kwargs):
        arr = np.zeros(shape, *args, **kwargs)
        if arr.ndim == 1:
            self.sizes.append(arr.size)
        return arr


def test_exact_stride_slices_mixing_primes_count_the_same(monkeypatch):
    # under a guard of 2^15 points, rows at their exact size p^d put the
    # last lines of F_7^3 (343 points, far below 512) and the first of
    # F_11^3 (1,331, below 2,048) in one slice at the stride 1,331, and a
    # slice takes 12 lines of F_11^3 for 2 outputs (8 at a power-of-two
    # stride); no slice holds more than the guard's points, nor does the
    # scratch array, and the column tables are the ones counted under the
    # real guard
    d, mid, guard, nodes = 3, 1, 1 << 15, (2, 3, 5, 7, 11)
    slices = oracle._slices
    for outs in (oracle._candidate_outputs(d, (3, 0), (0, 3)),
                 oracle._candidate_outputs(d, (1, 2), (1, 2))):
        _fresh_memos(monkeypatch)
        want = oracle._count(d, outs, mid, nodes)
        seen, recorder = [], _NumpyRecorder()

        def recording(primes, few, d, mid_dim):
            for parts, stride in slices(primes, few, d, mid_dim):
                seen.append(({primes[j] for j, _, _ in parts}, stride, sum(
                    len(bases) for _, bases, _ in parts)))
                assert seen[-1][2] * few * stride <= guard
                yield parts, stride
        monkeypatch.setattr(oracle, "_slices", recording)
        monkeypatch.setattr(oracle, "np", recorder)
        monkeypatch.setattr(oracle, "SIZE_GUARD", guard)
        monkeypatch.setattr(oracle, "_POINTS", LruMemo(guard))
        assert oracle._count(d, outs, mid, nodes) == want, len(outs)
        assert ({7, 11}, 11 ** 3) in [(ps, s) for ps, s, _ in seen]
        assert all(s == max(ps) ** d for ps, s, _ in seen)
        if len(outs) == 2:
            assert max(n for ps, _, n in seen if ps == {11}) == 12
        assert recorder.sizes and max(recorder.sizes) <= guard
        monkeypatch.undo()


def test_class_tables_with_several_f_match_literal_enumeration(monkeypatch):
    # in each class below the outputs have two values of a11, hence two
    # different F (and the marked sequences several): every table of the
    # class, built in one pass, is the literal count
    d, p = 3, 3
    for memo in ("_CONV_CACHE", "_MIXED_CACHE"):
        monkeypatch.setattr(oracle, memo, LruMemo(oracle.SIZE_GUARD))
    for mid, (ro, co) in enumerate((((1, 2), (2, 1)), ((1, 2), (1, 2)),
                                    ((2, 1), (2, 1)), ((2, 1), (1, 2)))):
        outs = oracle._candidate_outputs(d, ro, co)
        assert len({out.a[0][0] for out in outs}) == 2
        for out in outs:
            assert oracle._conv_table(d, out, mid, p) == \
                _literal_conv_table(out, mid, p), (mid, out)
        for ms in oracle._tensor_outputs(d, 1 + mid % 2):
            assert oracle._conv_table(d, ms, mid, p) == \
                _literal_mixed_table(ms, mid, p), (mid, ms)


def test_class_over_several_chunks_fits_the_interpolated_constants(
        monkeypatch):
    # a wide class of 8 outputs at mid 1: at p <= 7 all its (output, line)
    # rows fit one slice, at p = 17 and 19 a slice holds 26 and 19 of the
    # 307 and 381 lines (which at 19 come in three chunks), as rows sit at
    # the stride p^d; every entry of every table of the class lies on the
    # polynomial fitted at 2, ..., 13, and that is the engine's constant
    d, ro, mid, co = 3, (1, 2), 1, (1, 2)
    primes = oracle.primes_list(8)
    outs = oracle._candidate_outputs(d, ro, co)
    for p, most in ((7, 57), (17, 26), (19, 19)):
        slices = list(oracle._slices((p,), len(outs), d, mid))
        assert [stride for _, stride in slices] == [p ** d] * len(slices)
        lines = [sum(len(bases) for _, bases, _ in parts)
                 for parts, _ in slices]
        assert max(lines) == most and sum(lines) == \
            oracle._subspace_count(d, mid, p), p
    for memo in ("_CONV_CACHE", "_MIXED_CACHE"):
        monkeypatch.setattr(oracle, memo, LruMemo(oracle.SIZE_GUARD))
    for out in outs:
        tables = [oracle._conv_table(d, out, mid, p) for p in primes]
        for left, right in set().union(*tables):
            counts = [(p, t.get((left, right), 0))
                      for p, t in zip(primes, tables)]
            poly = lagrange_interpolate(counts, mid * (d - mid) + d)
            want = mul_general(SchurElement.basis(d, left),
                               SchurElement.basis(d, right))
            assert substitute_q(poly) == want.terms.get(out, 0), \
                (out, left, right)


class _RecordingMemo(LruMemo):
    """The memo, counting the entries small enough to be stored."""

    def __init__(self, limit):
        super().__init__(limit)
        self.kept = 0

    def put(self, key, value, size):
        self.kept += size <= self.limit
        return super().put(key, value, size)


@pytest.mark.parametrize("limit", (1, 64))
def test_table_memo_eviction_keeps_every_answer(monkeypatch, limit):
    # samples of d = 2 and d = 3 products and of d = 2 tensor actions,
    # with room for every table and then with memos that store no table
    # (none has a single entry) or a few and drop them all the time (the
    # column tables of the sample take 369 and 127 entries), and a fit memo
    # that holds no fit or one: a miss recounts the whole class or fits the
    # column again, and the JSON answers are the same bytes
    rng = random.Random(23)
    pairs = (rng.sample(checks.compatible_pairs(2), 40)
             + rng.sample(checks.compatible_pairs(3), 4))
    actions = rng.sample([(lab, ms) for ms in enumerate_xi(2, 2, tensor=True)
                          for lab in enumerate_xi(2, 2)
                          if row_col_sums(lab)[1][0] == ms.seq.count(1)], 30)

    def answers():
        products = [oracle.structure_constants(
            a, b, oracle.interpolation_primes(a.d)).to_json()
            for a, b in pairs]
        tensor = [TensorElement(2, oracle.tensor_action_constants(
            lab, ms, oracle.interpolation_primes(2))).to_json()
            for lab, ms in actions]
        return json.dumps([products, tensor], sort_keys=True)

    _fresh_memos(monkeypatch)
    want = answers()
    fits = int(limit > 1)
    _fresh_memos(monkeypatch, fits)
    small = {memo: _RecordingMemo(limit)
             for memo in ("_CONV_CACHE", "_MIXED_CACHE")}
    for memo, table_memo in small.items():
        monkeypatch.setattr(oracle, memo, table_memo)
    assert answers() == want
    for table_memo in small.values():
        assert table_memo.size <= limit
        assert (table_memo.kept > len(table_memo) + 10) == (limit > 1)
    assert oracle._fit.cache_info().currsize == fits


def test_lru_memo_membership_keeps_the_order():
    memo = LruMemo(10)
    for key in "abc":
        memo.put(key, key, 3)
    assert "a" in memo and "z" not in memo
    memo.put("d", "d", 3)       # drops the least recently used: still "a"
    assert "a" not in memo and list(memo.entries) == ["b", "c", "d"]


def test_spare_node_catches_a_count_past_the_bound():
    # counts of degree D + 1 on D + 2 nodes: the first D + 1 alone fit the
    # wrong degree-D polynomial q^(D+1) - prod(q - p), which the spare node
    # refutes; the retry at degree 2D then finds q^(D+1) = v^(2D+2)
    for d, bound in ((1, 1), (2, 3), (3, 3), (3, 5)):
        nodes = oracle.primes_list(bound + 2)
        pts = [(p, p ** (bound + 1)) for p in nodes]
        assert lagrange_interpolate(pts[:-1], bound) != \
            [0] * (bound + 1) + [1]
        seen = []
        got = oracle._interpolated(
            ["x"], nodes, d, _counts(seen, lambda p: p ** (bound + 1)),
            bound=bound)
        assert got == {"x": v_power(2 * bound + 2)}, (d, bound)
        assert seen == [tuple(nodes),
                        tuple(oracle.primes_list(2 * bound + 2))]
        # a count within the bound is fitted on the nodes, with no retry
        seen.clear()
        got = oracle._interpolated(
            ["x"], nodes, d, _counts(seen, lambda p: p ** bound),
            bound=bound)
        assert got == {"x": v_power(2 * bound)} and seen == [tuple(nodes)]


def test_all_zero_columns_are_not_fitted(monkeypatch):
    # an output counted 0 at every node is skipped, not fitted to the zero
    # polynomial; every product of a seeded d = 3 sample stays the engine's.
    # Empty memos, or the fits of earlier tests would leave none to record
    _fresh_memos(monkeypatch)
    fits = []
    fit = oracle.lagrange_interpolate

    def recording(points, degree_bound):
        fits.append([y for _, y in points])
        return fit(points, degree_bound)
    monkeypatch.setattr(oracle, "lagrange_interpolate", recording)
    d, pool = 3, oracle.primes_list(10)
    outputs = 0
    for left, right in random.Random(31).sample(checks.compatible_pairs(d),
                                                16):
        assert oracle.structure_constants(left, right, pool) == \
            mul_general(SchurElement.basis(d, left),
                        SchurElement.basis(d, right)), (left, right)
        outputs += len(oracle._candidate_outputs(
            d, row_col_sums(left)[0], row_col_sums(right)[1]))
    assert fits and all(any(col) for col in fits)
    assert len(fits) < outputs      # some columns were zero, and skipped


def _columns_of_nodes(table, d, outs, mid, nodes):
    """The column table of a class rebuilt from the table of each output
    and node: {(left, right): ((output, counts), ...)}, outputs in order."""
    want = {}
    for out in outs:
        tables = [table(d, out, mid, p) for p in nodes]
        for pair in set().union(*tables):
            want.setdefault(pair, []).append(
                (out, tuple(t.get(pair, 0) for t in tables)))
    return {pair: tuple(cols) for pair, cols in want.items()}


def test_column_tables_match_the_tables_of_each_node(monkeypatch):
    # every product and tensor class at d <= 2, and at d = 3 an edge class
    # of oracle-certify and a class of one middle subspace: the column
    # table counted at all the nodes in one pass holds, column for column,
    # the entries of the tables counted at one node each
    _fresh_memos(monkeypatch)
    sums = {d: [(a, d - a) for a in range(d + 1)] for d in (1, 2)}
    classes = [(d, ro, mid, co) for d in (1, 2) for ro in sums[d]
               for mid in range(d + 1) for co in sums[d]]
    classes += [(3, (3, 0), 1, (0, 3)), (3, (1, 2), 0, (2, 1))]
    for d, ro, mid, co in classes:
        _, nodes = oracle._nodes(oracle.interpolation_primes(d), d, mid)
        for tensor, table, outs in (
                (False, oracle._conv_table,
                 oracle._candidate_outputs(d, ro, co)),
                (True, oracle._conv_table,
                 oracle._tensor_outputs(d, ro[0]))):
            got = oracle._columns(d, outs, mid, tuple(nodes), tensor)
            assert got == _columns_of_nodes(table, d, outs, mid, nodes)
            assert all(any(col) for cols in got.values() for _, col in cols)
    # a product whose class table is built reads no per-node table
    calls = []
    conv_table = oracle._conv_table
    monkeypatch.setattr(oracle, "_conv_table",
                        lambda *key: calls.append(key) or conv_table(*key))
    for d, ro, mid, co in classes[-2:]:
        left, right = _pair_of_class(d, ro, mid, co)
        assert oracle.structure_constants(
            left, right, oracle.interpolation_primes(d)) == mul_general(
            SchurElement.basis(d, left), SchurElement.basis(d, right))
    assert calls == []


def test_one_fit_per_distinct_column(monkeypatch):
    # from an empty fit memo, a seeded d = 3 sample fits each distinct
    # (points, bound) once, although classes share their columns
    _fresh_memos(monkeypatch)
    fits = []
    fit = oracle.lagrange_interpolate

    def recording(points, degree_bound):
        fits.append((tuple(points), degree_bound))
        return fit(points, degree_bound)
    monkeypatch.setattr(oracle, "lagrange_interpolate", recording)
    d, pool = 3, oracle.interpolation_primes(3)
    for left, right in random.Random(37).sample(checks.compatible_pairs(d),
                                                40):
        assert oracle.structure_constants(left, right, pool) == \
            mul_general(SchurElement.basis(d, left),
                        SchurElement.basis(d, right)), (left, right)
    info = oracle._fit.cache_info()
    assert len(fits) == len(set(fits)) == info.misses and info.hits > 0
    # with the failed fit memoised, the retry at twice the bound still
    # counts all 2D + 2 primes at once, and gives the same coefficient
    # every time
    # (the fit is keyed on nodes, counts and bound, so (3, 3) would share
    # the entry of (2, 3))
    for d, bound in ((1, 1), (2, 3), (3, 5)):
        nodes = oracle.primes_list(bound + 2)
        for warm in (False, True):
            hits, seen = oracle._fit.cache_info().hits, []
            got = oracle._interpolated(
                ["x"], nodes, d, _counts(seen, lambda p: p ** (bound + 1)),
                bound=bound)
            assert got == {"x": v_power(2 * bound + 2)}, (d, bound)
            assert seen[-1] == tuple(oracle.primes_list(2 * bound + 2))
            assert oracle._fit.cache_info().hits == hits + warm


def test_interpolation_primes():
    assert oracle.interpolation_primes(1) == [2, 3]
    assert oracle.interpolation_primes(3) == oracle.primes_list(10)
    # the 17 primes of d = 4 end at 59, and 59^4 > SIZE_GUARD
    for d in (4, oracle.SIZE_GUARD.bit_length(), 10 ** 6):
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="points per prime"):
            oracle.interpolation_primes(d)
        assert time.monotonic() - t0 < 1.0


def _oracle_generator_action(d, gen, ms, primes):
    out = TensorElement(d)
    for lab, c in chevalley(d, gen).terms.items():
        for cand, coeff in oracle.tensor_action_constants(lab, ms,
                                                          primes).items():
            out = out + TensorElement.basis(d, cand).scale(c * coeff)
    return out


def test_oracle_tensor_action_matches_closed_forms(monkeypatch):
    # k and l actions recovered by point counting equal the formulas; at
    # d = 3 the lines and planes are counted at the primes up to 17, and
    # the 307 lines (or planes) of F_17^3 take two chunks of 213
    chunks = []
    middle_chunks = oracle._middle_chunks

    def counted(d, p, r):
        n = 0
        for part in middle_chunks(d, p, r):
            n += 1
            yield part
        chunks.append(n)
    monkeypatch.setattr(oracle, "_middle_chunks", counted)
    monkeypatch.setattr(oracle, "_MIXED_CACHE", LruMemo(oracle.SIZE_GUARD))
    for d in (2, 3):
        primes = oracle.primes_list(d * d + 1)
        for ms in enumerate_xi(2, d, tensor=True):
            x = TensorElement.basis(d, ms)
            assert _oracle_generator_action(d, "k", ms, primes) == \
                k_action(x)
            assert _oracle_generator_action(d, "l", ms, primes) == \
                ell_action(x)
    assert max(chunks) >= 2


def test_step_columns_match_the_oracle_on_marked_sequences():
    # E_r and F_(r-1) count the same subspaces over the complete flag of a
    # marked sequence as over the flag F' of a 2x2 label, so the engine's
    # columns on its 2 x d matrix are the oracle's tensor action
    actions = 0
    for d in (1, 2, 3):
        pool = oracle.interpolation_primes(d)
        for ms in enumerate_xi(2, d, tensor=True):
            r = ms.seq.count(1)
            keys = ([("e", e_key(d, r))] if r < d else []) + \
                ([("f", f_key(d, r - 1))] if r else [])
            for kind, key in keys:
                got = schur_algebra._special_column(
                    kind, sequence_to_matrix(ms, 2))
                assert {matrix_to_sequence(lab): c
                        for lab, c in got.items()} == \
                    oracle.tensor_action_constants(key, ms, pool), (key, ms)
                actions += 1
    assert actions == 92


def test_oracle_tensor_ef_relation():
    # e and f act on the tensor space by point counts alone here; verify the
    # algebra relation (ef - fe) = (k - k^-1)/(v - v^-1) through them
    primes = [2, 3, 5, 7, 11]
    d = 2
    basis = sorted(enumerate_xi(2, d, tensor=True),
                   key=lambda m: m.sort_key())
    idx = {ms: i for i, ms in enumerate(basis)}

    def matrix(gen):
        cols = {}
        for ms in basis:
            cols[ms] = _oracle_generator_action(d, gen, ms, primes)
        return cols

    e_cols, f_cols, k_cols, ki_cols = (matrix(g)
                                       for g in ("e", "f", "k", "k^-1"))

    def compose(outer, inner_cols, ms):
        total = TensorElement(d)
        for mid, c in inner_cols[ms].terms.items():
            total = total + outer[mid].scale(c)
        return total

    den = v_power(1) - v_power(-1)
    for ms in basis:
        lhs = compose(e_cols, f_cols, ms) - compose(f_cols, e_cols, ms)
        rhs = (k_cols[ms] - ki_cols[ms]).scale(RF_ONE / den)
        assert lhs == rhs, ms
