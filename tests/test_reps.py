"""Simple finite-dimensional modules, Casimir scalars, weight decompositions."""

import hashlib
import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import checks, pbw, reps
from mirabolic.linalg import (FOLD_MEMO_TERMS, Combination, LruMemo, fold_word,
                              solve_unique)
from mirabolic.qv import (RF_ONE, RF_ZERO, format_coeff, quantum_integer,
                          rf_const, v_power)
from mirabolic.schur_algebra import GeneratorWord


def unit_vec(M, j):
    vec = [RF_ZERO] * M.dim
    vec[j] = RF_ONE
    return vec


def test_module_names():
    assert reps.format_module_name("L01", "+", 3) == "L+(3,01)"
    assert reps.parse_module_name("L-(4,1)") == ("L1", "-", 4)
    assert reps.parse_module_name("L+(2,0)") == ("L0", "+", 2)
    with pytest.raises(ValueError):
        reps.parse_module_name("M(2,0)")


def test_dimensions():
    assert reps.build_module("L0", "+", 3).dim == 4
    assert reps.build_module("L1", "-", 0).dim == 1
    assert reps.build_module("L01", "+", 4).dim == 8
    with pytest.raises(ValueError):
        reps.build_module("L01", "+", 0)


def test_action_examples():
    M = reps.build_module("L01", "+", 1)
    # basis: m_{0,0}, m_{1,1}
    e_on_m11 = reps.act(GeneratorWord(RF_ONE, ("e",)), M, unit_vec(M, 1))
    assert e_on_m11 == [RF_ONE, RF_ZERO]

    M = reps.build_module("L01", "+", 3)
    # f. m_{0,0} = m_{1,0} + m_{1,1}
    f_on_m00 = reps.act(GeneratorWord(RF_ONE, ("f",)), M, unit_vec(M, 0))
    idx = {lab: i for i, lab in enumerate(M.basis)}
    want = [RF_ZERO] * M.dim
    want[idx[(1, 0)]] = RF_ONE
    want[idx[(1, 1)]] = RF_ONE
    assert f_on_m00 == want
    # l kills the eps = 0 part
    assert reps.act(GeneratorWord(RF_ONE, ("l",)), M, unit_vec(M, 0)) == \
        [RF_ZERO] * M.dim

    M = reps.build_module("L1", "+", 2)
    for j in range(M.dim):
        assert reps.act(GeneratorWord(RF_ONE, ("l",)), M, unit_vec(M, j)) \
            == unit_vec(M, j)


def test_action_matrices_pinned():
    # sha256 of the matrix of every word of 1-3 letters, and of its normal
    # form, on every simple with n <= 4, recorded from the dense-matrix
    # modules this sparse form replaced
    h = hashlib.sha256()
    for M in checks.simple_modules(4):
        for length in (1, 2, 3):
            for letters in product(pbw.GENERATORS, repeat=length):
                for w in (GeneratorWord(RF_ONE, letters),
                          pbw.normalize_word(letters)):
                    for row in reps.action_matrix(w, M):
                        h.update((",".join(map(format_coeff, row))
                                  + "\n").encode())
    assert h.hexdigest() == \
        "58b59b32b4f9c0a18293fb977bc9680fec1dc5929db8f4f61f956679c21679c7"


def test_relations_hold_n_to_6():
    assert not checks.failures(checks.module_relations(6))


def test_ef_commutator_eigenvalues():
    for sign in reps.SIGNS:
        for n in range(1, 5):
            M = reps.build_module("L01", sign, n)
            s = RF_ONE if sign == "+" else -RF_ONE
            for j, (i, eps) in enumerate(M.basis):
                vec = unit_vec(M, j)
                ef = reps.act(GeneratorWord(RF_ONE, ("e", "f")), M, vec)
                fe = reps.act(GeneratorWord(RF_ONE, ("f", "e")), M, vec)
                got = [p - q for p, q in zip(ef, fe)]
                lam = s * quantum_integer(n - 2 * i)
                assert got == [lam * x for x in vec], (M.name, i, eps)


def test_act_is_multiplicative():
    rng = random.Random(5)
    monos = pbw.enumerate_monomials(2, 2, 1)
    M = reps.build_module("L01", "-", 3)
    for _ in range(8):
        x = pbw.PbwElement.monomial(rng.choice(monos))
        y = pbw.PbwElement.monomial(rng.choice(monos))
        xy = pbw.multiply(x, y)
        for j in range(M.dim):
            vec = unit_vec(M, j)
            via_y = reps.act(x, M, reps.act(y, M, vec))
            assert reps.act(xy, M, vec) == via_y


def test_simplicity_probe():
    # orbit of any single basis vector under {e, f, l f, (1-l) f} spans
    from mirabolic.linalg import rank_of_rows
    ops = [pbw.normalize_word(("e",)),
           pbw.normalize_word(("f",)),
           pbw.normalize_word(("l", "f")),
           pbw.normalize_word(("f",)) - pbw.normalize_word(("l", "f"))]
    for M in checks.simple_modules(4):
        for j in range(M.dim):
            seen = [unit_vec(M, j)]
            frontier = [unit_vec(M, j)]
            for _ in range(2 * M.dim):
                new = []
                for vec in frontier:
                    for op in ops:
                        out = reps.act(op, M, vec)
                        if any(out):
                            new.append(out)
                if not new:
                    break
                seen.extend(new)
                frontier = new
                rows = [{i: c for i, c in enumerate(vec) if c}
                        for vec in seen]
                if rank_of_rows(rows) == M.dim:
                    break
            rows = [{i: c for i, c in enumerate(vec) if c} for vec in seen]
            assert rank_of_rows(rows) == M.dim, (M.name, j)


def test_weight_tables():
    t = reps.weight_table(reps.build_module("L01", "+", 2))
    assert t == {("+", 2, 0): 1, ("+", 0, 0): 1,
                 ("+", 0, 1): 1, ("+", -2, 1): 1}
    t = reps.weight_table(reps.build_module("L0", "+", 0))
    assert t == {("+", 0, 0): 1}
    t = reps.weight_table(reps.build_module("L1", "-", 1))
    assert t == {("-", 1, 1): 1, ("-", -1, 1): 1}
    for M in checks.simple_modules(4):
        assert reps.weight_table(M) == \
            reps.irreducible_weight_table(M.kind, M.sign, M.n)


def test_casimir_scalars():
    vm = v_power(1) - v_power(-1)
    M = reps.build_module("L0", "+", 3)
    assert reps.casimir_scalar(M) == (v_power(3) + v_power(-5)) / vm
    M = reps.build_module("L01", "+", 1)
    assert reps.casimir_scalar(M) == (v_power(1) + v_power(-1)) / vm
    M = reps.build_module("L1", "-", 2)
    assert reps.casimir_scalar(M) == -(v_power(4) + v_power(-2)) / vm
    assert not checks.failures(checks.casimir_scalars(4))


def test_casimir_scalars_distinct():
    seen = {}
    for M in checks.simple_modules(8):
        c = reps.casimir_scalar_formula(M.kind, M.sign, M.n)
        assert c not in seen, (M.name, seen.get(c))
        seen[c] = M.name
    assert len(seen) == 2 * (9 + 9 + 8)


def test_restriction_multiset():
    # forgetting l, the mixing module splits as L(n) + L(n-2)
    for sign in reps.SIGNS:
        for n in range(2, 7):
            M = reps.build_module("L01", sign, n)
            mk = M.action["k"]
            eigs = sorted((mk[j][j] for j in range(M.dim)),
                          key=lambda c: str(c))
            want = []
            for m in (n, n - 2):
                s = RF_ONE if sign == "+" else -RF_ONE
                want.extend(s * v_power(m - 2 * i) for i in range(m + 1))
            want.sort(key=lambda c: str(c))
            assert eigs == want, (sign, n)


def test_decompose_weight_table():
    t1 = reps.irreducible_weight_table("L1", "+", 1)
    t2 = reps.irreducible_weight_table("L01", "+", 1)
    total = dict(t1)
    for key, m in t2.items():
        total[key] = total.get(key, 0) + m
    assert total == {("+", 1, 1): 1, ("+", -1, 1): 2, ("+", 1, 0): 1}
    got = reps.decompose_weight_table(total)
    assert got == {("L1", "+", 1): 1, ("L01", "+", 1): 1}

    assert reps.decompose_weight_table({("+", 0, 0): 1}) == \
        {("L0", "+", 0): 1}

    with pytest.raises(ValueError, match="not a module weight table"):
        reps.decompose_weight_table({("+", 1, 1): 1})


def test_decompose_random_multisets():
    rng = random.Random(23)
    cands = [(M.kind, M.sign, M.n) for M in checks.simple_modules(6)]
    for _ in range(12):
        picks = {}
        for _ in range(rng.randint(1, 6)):
            key = rng.choice(cands)
            picks[key] = picks.get(key, 0) + 1
        total = {}
        for (kind, sign, n), mult in picks.items():
            for w, m in reps.irreducible_weight_table(kind, sign, n).items():
                total[w] = total.get(w, 0) + m * mult
        assert reps.decompose_weight_table(total) == picks


def _solved_weight_table(table):
    """The decomposition by exact elimination over Q, one unknown per
    candidate module of each chain (sign, parity of a): the reference that
    the peel of decompose_weight_table replaced."""
    clean = {}
    for key, mult in table.items():
        sign, a, eps = key
        if sign not in reps.SIGNS or eps not in (0, 1) or a != int(a):
            raise ValueError(f"bad weight {key!r}")
        if mult < 0 or mult != int(mult):
            raise ValueError(f"bad multiplicity {mult!r} at {key!r}")
        if mult:
            clean[(sign, int(a), eps)] = int(mult)
    out = {}
    for sign, parity in sorted({(sign, a % 2) for sign, a, _ in clean}):
        rows = {(a, eps): m for (s, a, eps), m in clean.items()
                if s == sign and a % 2 == parity}
        top = max(abs(a) for a, _ in rows)
        columns = {(kind, n): {(a, eps): m for (_, a, eps), m in
                               reps.irreducible_weight_table(kind, sign,
                                                             n).items()}
                   for n in range(parity, top + 1, 2) for kind in reps.KINDS
                   if kind != "L01" or n}
        weights = [(a, eps) for a in range(-top, top + 1, 2) for eps in (0, 1)]
        try:
            sol = solve_unique(
                [{var: Fraction(col[w]) for var, col in columns.items()
                  if w in col} for w in weights],
                [Fraction(rows.get(w, 0)) for w in weights])
        except ValueError:
            raise ValueError("not a module weight table") from None
        for (kind, n), value in sol.items():
            value = Fraction(value)
            if value < 0 or value.denominator != 1:
                raise ValueError("not a module weight table")
            if value:
                out[(kind, sign, n)] = int(value)
    return out


def _outcome(decompose, table):
    try:
        return decompose(table)
    except ValueError as ex:
        return str(ex)


def test_peel_matches_elimination():
    # sums of simples with n <= 7, a third of them with one entry moved by
    # +-1 or one weight added, and random tables: the peel and exact
    # elimination agree on every table, or both refuse it with one message
    rng = random.Random(26)
    cands = [(M.kind, M.sign, M.n) for M in checks.simple_modules(7)]
    refused = 0
    for i in range(2400):
        table = {}
        if i % 4 == 3:
            for _ in range(rng.randint(1, 6)):
                key = (rng.choice(reps.SIGNS), rng.randint(-7, 7),
                       rng.randint(0, 1))
                table[key] = rng.randint(0, 3)
        else:
            for _ in range(rng.randint(1, 5)):
                mult = rng.randint(1, 3)
                for w, m in reps.irreducible_weight_table(
                        *rng.choice(cands)).items():
                    table[w] = table.get(w, 0) + m * mult
            if i % 3 == 0:
                key = rng.choice(sorted(table) + [(rng.choice(reps.SIGNS),
                                                   rng.randint(-8, 8),
                                                   rng.randint(0, 1))])
                table[key] = max(0, table.get(key, 0) + rng.choice((-1, 1)))
        got = _outcome(reps.decompose_weight_table, table)
        assert got == _outcome(_solved_weight_table, table), table
        refused += isinstance(got, str)
    assert 500 < refused < 1500


def _private_copy(M):
    return reps.IrreducibleModule(M.kind, M.sign, M.n, M.basis,
                                  {g: [dict(col) for col in cols]
                                   for g, cols in M.action.items()})


def _own_matrix(M, letters):
    """The matrix of letters folded on M's own columns, no memo."""
    return fold_word(None, None, lambda: Combination(
        M.dim, {(j, j): RF_ONE for j in range(M.dim)}), tuple(letters),
        partial(reps._letter, M), M.action)


def test_word_matrices_read_from_two_bases():
    # every simple with n <= 5 and every word of at most 3 letters: the
    # matrix read from the module's base is the one of its own columns
    words = [w for n in range(4) for w in product(pbw.GENERATORS, repeat=n)]
    bases = set()
    for M in checks.simple_modules(5):
        B = reps._base(M)[0]
        assert (B.sign, B.kind) == ("+", "L01" if M.kind == "L01" else "L1")
        bases.add(B)
        for w in words:
            assert reps.word_matrix(M, w) == _own_matrix(M, w), (M.name, w)
    assert len(bases) == 6 + 5


@pytest.mark.parametrize("g", ["e", "l"])
@pytest.mark.parametrize("kind", reps.KINDS)
def test_changed_private_module_is_its_own_base(kind, g):
    # a private copy of L-(2,.) with g m_1 = 2 m_1: its matrices come from
    # its own columns, not its base's, and a relation fails on it (l^2 = l
    # if l changed: l letters are folded on the l columns, never dropped)
    shared = reps.build_module(kind, "-", 2)
    M = _private_copy(shared)
    assert reps._base(M)[0] is not M      # an unchanged copy reads the base
    M = _private_copy(shared)
    M.action[g][1] = {1: rf_const(2)}
    assert reps._base(M)[0] is M
    for w in [(), ("e",), ("l",), ("l", "l"), ("f", "e"), ("e", "l", "k"),
              ("l", "e", "f")]:
        assert reps.word_matrix(M, w) == _own_matrix(M, w), w
    assert reps.word_matrix(M, (g,)) != reps.word_matrix(shared, (g,))
    failed = checks.failures(checks.relations(
        checks.linear_side(partial(reps.word_matrix, M))))
    assert failed and (g == "e" or "l^2 = l" in failed)
    assert not checks.failures(checks.relations(
        checks.linear_side(partial(reps.word_matrix, shared))))


@pytest.mark.parametrize("sign", reps.SIGNS)
def test_fault_in_the_base_l_column_shows_on_l1(monkeypatch, sign):
    # the same fault in V(2) as build_module hands it out, and so in L(2,1)
    # too: L(2,1) still reads from that base, and l^2 = l fails on it
    base = _private_copy(reps.build_module("L1", "+", 2))
    base.action["l"][0] = {0: rf_const(2)}
    M = _private_copy(reps.build_module("L1", sign, 2))
    M.action["l"][0] = {0: rf_const(2)}
    monkeypatch.setattr(reps, "build_module", lambda kind, sign, n: base)
    monkeypatch.setattr(reps, "_WORD_MATRICES", LruMemo(FOLD_MEMO_TERMS))
    assert reps._base(M)[0] is base
    assert "l^2 = l" in checks.failures(checks.relations(
        checks.linear_side(partial(reps.word_matrix, M))))


def test_build_module_is_shared_and_bounded():
    M = reps.build_module("L01", "-", 3)
    assert reps.build_module("L01", "-", 3) is M
    assert reps.build_module.cache_info().maxsize is not None


def test_matrix_columns_are_actions():
    rng = random.Random(11)
    for M in checks.simple_modules(4):
        for _ in range(3):
            letters = tuple(rng.choice(pbw.GENERATORS)
                            for _ in range(rng.randint(1, 5)))
            for w in (GeneratorWord(RF_ONE, letters),
                      GeneratorWord(quantum_integer(2), letters),
                      pbw.normalize_word(letters)):
                mat = reps.action_matrix(w, M)
                for j in range(M.dim):
                    assert [row[j] for row in mat] == \
                        reps.act(w, M, unit_vec(M, j)), (M.name, letters, j)


def _snapshot(M):
    return {g: [{i: format_coeff(c) for i, c in col.items()} for col in cols]
            for g, cols in M.action.items()}


def test_queries_leave_the_shared_module_alone():
    w = pbw.normalize_word(("e", "l", "f", "k^-1"))
    for M in checks.simple_modules(3):
        before = _snapshot(M)
        reps.act(w, M, unit_vec(M, 0))
        reps.action_matrix(w, M)
        reps.weight_table(M)
        reps.casimir_scalar(M)
        assert _snapshot(M) == before, M.name


def test_act_refuses_float_entries():
    M = reps.build_module("L0", "+", 1)
    with pytest.raises(TypeError):
        reps.act(GeneratorWord(RF_ONE, ("e",)), M, [0.1, 1])


SCALARS = (RF_ONE, -v_power(3), v_power(1) + v_power(-1), rf_const(2),
           RF_ONE / (v_power(2) - RF_ONE), RF_ZERO)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(SCALARS),
       st.lists(st.sampled_from(pbw.GENERATORS), max_size=8))
def test_lone_word_matrix_is_the_product_of_its_letters(scalar, letters):
    # a lone word's matrix, and its memoised word matrix, against the dense
    # product of the generator matrices, on one simple module of each kind
    for M in (reps.build_module("L0", "+", 3), reps.build_module("L1", "-", 2),
              reps.build_module("L01", "+", 3)):
        want = [[RF_ONE if i == j else RF_ZERO for j in range(M.dim)]
                for i in range(M.dim)]
        for g in reversed(letters):
            cols = M.action[g]
            want = [[sum((cols[p].get(i, RF_ZERO) * want[p][j]
                          for p in range(M.dim)), RF_ZERO)
                     for j in range(M.dim)] for i in range(M.dim)]
        terms = reps.word_matrix(M, letters).terms
        assert [[terms.get((i, j), RF_ZERO) for j in range(M.dim)]
                for i in range(M.dim)] == want, (M.kind, letters)
        want = [[scalar * c for c in row] for row in want]
        got = reps.action_matrix(GeneratorWord(scalar, tuple(letters)), M)
        assert got == want, (M.kind, letters)


def _summed(w, M):
    """w's matrix on M summed the old way: each word's matrix, negated on
    a sign -1, scaled unless its scalar is 1, then added."""
    words = ([(w.scalar, w.letters)] if isinstance(w, GeneratorWord)
             else [(c, mono.letters()) for mono, c in w.terms.items()])
    total = Combination(None)
    for c, letters in words:
        y = reps.word_matrix(M, letters)
        y = y if c == RF_ONE else y.scale(c)
        total = total + y if total else y
    return total


def _dense(M, x):
    return [[x.terms.get((i, j), RF_ZERO) for j in range(M.dim)]
            for i in range(M.dim)]


def test_one_pass_action_matches_the_summed_words():
    # normal forms of every word of at most 3 letters on every simple with
    # n <= 4, then the Casimir element, a zero scalar and the zero element
    elements = [pbw.normalize_word(w) for n in range(4)
                for w in product(pbw.GENERATORS, repeat=n)]
    elements += [pbw.casimir_element(), pbw.PbwElement(),
                 GeneratorWord(RF_ZERO, ("e", "l")),
                 GeneratorWord(-v_power(1), ("f", "e"))]
    for M in checks.simple_modules(4):
        vec = [rf_const(j + 1) for j in range(M.dim)]
        for w in elements:
            want = _dense(M, _summed(w, M))
            assert reps.action_matrix(w, M) == want, (M.name, w)
            assert reps.act(w, M, vec) == [
                sum((a * b for a, b in zip(row, vec)), RF_ZERO)
                for row in want], (M.name, w)


def test_lone_unit_word_is_the_shared_matrix():
    # a + module hands back the memoised matrix itself; a sign -1 gives a
    # fresh negated one and leaves the memo entry as it was
    word = GeneratorWord(RF_ONE, ("e", "l", "f"))
    M = reps.build_module("L01", "+", 3)
    got = reps._evaluate(word, partial(reps._signed_word, M))
    assert got is reps._signed_word(M, word.letters)[1]
    minus = reps.build_module("L01", "-", 3)
    s, W = reps._signed_word(minus, word.letters)
    before = dict(W.terms)
    got = reps._evaluate(word, partial(reps._signed_word, minus))
    assert s == -1 and got is not W and got == -W
    assert W.terms == before and reps._signed_word(M, word.letters)[1] is W
