"""Normal-form engine for the abstract algebra on e, f, k, k^-1, l."""

import hashlib
import json
import random
import time
import tracemalloc
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import checks, pbw, schur_algebra
from mirabolic.linalg import FOLD_MEMO_TERMS, LruMemo, bump, rank_of_rows
from mirabolic.qv import (RF_ONE, format_coeff, quantum_integer, rf_const,
                          rf_laurent, v_power)
from mirabolic.schur_algebra import (SchurElement, apply_letter, chevalley,
                                     identity_element)


def nf(text):
    coeff, letters = pbw.parse_word(text)
    return pbw.normalize_word(letters).scale(coeff)


def test_monomial_constraints():
    with pytest.raises(ValueError):
        pbw.PbwMonomial(2, 0, 0, 1)  # class 2 needs (r,s) != (0,0)
    with pytest.raises(ValueError):
        pbw.PbwMonomial(3, 0, 1, 0)  # interior classes need r,s >= 1
    m = pbw.PbwMonomial(5, 1, 2, -1)
    assert m.letters() == ("e", "e", "l", "f", "k^-1")


def test_left_mul_examples():
    # l * (e l f) lands in the l f^r e^s k^t family
    x = pbw.PbwElement.monomial(pbw.PbwMonomial(5, 1, 1, 0))
    got = pbw.left_mul_generator("l", x)
    c = RF_ONE / (v_power(1) - v_power(-1))
    want = nf("l f e") + nf("l k").scale(c) - nf("l k^-1").scale(c)
    assert got == want

    # e * (l e) through the move-out identity at a = b = 1
    got = pbw.left_mul_generator("e", nf("l e"))
    two = quantum_integer(2)
    want = nf("e e l").scale(v_power(-1) / two) + \
        nf("l e e").scale(v_power(1) / two)
    assert got == want

    # k e = v^2 e k
    got = pbw.left_mul_generator("k", nf("e k"))
    assert got == nf("e k k").scale(v_power(2))


def test_short_word_projections_pinned():
    # sha256 of the image in MU_v(2,3) of the normal form of every word of
    # at most 4 letters (781 words), recorded before the projection summed
    # its terms through linear_sum
    words = [w for n in range(5) for w in product(pbw.GENERATORS, repeat=n)]
    images = [pbw.project_to_schur(3, pbw.normalize_word(w)).to_json()
              for w in words]
    assert len(images) == 781
    assert hashlib.sha256(json.dumps(images).encode()).hexdigest() == (
        "89a49ee1b8eafd2d7481e3da6001538bce514919f6c8734b8a96ae37e9499e04")


def test_left_mul_generator_pinned():
    # sha256 of every generator times every monomial with r, s <= 4 and
    # |t| <= 1, recorded before left multiplication read its coefficients
    # from ef_straighten and the move-out identities
    h = hashlib.sha256()
    lines = 0
    for m in pbw.enumerate_monomials(4, 4, 1):
        for g in pbw.GENERATORS:
            x = pbw.left_mul_generator(g, pbw.PbwElement.monomial(m))
            for k, c in x.sorted_terms():
                h.update(f"{g}|{m}|{k}|{format_coeff(c)}\n".encode())
                lines += 1
    assert lines == 3666
    assert h.hexdigest() == ("939ee3579c0baaf452dcd57fbfa59a655d33dc4103babf"
                             "d428c3e289cfc9700e")


def test_move_out():
    two = quantum_integer(2)
    want = nf("e e l").scale(v_power(-1) / two) + \
        nf("l e e").scale(v_power(1) / two)
    assert pbw.move_out("e", 1, 1) == want
    assert pbw.move_out("e", 0, 1) == nf("l e")
    want = nf("f f l").scale(v_power(1) / two) + \
        nf("l f f").scale(v_power(-1) / two)
    assert pbw.move_out("f", 1, 1) == want
    # the engine reproduces the identity for all small exponents
    assert not checks.failures(checks.move_out(3))


def test_multiply_examples():
    den = v_power(1) - v_power(-1)
    want = nf("f e") + (nf("k") - nf("k^-1")).scale(RF_ONE / den)
    assert pbw.multiply(nf("e"), nf("f")) == want
    assert pbw.multiply(pbw.multiply(nf("l"), nf("e")), nf("l")) == nf("l e")
    assert pbw.multiply(pbw.multiply(nf("l"), nf("f")), nf("l")) == nf("f l")


def test_relations_normalize_to_zero():
    side = checks.linear_side(pbw.normalize_word)
    assert not checks.failures(checks.relations(side))


def test_relations_on_random_monomials():
    rng = random.Random(13)
    monos = pbw.enumerate_monomials(3, 3, 1)
    sample = rng.sample(monos, 20)
    for mono in sample:
        m = pbw.PbwElement.monomial(mono)
        left = checks.linear_side(
            lambda letters: pbw.multiply(pbw.normalize_word(letters), m))
        right = checks.linear_side(
            lambda letters: pbw.multiply(m, pbw.normalize_word(letters)))
        assert not checks.failures(checks.relations(left)), mono
        assert not checks.failures(checks.relations(right)), mono


def test_quotient_homomorphism_sweep():
    # every generator, every monomial with r,s <= 4, |t| <= 2, at d = 5
    monos = pbw.enumerate_monomials(4, 4, 2)
    assert not checks.failures(checks.quotient_homomorphism(5, monos))


def test_projection_examples():
    assert pbw.project_to_schur(1, nf("l")) == chevalley(1, "l")
    for d in (1, 2, 3):
        assert pbw.project_to_schur(d, nf("e" + " e" * d)).is_zero()
        assert pbw.project_to_schur(d, nf("f" + " f" * d)).is_zero()
    den = v_power(1) - v_power(-1)
    rel4 = pbw.multiply(nf("e"), nf("f")) - pbw.multiply(nf("f"), nf("e")) \
        - (nf("k") - nf("k^-1")).scale(RF_ONE / den)
    assert rel4.is_zero()
    for d in (1, 2, 3, 4, 5):
        assert pbw.project_to_schur(d, rel4).is_zero()


def test_specialize_ell():
    x = nf("l f e")
    assert pbw.specialize_ell(0, x).is_zero()
    assert pbw.specialize_ell(1, x) == nf("f e")
    den = (v_power(1) - v_power(-1)) * (v_power(1) - v_power(-1))
    cv = nf("f e") + (nf("k").scale(v_power(1))
                      + nf("k^-1").scale(v_power(-1))).scale(RF_ONE / den)
    c = pbw.casimir_element()
    assert pbw.specialize_ell(1, c) == cv.scale(v_power(2) - rf_const(1))
    assert pbw.specialize_ell(0, c) == cv.scale(rf_const(1) - v_power(-2))


def test_casimir_is_central():
    c = pbw.casimir_element()
    for g in pbw.GENERATORS:
        left = pbw.left_mul_generator(g, c)
        right = pbw.multiply(c, pbw.generator(g))
        assert left == right, g
    for d in (1, 2, 3, 4):
        pc = pbw.project_to_schur(d, c)
        for g in pbw.GENERATORS:
            got = pbw.project_to_schur(d, pbw.left_mul_generator(g, c))
            assert got == apply_letter(g, pc), (d, g)


def test_antiautomorphism():
    assert pbw.antiautomorphism(nf("e")) == nf("f")
    for a in range(3):
        for b in range(3):
            if a + b == 0:
                continue
            # word reversal swaps the exponents: e^a l e^b -> f^b l f^a
            assert pbw.antiautomorphism(pbw.move_out("e", a, b)) == \
                pbw.move_out("f", b, a)
    rng = random.Random(3)
    monos = rng.sample(pbw.enumerate_monomials(3, 3, 2), 20)
    for mono in monos:
        x = pbw.PbwElement.monomial(mono)
        assert pbw.antiautomorphism(pbw.antiautomorphism(x)) == x
    # anti-multiplicative on a few pairs
    for _ in range(5):
        x = pbw.PbwElement.monomial(rng.choice(monos))
        y = pbw.PbwElement.monomial(rng.choice(monos))
        assert pbw.antiautomorphism(pbw.multiply(x, y)) == \
            pbw.multiply(pbw.antiautomorphism(y), pbw.antiautomorphism(x))


@cache
def _straighten_one_letter(a, b, sign):
    """e^a f^b (sign 1) or f^a e^b (sign -1) in normal form, one letter
    crossing the other block at a time:
    e f^b = f^b e + [b] f^(b-1) (v^(1-b) k - v^(b-1) k^-1)/(v - v^-1),
    f e^b = e^b f - [b] e^(b-1) (v^(b-1) k - v^(1-b) k^-1)/(v - v^-1)."""
    if a == 0:
        return {(b, 0, 0): RF_ONE}
    out = {}
    for (r, s, t), c in _straighten_one_letter(a - 1, b, sign).items():
        bump(out, (r, s + 1, t), c * v_power(2 * sign * t))
    if b:
        cb = quantum_integer(b) / (v_power(1) - v_power(-1))
        for (r, s, t), c in _straighten_one_letter(a - 1, b - 1,
                                                   sign).items():
            bump(out, (r, s, t + 1), sign * c * cb * v_power(sign * (1 - b)))
            bump(out, (r, s, t - 1), -sign * c * cb * v_power(sign * (b - 1)))
    return out


def test_straighten_matches_one_letter_recursion():
    for a in range(8):
        for b in range(8):
            assert pbw.ef_straighten(a, b) == \
                _straighten_one_letter(a, b, 1), (a, b)
            assert pbw.fe_straighten(a, b) == \
                _straighten_one_letter(a, b, -1), (a, b)


def test_long_blocks_straighten_without_recursion():
    # l e^s l f = l e^s f needs e^s f straightened: 1,200 letters used to
    # exceed the interpreter's stack.  e^s f = f e^s + [s] e^(s-1)
    # (v^(s-1) k - v^(1-s) k^-1)/(v - v^-1)
    s = 1200
    got = nf(f"l e^{s} l f").terms
    assert set(got) == {pbw.PbwMonomial(1, 1, s, 0),
                        pbw.PbwMonomial(1, 0, s - 1, 1),
                        pbw.PbwMonomial(1, 0, s - 1, -1)}
    assert got[pbw.PbwMonomial(1, 1, s, 0)] == RF_ONE
    assert got[pbw.PbwMonomial(1, 0, s - 1, 1)] == \
        -got[pbw.PbwMonomial(1, 0, s - 1, -1)] * v_power(2 * s - 2)


def test_long_e_block_fold_matches_closed_form(monkeypatch):
    # e^600 f folded one letter at a time against the closed commutation
    # formula.  The fold's Q(v) sums reduce polynomials of degree about
    # 1,200 by monic divisors: 1.1 s of CPU, against 5.3 s while each
    # pseudo-remainder step still multiplied by the leading coefficient 1
    # fresh memos, so that a fold is timed and no earlier value is read back
    monkeypatch.setattr(pbw, "_MUL_CACHE", LruMemo(FOLD_MEMO_TERMS))
    monkeypatch.setattr(pbw, "_NORMAL_FORMS", LruMemo(FOLD_MEMO_TERMS))
    t0 = time.process_time()
    got = pbw.normalize_word(("e",) * 600 + ("f",))
    elapsed = time.process_time() - t0
    want = {pbw.PbwMonomial(0, r, s, t): c
            for (r, s, t), c in pbw.ef_straighten(600, 1).items()}
    assert got.terms == want
    assert elapsed < 2.5


def test_independence_without_k_powers():
    # the k-free families stay independent as soon as d exceeds r+s
    for d in (5, 6):
        rows = []
        for mono in pbw.enumerate_monomials(2, 2, 0):
            if mono.t:
                continue
            img = pbw.project_to_schur(d, pbw.PbwElement.monomial(mono))
            rows.append(dict(img.terms))
        assert rank_of_rows(rows) == len(rows) == 38


def test_independence_with_k_powers_needs_larger_d():
    # with k-exponents |t| <= 2 attached, five distinct eigenvalue columns
    # per family are required, which d = 7 provides for r,s <= 2
    # at d = 6 they are not: (1-l) f^2 P(k), with
    # u^2 P(u) = -(u-1)(u-v^2)(u-v^4)(u-v^6), is nonzero but projects to 0
    one = pbw.unit()
    p_of_k = -nf("k^-2")
    for j in range(4):
        p_of_k = pbw.multiply(p_of_k, nf("k") - one.scale(v_power(2 * j)))
    kernel = pbw.multiply(one - nf("l"), pbw.multiply(nf("f^2"), p_of_k))
    assert isinstance(kernel, pbw.PbwElement) and not kernel.is_zero()
    assert pbw.project_to_schur(6, kernel).is_zero()

    d = 7
    rows = []
    for mono in pbw.enumerate_monomials(2, 2, 2):
        img = pbw.project_to_schur(d, pbw.PbwElement.monomial(mono))
        rows.append(dict(img.terms))
    assert len(rows) == 190
    assert rank_of_rows(rows) == 190


def test_word_grammar():
    coeff, letters = pbw.parse_word("(v^-1) e^2 l f k^-2")
    assert coeff == v_power(-1)
    assert letters == ("e", "e", "l", "f", "k^-1", "k^-1")
    assert pbw.format_word(letters) == "e^2 l f k^-2"
    assert pbw.format_word(()) == "1"
    with pytest.raises(ValueError):
        pbw.parse_word("e^-1")
    with pytest.raises(ValueError):
        pbw.parse_word("z")
    for text in ("e^", "k^", "l e^ f"):
        with pytest.raises(ValueError):
            pbw.parse_word(text)


def test_element_json_round_trip():
    x = nf("e f k") + nf("l e").scale(quantum_integer(2))
    assert pbw.PbwElement.from_json(x.to_json()) == x


def test_element_json_rejects_non_normal_words():
    # "e f e" is a valid word but not a basis monomial: it normalises into
    # three terms, so reading it as one term would change the element
    obj = {"terms": [{"monomial": "e f e", "coeff": "1"}]}
    assert len(nf("e f e").terms) == 3
    with pytest.raises(ValueError, match="not a PBW basis monomial"):
        pbw.PbwElement.from_json(obj)
    x = nf("e f e").scale(quantum_integer(3)) + nf("l f^2 k^-1")
    assert pbw.PbwElement.from_json(x.to_json()) == x


@pytest.mark.parametrize("n", [1200, 5000])
def test_project_long_k_power(monkeypatch, n):
    # a word of n letters is evaluated without recursion; every suffix is
    # memoised, the empty word included (fresh memos, freed afterwards, so
    # that no earlier projection is read back in place of the fold)
    monkeypatch.setattr(schur_algebra, "_EVAL_CACHE",
                        LruMemo(FOLD_MEMO_TERMS))
    monkeypatch.setattr(pbw, "_PROJECTIONS", LruMemo(FOLD_MEMO_TERMS))
    got = pbw.project_to_schur(
        2, pbw.PbwElement.monomial(pbw.PbwMonomial(0, 0, 0, n)))
    # k acts on 1_(r, d-r) by v^(2r - d)
    want = SchurElement(2, {
        lab: c * v_power(n * (2 * sum(lab.a[0]) - 2))
        for lab, c in identity_element(2).terms.items()})
    assert got == want
    assert len(schur_algebra._EVAL_CACHE) == n + 1


def test_project_long_k_power_memory_is_linear(monkeypatch):
    # the suffix memo holds one small key per letter, not every suffix
    monkeypatch.setattr(schur_algebra, "_EVAL_CACHE",
                        LruMemo(FOLD_MEMO_TERMS))
    monkeypatch.setattr(pbw, "_PROJECTIONS", LruMemo(FOLD_MEMO_TERMS))
    x = pbw.PbwElement.monomial(pbw.PbwMonomial(0, 0, 0, 5000))
    tracemalloc.start()
    try:
        pbw.project_to_schur(2, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, peak


# a nonzero coefficient: a Laurent polynomial, possibly over a quantum integer
COEFFS = st.builds(
    lambda poly, m: rf_laurent(poly) / quantum_integer(m),
    st.dictionaries(st.integers(-3, 3), st.integers(-2, 2).filter(bool),
                    min_size=1, max_size=2),
    st.integers(1, 2))
ELEMENTS = st.dictionaries(st.sampled_from(pbw.enumerate_monomials(2, 2, 1)),
                           COEFFS, min_size=1, max_size=3).map(pbw.PbwElement)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(ELEMENTS, ELEMENTS)
def test_antiautomorphism_is_an_involution_reversing_products(x, y):
    anti = pbw.antiautomorphism
    assert anti(anti(x)) == x
    assert anti(pbw.multiply(x, y)) == pbw.multiply(anti(y), anti(x))
