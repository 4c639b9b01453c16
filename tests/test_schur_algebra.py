"""Convolution algebra on decorated 2x2 labels: products and generators."""

import hashlib
import json
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import checks, schur_algebra
from mirabolic.decorated import decorated2, diag2, enumerate_xi, row_col_sums
from mirabolic.pbw import GENERATORS
from mirabolic.qv import (LP_ONE, RF_ONE, RF_ZERO, parse_coeff,
                          quantum_integer, rf_const, rf_laurent, v_power)
from mirabolic.schur_algebra import (GeneratorWord, SchurElement, apply_letter,
                                     apply_word, chevalley, e_key, f_key,
                                     eval_letters, evaluate_words,
                                     express_in_generators,
                                     identity_element, left_mul_special,
                                     mul_general, one_key, star, t22_diagonal,
                                     x22_key, x_key)


def basis(d, label):
    return SchurElement.basis(d, label)


def word(scalar, *letters):
    return GeneratorWord(scalar, tuple(letters))


def test_identity_element():
    one = identity_element(1)
    assert one.terms == {diag2(0, 1): RF_ONE, diag2(1, 0): RF_ONE}
    assert len(identity_element(2).terms) == 3


def test_special_products():
    # e_1 * 1_1 = e_1 at d=2
    got = left_mul_special(e_key(2, 1), basis(2, one_key(2, 1)))
    assert got == basis(2, e_key(2, 1))
    # x_r^2 = (v^2r - 2) x_r + (v^2r - 1) 1_r at r=1
    got = left_mul_special(x_key(2, 1), basis(2, x_key(2, 1)))
    want = basis(2, x_key(2, 1)).scale(v_power(2) - rf_const(2)) + \
        basis(2, one_key(2, 1)).scale(v_power(2) - rf_const(1))
    assert got == want
    # diagonal idempotent is a delta-projector
    got = left_mul_special(one_key(2, 1), basis(2, x_key(2, 1)))
    assert got == basis(2, x_key(2, 1))


def chevalley_closed_form(d, which):
    """The five generators as sums of special elements, written out: the
    reference for chevalley, which computes them as g * 1."""
    if which == "e":
        return {e_key(d, r): v_power(-r) for r in range(d)}
    if which == "f":
        return {f_key(d, r): v_power(1 + r - d) for r in range(d)}
    if which == "k":
        return {one_key(d, r): v_power(2 * r - d) for r in range(d + 1)}
    if which == "k^-1":
        return {one_key(d, r): v_power(d - 2 * r) for r in range(d + 1)}
    terms = {one_key(d, 0): RF_ONE}
    for r in range(1, d + 1):
        terms[one_key(d, r)] = v_power(-2 * r)
        terms[x_key(d, r)] = v_power(-2 * r)
    return terms


def test_chevalley_elements():
    k2 = chevalley(2, "k")
    assert k2.terms == {one_key(2, 0): v_power(-2),
                        one_key(2, 1): RF_ONE,
                        one_key(2, 2): v_power(2)}
    e2 = chevalley(2, "e")
    assert e2.terms == {e_key(2, 0): RF_ONE, e_key(2, 1): v_power(-1)}
    l1 = chevalley(1, "l")
    assert l1.terms == {one_key(1, 0): RF_ONE,
                        one_key(1, 1): v_power(-2),
                        x_key(1, 1): v_power(-2)}
    for d in range(6):
        for g in GENERATORS:
            assert chevalley(d, g).terms == chevalley_closed_form(d, g), (d, g)
    with pytest.raises(ValueError):
        chevalley(2, "h")


def digest(elements):
    h = hashlib.sha256()
    for x in elements:
        h.update((json.dumps(x.to_json(), sort_keys=True) + "\n").encode())
    return h.hexdigest()


def special_keys(d):
    return ([e_key(d, r) for r in range(d)] + [f_key(d, r) for r in range(d)]
            + [one_key(d, r) for r in range(d + 1)]
            + [x_key(d, r) for r in range(1, d + 1)]
            + [x22_key(d, r) for r in range(d)])


# sha256 of every generator and every special element applied to every
# basis element at d <= 4, recorded before letters and special elements
# acted through one column function each
def test_apply_letter_pinned():
    assert digest(apply_letter(g, basis(d, b)) for d in range(5)
                  for g in GENERATORS for b in enumerate_xi(2, d)) == \
        "289a2b2bfe0c3d51d12f6dae3a20fe875487b51e505889e854d7489432d20d3d"
    for x in (identity_element(2), SchurElement(2)):
        with pytest.raises(ValueError):
            apply_letter("h", x)


def test_left_mul_special_pinned():
    assert digest(left_mul_special(key, basis(d, b)) for d in range(5)
                  for key in special_keys(d) for b in enumerate_xi(2, d)) == \
        "9eaa89ceeefbcc789b526130eb6932e9b731d60cc10f2834ed256203d3464691"


def test_apply_word_basics():
    for d in (1, 2, 3):
        one = identity_element(d)
        assert apply_word(word(RF_ONE, "l", "l"), one) == \
            apply_word(word(RF_ONE, "l"), one)
        x = chevalley(d, "e") + chevalley(d, "l").scale(v_power(3))
        assert apply_word(word(RF_ONE, "k", "k^-1"), x) == x
    d = 2
    lhs = apply_word(word(RF_ONE, "e", "f"), identity_element(d)) - \
        apply_word(word(RF_ONE, "f", "e"), identity_element(d))
    den = v_power(1) - v_power(-1)
    rhs = (chevalley(d, "k") - chevalley(d, "k^-1")).scale(RF_ONE / den)
    assert lhs == rhs


def test_ten_relations_in_quotient():
    # d = 1..3 here; the d = 1..5 sweep runs in the acceptance suite
    for d in (1, 2, 3):
        one = identity_element(d)
        side = checks.linear_side(
            lambda letters: apply_word(word(RF_ONE, *letters), one))
        assert not checks.failures(checks.relations(side)), d


@pytest.mark.parametrize("d", [6, 7, 8])
def test_ten_relations_at_larger_d(d):
    evaluate = checks.linear_side(partial(eval_letters, d))

    def nonzero_side(terms):
        x = evaluate(terms)
        assert x, (d, terms)
        return x

    assert not checks.failures(checks.relations(nonzero_side)), d


def test_serre_consequence():
    # e^3 l - [3] e^2 l e + [3] e l e^2 - l e^3 = 0, same with f, d <= 4
    three = quantum_integer(3)
    for d in (1, 2, 3, 4):
        one = identity_element(d)
        for g in ("e", "f"):
            acc = apply_word(word(RF_ONE, g, g, g, "l"), one)
            acc = acc - apply_word(word(three, g, g, "l", g), one)
            acc = acc + apply_word(word(three, g, "l", g, g), one)
            acc = acc - apply_word(word(RF_ONE, "l", g, g, g), one)
            assert acc.is_zero(), (d, g)


def test_star():
    for d in (1, 2, 3, 4, 5):
        for lab in enumerate_xi(2, d):
            assert star(star(basis(d, lab))) == basis(d, lab)
    for d in (1, 2, 3):
        assert star(chevalley(d, "k")) == chevalley(d, "k")
        assert star(chevalley(d, "l")) == chevalley(d, "l")
        got = star(chevalley(d, "e"))
        want = apply_word(word(v_power(-1), "k^-1", "f"),
                          identity_element(d))
        assert got == want


def test_mul_general_unit_and_support():
    d = 2
    one = identity_element(d)
    for lab in enumerate_xi(2, d):
        x = basis(d, lab)
        assert mul_general(one, x) == x
        assert mul_general(x, one) == x
    a = decorated2(1, 1, 0, 0)
    b = decorated2(0, 0, 1, 1)
    # co(a) = (1,1) but ro(b) = (0,2): product vanishes
    assert row_col_sums(a)[1] != row_col_sums(b)[0]
    assert mul_general(basis(d, a), basis(d, b)).is_zero()


def test_mul_general_star_and_associativity():
    rng = random.Random(7)
    labels = enumerate_xi(2, 2)
    for _ in range(20):
        a, b = rng.choice(labels), rng.choice(labels)
        x, y = basis(2, a), basis(2, b)
        assert star(mul_general(x, y)) == mul_general(star(y), star(x))
    for d in (2, 3):
        labs = enumerate_xi(2, d)
        for _ in range(25 if d == 2 else 10):
            x = basis(d, rng.choice(labs))
            y = basis(d, rng.choice(labs))
            z = basis(d, rng.choice(labs))
            assert mul_general(mul_general(x, y), z) == \
                mul_general(x, mul_general(y, z))


def test_empty_decoration_subalgebra():
    rng = random.Random(11)
    for d in (2, 3):
        plain = [lab for lab in enumerate_xi(2, d) if not lab.delta]
        for _ in range(15):
            x = basis(d, rng.choice(plain))
            y = basis(d, rng.choice(plain))
            for lab in mul_general(x, y).terms:
                assert not lab.delta


def test_express_round_trip_small():
    for d in (1, 2):
        for lab in enumerate_xi(2, d):
            words = express_in_generators(lab)
            got = SchurElement(d)
            for w in words:
                got = got + apply_word(w, identity_element(d))
            assert got == basis(d, lab), lab


def test_word_products_vanish_across_idempotents():
    # a word key (letters, r) is letters * 1_r, and 1_a 1_b = 0 for a != b:
    # E_r E_r = 0 while E_(r+1) E_r = v^(2r+1) e e 1_r
    words = schur_algebra._Words(3)
    assert not words.cat(words.e(1), words.e(1))
    assert not words.cat(words.one(0), words.one(1))
    assert words.cat(words.e(2), words.e(1)).terms == {
        (("e", "e"), 1): v_power(3)}
    assert words.cat(words.f(0), words.e(0)).terms == {
        (("f", "e"), 0): v_power(2)}


def test_t22_examples():
    assert t22_diagonal(2, 0) == basis(2, x22_key(2, 0))
    assert t22_diagonal(2, 1) == basis(2, x22_key(2, 1))
    assert t22_diagonal(3, 1) == basis(3, x22_key(3, 1))


def test_nilpotency_in_quotient():
    for d in (1, 2, 3):
        x = identity_element(d)
        for _ in range(d + 1):
            x = apply_letter("e", x)
        assert x.is_zero()


def test_json_round_trip():
    x = chevalley(2, "e") + chevalley(2, "l").scale(parse_coeff("v^2-1"))
    assert SchurElement.from_json(x.to_json()) == x


def compatible_pairs(d):
    labels = enumerate_xi(2, d)
    sums = {lab: row_col_sums(lab) for lab in labels}
    return [(a, b) for a in labels for b in labels if sums[a][1] == sums[b][0]]


@pytest.mark.parametrize("d, n_triples",
                         [(2, 2667), (3, 21568), (4, 106637)])
def test_associativity_exhaustive(d, n_triples):
    pairs = compatible_pairs(d)
    prod = {(a, b): mul_general(basis(d, a), basis(d, b)) for a, b in pairs}
    right_of = {}
    for b, c in pairs:
        right_of.setdefault(b, []).append(c)
    checked = 0
    for a, b in pairs:
        for c in right_of[b]:
            assert mul_general(prod[a, b], basis(d, c)) == \
                mul_general(basis(d, a), prod[b, c]), (a, b, c)
            checked += 1
    assert checked == n_triples


def integral(c):
    """Whether c lies in Z[v, v^-1]."""
    return c.den == LP_ONE and all(type(n) is int for n in c.num.c.values())


@pytest.mark.parametrize("d, n_pairs", [(1, 32), (2, 267), (3, 1168),
                                        (4, 3629), (5, 9120)])
def test_star_anti_automorphism_exhaustive(d, n_pairs):
    # every structure constant of the BLM integral form lies in Z[v, v^-1]
    pairs = compatible_pairs(d)
    assert len(pairs) == n_pairs
    for a, b in pairs:
        x, y = basis(d, a), basis(d, b)
        xy = mul_general(x, y)
        assert all(integral(c) for c in xy.terms.values()), (a, b)
        assert star(xy) == mul_general(star(y), star(x)), (a, b)


def test_products_agree_with_word_expansion():
    # the operator reading of the recursion against the word reading
    d = 2
    for a, b in compatible_pairs(d):
        y = basis(d, b)
        got = SchurElement(d)
        for w in express_in_generators(a):
            got = got + apply_word(w, y)
        assert mul_general(basis(d, a), y) == got, (a, b)


@pytest.mark.parametrize("d, n_labels", [(4, 125), (5, 216)])
def test_generation_theorem_at_degree_4_and_5(d, n_labels):
    # each word is a k-free word times its idempotent 1_r, a polynomial of
    # degree at most d in k
    labels = enumerate_xi(2, d)
    assert len(labels) == n_labels
    for lab in labels:
        words = express_in_generators(lab)
        for w in words:
            body = w.letters[:len(w.letters) - w.letters.count("k")]
            assert "k" not in body and len(w.letters) - len(body) <= d, w
        assert evaluate_words(d, words) == basis(d, lab), lab


SCALARS = (RF_ONE, -v_power(3), v_power(1) + v_power(-1), rf_const(2),
           RF_ONE / (v_power(2) - RF_ONE), RF_ZERO)
LONE_WORDS = st.tuples(st.sampled_from((2, 3)), st.sampled_from(SCALARS),
                       st.lists(st.sampled_from(GENERATORS), max_size=6))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(LONE_WORDS)
def test_lone_word_is_its_memoised_value(case):
    # one word against the general path, forced by a zero second word; the
    # lone result may be the shared memo, so a later evaluation through its
    # suffix must leave it unchanged
    d, scalar, letters = case
    w = GeneratorWord(scalar, tuple(letters))
    got = evaluate_words(d, iter([w]))
    kept = dict(got.terms)
    assert got == evaluate_words(d, [w, GeneratorWord(RF_ZERO, ())])
    if scalar == RF_ONE:
        assert got is eval_letters(d, w.letters)
    evaluate_words(d, [GeneratorWord(-scalar, ("e", "l") + w.letters)])
    evaluate_words(d, [w, w])
    assert got.terms == kept


# a nonzero coefficient: a Laurent polynomial, possibly over a quantum integer
COEFFS = st.builds(
    lambda poly, m: rf_laurent(poly) / quantum_integer(m),
    st.dictionaries(st.integers(-3, 3), st.integers(-2, 2).filter(bool),
                    min_size=1, max_size=2),
    st.integers(1, 2))
PAIRS = st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.dictionaries(
    st.sampled_from(enumerate_xi(2, d)), COEFFS, min_size=1, max_size=3).map(
        partial(SchurElement, d))] * 2))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(PAIRS)
def test_star_is_an_involution_reversing_products(pair):
    x, y = pair
    assert star(star(x)) == x
    assert star(mul_general(x, y)) == mul_general(star(y), star(x))
