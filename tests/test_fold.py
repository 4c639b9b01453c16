"""The memoised word fold behind `eval_letters`, `normalize_word` and the
word matrices of the simple modules, the bounded PBW memos around it
(products by a generator, straightening forms and projections to
MU_v(2,d)), the memo of basis products and word combos of
`schur_algebra`, and the block memo of the tensor space."""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import checks, pbw, reps, schur_algebra, tensor_space
from mirabolic.decorated import enumerate_xi
from mirabolic.linalg import FOLD_MEMO_TERMS, LruMemo
from mirabolic.qv import RF_ONE, quantum_integer, v_power
from mirabolic.schur_algebra import (GeneratorWord, SchurElement,
                                     eval_letters, evaluate_words,
                                     express_in_generators, mul_general)
from mirabolic.tensor_space import TensorElement, ell_action, k_action

L01 = reps.build_module("L01", "+", 3)

# (module, memo attribute, evaluator of a letter tuple)
EVALUATORS = (
    (schur_algebra, "_EVAL_CACHE", lambda w: eval_letters(2, w)),
    (pbw, "_NORMAL_FORMS", pbw.normalize_word),
    (reps, "_WORD_MATRICES", lambda w: reps.word_matrix(L01, w)),
)
WORDS_4 = [w for n in range(5) for w in product(pbw.GENERATORS, repeat=n)]
WORDS_8 = st.lists(st.sampled_from(pbw.GENERATORS), max_size=8).map(tuple)


class _RecordingMemo(LruMemo):
    """The memo, keeping every value handed to it and counting the entries
    small enough to be stored."""

    def __init__(self, limit):
        super().__init__(limit)
        self.values = []
        self.kept = 0

    def put(self, key, value, size):
        self.values.append(value)
        self.kept += size <= self.limit
        return super().put(key, value, size)


@pytest.mark.parametrize("module, attr, evaluate", EVALUATORS,
                         ids=[attr for _, attr, _ in EVALUATORS])
def test_eviction_keeps_every_word(monkeypatch, module, attr, evaluate):
    # every word of at most 4 letters, with room to spare and then in a
    # memo of a few terms that drops entries all the time: the same
    # elements, and no node id handed out twice, so that a key left by an
    # evicted suffix never names a later one
    monkeypatch.setattr(module, attr, LruMemo(FOLD_MEMO_TERMS))
    want = [evaluate(w) for w in WORDS_4]
    small = _RecordingMemo(40)
    monkeypatch.setattr(module, attr, small)
    assert [evaluate(w) for w in WORDS_4] == want
    assert small.kept > len(small) + 100 and small.size <= small.limit
    ids = [node_id for node_id, _ in small.values]
    assert len(set(ids)) == len(ids)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(WORDS_8)
def test_normal_form_is_the_plain_fold(letters):
    assert pbw.normalize_word(letters) == pbw._fold(letters, pbw.unit())


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(WORDS_8, WORDS_8)
def test_normal_forms_are_read_only(letters, prefix):
    # a returned normal form may be the shared memo, so later calls through
    # its suffixes and through longer words ending in it leave it unchanged
    got = pbw.normalize_word(letters)
    kept = dict(got.terms)
    for i in range(len(letters) + 1):
        pbw.normalize_word(letters[i:])
    pbw.normalize_word(prefix + letters)
    pbw.multiply(got, got)
    assert got.terms == kept


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(WORDS_8, st.integers(0, 8), st.sampled_from(("z", "k^-2", "E", "")))
def test_unknown_letter_changes_no_memo(letters, at, bad):
    word = letters[:at] + (bad,) + letters[at:]
    memos = (schur_algebra._EVAL_CACHE, pbw._NORMAL_FORMS,
             reps._WORD_MATRICES)
    sizes = [(len(m), m.size) for m in memos]
    for evaluate in (lambda w: eval_letters(2, w), pbw.normalize_word,
                     lambda w: reps.word_matrix(L01, w),
                     lambda w: reps.action_matrix(GeneratorWord(RF_ONE, w),
                                                  L01),
                     lambda w: reps.act(GeneratorWord(RF_ONE, w), L01,
                                        [1] * L01.dim)):
        with pytest.raises(ValueError, match="unknown generator"):
            evaluate(word)
    assert [(len(m), m.size) for m in memos] == sizes


def _fresh_pbw_memos(monkeypatch):
    for attr in ("_PROJECTIONS", "_MUL_CACHE", "_EF_CACHE", "_FE_CACHE",
                 "_NORMAL_FORMS"):
        monkeypatch.setattr(pbw, attr, LruMemo(FOLD_MEMO_TERMS))


@pytest.mark.parametrize("attr", ("_PROJECTIONS", "_MUL_CACHE"))
def test_eviction_keeps_every_projection(monkeypatch, attr):
    # the normal forms of every word of at most 4 letters, projected at
    # d = 2 and 3, first with room to spare and then with the memo under
    # test holding a few terms and dropping entries all the time; the
    # normal forms are folded afresh both times, so products and
    # straightening forms are asked for again
    def images():
        return [pbw.project_to_schur(d, pbw.normalize_word(w))
                for d in (2, 3) for w in WORDS_4]

    _fresh_pbw_memos(monkeypatch)
    want = images()
    _fresh_pbw_memos(monkeypatch)
    small = _RecordingMemo(40)
    monkeypatch.setattr(pbw, attr, small)
    assert images() == want
    assert small.kept > len(small) + 100 and small.size <= small.limit


def _direct(d, x):
    """The image of x in MU_v(2,d) with no projection memo."""
    return evaluate_words(d, [GeneratorWord(c, mono.letters())
                              for mono, c in x.sorted_terms()])


SCALARS = st.sampled_from((RF_ONE, -RF_ONE, v_power(3), quantum_integer(2),
                           RF_ONE / quantum_integer(3)))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 4), WORDS_8, WORDS_8, SCALARS, SCALARS)
def test_projection_is_the_direct_image(d, u, w, a, b):
    # random normal forms, their scalings and their sums (zero included)
    x, y = pbw.normalize_word(u), pbw.normalize_word(w)
    for z in (x, y.scale(b), x.scale(a) + y.scale(b), x - x):
        want = _direct(d, z)
        # computed, and then read back from the memo
        assert pbw.project_to_schur(d, z) == want
        assert pbw.project_to_schur(d, z) == want


def test_equal_elements_share_one_image(monkeypatch):
    # the memo is keyed on terms, not on the object: two elements with
    # equal terms read one image, and an element its caller changes after
    # projecting it reads the image of what it now holds
    monkeypatch.setattr(pbw, "_PROJECTIONS", LruMemo(FOLD_MEMO_TERMS))
    x = pbw.normalize_word(("e", "l", "f", "k"))
    y = pbw.multiply(pbw.normalize_word(("e", "l")),
                     pbw.normalize_word(("f", "k")))
    assert y is not x and y == x
    for d in (1, 2, 3):
        got = pbw.project_to_schur(d, x)
        assert pbw.project_to_schur(d, y) is got
        assert pbw.project_to_schur(d, pbw.PbwElement(dict(x.terms))) is got
    z = pbw.PbwElement(dict(x.terms))
    before = pbw.project_to_schur(3, z)
    z.terms[pbw.PbwMonomial(0, 1, 0, 0)] = v_power(2)
    after = pbw.project_to_schur(3, z)
    assert after == _direct(3, z) != before


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(WORDS_8, st.lists(WORDS_8, max_size=4), st.booleans())
def test_projections_are_read_only(letters, others, tiny):
    # a returned image may be the shared memo value, or the shared
    # `eval_letters` value of a lone word, so later projections of its
    # suffixes, of other words, of sums and scalings leave it unchanged,
    # also while a tiny memo evicts it
    memo = LruMemo(40 if tiny else FOLD_MEMO_TERMS)
    saved, pbw._PROJECTIONS = pbw._PROJECTIONS, memo
    try:
        x = pbw.normalize_word(letters)
        got = pbw.project_to_schur(3, x)
        kept = dict(got.terms)
        for w in others + [letters[i:]
                           for i in range(len(letters) + 1)]:
            y = pbw.normalize_word(w)
            for z in (y, y + x, x.scale(v_power(1)), y.scale(-RF_ONE)):
                pbw.project_to_schur(3, z)
        assert got.terms == kept
        assert pbw.project_to_schur(3, x) == got
    finally:
        pbw._PROJECTIONS = saved


def _products(pairs):
    """The JSON bytes of every basis product, and of the generator words
    of every label at d <= 2."""
    out = [json.dumps(mul_general(SchurElement.basis(a.d, a),
                                  SchurElement.basis(b.d, b)).to_json())
           for a, b in pairs]
    return out + [str(express_in_generators(label))
                  for d in (1, 2) for label in enumerate_xi(2, d)]


def test_product_memo_eviction_keeps_every_product(monkeypatch):
    # every compatible pair at d <= 2 and a seeded sample at d = 3, with
    # room for every product and word combo and then in a memo of a few
    # terms that drops entries all the time: the same bytes
    pairs = [pair for d in (1, 2) for pair in checks.compatible_pairs(d)]
    pairs += random.Random(11).sample(checks.compatible_pairs(3), 60)
    monkeypatch.setattr(schur_algebra, "_COMBO_CACHE",
                        LruMemo(FOLD_MEMO_TERMS << 2))
    want = _products(pairs)
    small = _RecordingMemo(40)
    monkeypatch.setattr(schur_algebra, "_COMBO_CACHE", small)
    assert _products(pairs) == want
    assert small.kept > len(small) + 100 and small.size <= small.limit


def _tensor_answers(d):
    """Everything the tensor space reads from its block memo at d."""
    labels = enumerate_xi(2, d, tensor=True)
    xs = [TensorElement.basis(d, label) for label in labels]
    return (tensor_space.weight_multiplicities(d),
            tensor_space.check_left_module(d),
            [tensor_space.block_basis(seq)
             for seq in product((1, 2), repeat=d)],
            [ell_action(x) for x in xs], ell_action(sum(xs[1:], xs[0])),
            checks.tensor(d))


def test_block_memo_eviction_keeps_every_answer(monkeypatch):
    # weights, reports, bases, l-actions and checks for every d <= 6, with
    # room for every block and then with a memo of 8 labels that stores
    # only the small blocks and drops them all the time
    monkeypatch.setattr(tensor_space, "_BLOCKS", LruMemo(FOLD_MEMO_TERMS))
    want = [_tensor_answers(d) for d in range(1, 7)]
    small = _RecordingMemo(8)
    monkeypatch.setattr(tensor_space, "_BLOCKS", small)
    assert [_tensor_answers(d) for d in range(1, 7)] == want
    assert small.kept > len(small) + 100 and small.size <= small.limit


def _snapshot(table):
    return {label: (coeff, dict(vec)) for label, (coeff, vec) in table.items()}


def test_block_records_are_read_only(monkeypatch):
    # a block's record is shared: asked for again it is the same object,
    # and what callers do with l- and k-images leaves its table unchanged
    monkeypatch.setattr(tensor_space, "_BLOCKS", LruMemo(FOLD_MEMO_TERMS))
    d = 4
    seqs = list(product((1, 2), repeat=d))
    records = [tensor_space._ell_block(seq) for seq in seqs]
    kept = [_snapshot(table) for table, _ in records]
    xs = [TensorElement.basis(d, label)
          for label in enumerate_xi(2, d, tensor=True)]
    for x in xs:
        for y in (ell_action(x), k_action(ell_action(x)),
                  ell_action(k_action(x))):
            z = (y + y).scale(v_power(3)) - ell_action(y)
            for got in (y, z):
                for label in list(got.terms):
                    got.terms[label] = got.terms[label] * v_power(1)
                got.terms.clear()
    tensor_space.block_basis(seqs[0]).clear()
    assert [tensor_space._ell_block(seq) for seq in seqs] == records
    assert all(tensor_space._ell_block(seq) is record
               for seq, record in zip(seqs, records))
    assert [_snapshot(table) for table, _ in records] == kept
