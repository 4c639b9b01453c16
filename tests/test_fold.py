"""The memoised word fold behind `eval_letters`, `normalize_word` and the
word matrices of the simple modules."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import pbw, reps, schur_algebra
from mirabolic.linalg import FOLD_MEMO_TERMS, LruMemo
from mirabolic.qv import RF_ONE
from mirabolic.schur_algebra import GeneratorWord, eval_letters

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
    """The memo, keeping the id of every node handed to it and counting the
    entries small enough to be stored."""

    def __init__(self, limit):
        super().__init__(limit)
        self.ids = []
        self.kept = 0

    def put(self, key, value, size):
        self.ids.append(value[0])
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
    assert len(set(small.ids)) == len(small.ids)


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
