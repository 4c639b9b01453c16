"""Decorated matrices, marked sequences, their enumeration, and the
package's immutable value types."""

import pytest

from mirabolic.decorated import (DecoratedMatrix, MarkedSequence,
                                 count_xi_tensor, decorated2, enumerate_xi,
                                 matrix_to_sequence, row_col_sums,
                                 sequence_stats, sequence_to_matrix,
                                 transpose_decorated, validate)
from mirabolic.oracle import FlagTriple, PrimeFieldSubspace
from mirabolic.pbw import PbwMonomial, _mono
from mirabolic.qv import RF_ONE, rf_const
from mirabolic.schur_algebra import GeneratorWord
from mirabolic.tensor_space import BipartitionLabel


def test_validation_rules():
    ok, _ = validate(decorated2(1, 0, 0, 1, frozenset({(1, 1)})))
    assert ok
    # a mark must sit on a positive entry
    ok, why = validate(decorated2(0, 1, 1, 0, frozenset({(1, 1)})))
    assert not ok and "zero entry" in why
    # two marks in one row are forbidden
    bad = DecoratedMatrix(((1, 1), (0, 1)), frozenset({(1, 1), (1, 2)}))
    ok, why = validate(bad)
    assert not ok
    # columns must strictly decrease going down
    bad = DecoratedMatrix(((1, 0), (0, 1)), frozenset({(1, 1), (2, 2)}))
    ok, _ = validate(bad)
    assert not ok
    good = DecoratedMatrix(((0, 1), (1, 0)), frozenset({(1, 2), (2, 1)}))
    ok, _ = validate(good)
    assert ok


def test_enumerate_xi_small():
    assert len(enumerate_xi(2, 1)) == 8
    assert len(enumerate_xi(2, 2)) == 27
    labels = enumerate_xi(2, 2)
    assert len(set(labels)) == len(labels)
    for lab in labels:
        assert lab.d == 2
        assert validate(lab)[0]


def test_tensor_count_formula():
    # sum_k C(d,k) C(n,k) n^{d-k} counts marked sequences
    assert count_xi_tensor(2, 1) == 4
    assert count_xi_tensor(2, 2) == 13
    assert count_xi_tensor(2, 3) == 38
    assert count_xi_tensor(3, 5) == 2358
    for n in (2, 3):
        for d in (1, 2, 3):
            assert len(enumerate_xi(n, d, tensor=True)) == \
                count_xi_tensor(n, d)


def test_sequence_matrix_bijection():
    for ms in enumerate_xi(2, 3, tensor=True):
        mat = sequence_to_matrix(ms)
        assert validate(mat)[0]
        assert matrix_to_sequence(mat) == ms
    # worked instance: letters pick the row with the single 1 per column
    ms = MarkedSequence((2, 3, 3, 1, 2), frozenset({2, 4}))
    mat = sequence_to_matrix(ms)
    assert mat.n_rows == 3 and mat.n_cols == 5
    assert [mat.a[ms.seq[j] - 1][j] for j in range(5)] == [1] * 5
    assert matrix_to_sequence(mat) == ms


def test_sequence_stats():
    ms = MarkedSequence((2, 1, 2, 1), frozenset({1}))
    st = sequence_stats(ms)
    assert st.ones == 2 and st.twos == 2
    assert st.inversions == 3


def test_row_col_sums_and_transpose():
    lab = decorated2(1, 2, 0, 1, frozenset({(1, 1)}))
    assert row_col_sums(lab) == ((3, 1), (1, 3))
    t = transpose_decorated(lab)
    assert t.a == ((1, 0), (2, 1))
    assert t.delta == frozenset({(1, 1)})
    assert validate(t)[0]


def test_json_round_trip():
    lab = decorated2(1, 0, 2, 1, frozenset({(1, 1), (2, 2)}))
    ok, _ = validate(lab)
    assert not ok  # columns must decrease: (1,1) then (2,2) is invalid
    lab = decorated2(1, 1, 1, 1, frozenset({(1, 2), (2, 1)}))
    assert DecoratedMatrix.from_json(lab.to_json()) == lab
    ms = MarkedSequence((1, 2, 2), frozenset({2}))
    assert MarkedSequence.from_json(ms.to_json()) == ms


def test_sort_keys_are_total():
    labels = enumerate_xi(2, 2)
    keys = sorted(lab.sort_key() for lab in labels)
    assert len(set(keys)) == len(labels)


# --- the package's value types ----------------------------------------------

def _values():
    """One value of each of the seven value types, with the tuple of its
    fields, built by the usual constructor."""
    space = PrimeFieldSubspace(3, 2, ((1, 0),))
    return [
        (decorated2(1, 0, 0, 2, frozenset({(1, 1)})),
         (((1, 0), (0, 2)), frozenset({(1, 1)}))),
        (MarkedSequence((2, 1), frozenset({1})), ((2, 1), frozenset({1}))),
        (GeneratorWord(RF_ONE, ("e", "f")), (RF_ONE, ("e", "f"))),
        (PbwMonomial(5, 1, 2, -1), (5, 1, 2, -1)),
        (BipartitionLabel((2, 1), 1), ((2, 1), 1)),
        (space, (3, 2, ((1, 0),))),
        (FlagTriple((space,), (), (1, 0)), ((space,), (), (1, 0))),
    ]


def test_values_built_by_different_routes_are_equal():
    lab = decorated2(1, 0, 0, 2, frozenset({(1, 1)}))
    ms = MarkedSequence((2, 1), frozenset({1}))
    space = PrimeFieldSubspace(3, 2, ((1, 0),))
    routes = [
        (lab, DecoratedMatrix.from_json(lab.to_json())),
        (lab, transpose_decorated(transpose_decorated(lab))),
        (lab, DecoratedMatrix(((1, 0), (0, 2)), [(1, 1)])),
        (ms, MarkedSequence.from_json(ms.to_json())),
        (ms, matrix_to_sequence(sequence_to_matrix(ms))),
        (ms, MarkedSequence(tuple([2, 1]), [1])),
        (GeneratorWord(RF_ONE, ("e",)), GeneratorWord(rf_const(1), ("e",))),
        (PbwMonomial(1, 0, 2, 1), _mono(3, 0, 2, 1)),
        (BipartitionLabel((2,), 1), BipartitionLabel([2, 0], 1)),
        (space, PrimeFieldSubspace.from_rows([(2, 0)], 2, 3)),
        (FlagTriple((space,), (), (1, 0)),
         FlagTriple((PrimeFieldSubspace.from_rows([(1, 0)], 2, 3),), (),
                    (1, 0))),
    ]
    for x, y in routes:
        assert x is not y and x == y and not x != y, (x, y)
        assert hash(x) == hash(y) and len({x, y}) == 1, (x, y)
    assert BipartitionLabel([2, 0], 1).lam == (2,)


def test_values_equal_no_tuple_and_no_other_type():
    values = _values()
    for x, fields in values:
        assert x != fields and fields != x and x != tuple(fields), x
        assert x not in {fields: None} and fields not in {x: None}, x
        for y, _ in values:
            assert (x == y) == (x is y), (x, y)
    # a label and its 4-tuple hash alike but stay apart in one dict
    mono = PbwMonomial(5, 1, 2, -1)
    assert len({mono: 1, (5, 1, 2, -1): 2}) == 2


def test_values_read_back_their_fields():
    for x, fields in _values():
        names = [n for n in type(x).__slots__ if n != "sums"]
        assert tuple(getattr(x, n) for n in names) == fields, x
        assert hash(x) == hash(fields), x
    with pytest.raises(TypeError):
        GeneratorWord(RF_ONE)
    with pytest.raises(TypeError):
        FlagTriple((), (), (1,), 0)


def test_values_refuse_assignment():
    for x, _ in _values():
        name = type(x).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = 1


def test_marks_may_come_as_a_set():
    lab = decorated2(1, 0, 0, 1, {(1, 1)})
    assert lab == decorated2(1, 0, 0, 1, frozenset({(1, 1)}))
    assert type(lab.delta) is frozenset and validate(lab)[0]
    assert MarkedSequence((2, 1), {1}).marks == frozenset({1})


@pytest.mark.parametrize("make, args, message", [
    (PbwMonomial, (6, 0, 0, 0), "unknown monomial class 6"),
    (PbwMonomial, (0, -1, 0, 0), "negative exponent"),
    (PbwMonomial, (0, 0, -2, 0), "negative exponent"),
    (PbwMonomial, (2, 0, 0, 1), "class 2 requires an e or f letter"),
    (PbwMonomial, (3, 0, 1, 0), "class 3 requires both letter blocks"),
    (PbwMonomial, (5, 1, 0, 0), "class 5 requires both letter blocks"),
    (BipartitionLabel, ((1, 1, 1), 0),
     "partition must have at most two positive parts"),
    (BipartitionLabel, ((2, -1), 0),
     "partition must have at most two positive parts"),
    (BipartitionLabel, ((1, 2), 0), "partition parts must decrease"),
    (BipartitionLabel, ((2,), 3), "column part must have 0, 1 or 2 boxes"),
])
def test_checked_values_keep_their_messages(make, args, message):
    with pytest.raises(ValueError) as err:
        make(*args)
    assert str(err.value) == message


def _sums_of(a):
    return (tuple(sum(row) for row in a),
            tuple(sum(row[j] for row in a) for j in range(len(a[0]))))


def test_stored_sums_match_the_entries():
    for d in range(1, 6):
        for lab in enumerate_xi(2, d):
            assert row_col_sums(lab) == _sums_of(lab.a), lab
            assert lab.d == d
    for d in range(1, 5):
        for ms in enumerate_xi(2, d, tensor=True):
            assert row_col_sums(ms) == _sums_of(sequence_to_matrix(ms).a), ms
