"""Decorated matrices, marked sequences, and their enumeration."""

from mirabolic.decorated import (DecoratedMatrix, MarkedSequence,
                                 count_xi_tensor, decorated2, enumerate_xi,
                                 matrix_to_sequence, row_col_sums,
                                 sequence_stats, sequence_to_matrix,
                                 transpose_decorated, validate)


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
