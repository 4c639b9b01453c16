"""Mirabolic tensor space: k/l actions, weights, and decomposition reports."""

import hashlib
import json
from itertools import product
from math import comb

import pytest

from mirabolic import checks
from mirabolic.decorated import MarkedSequence, enumerate_xi
from mirabolic.linalg import rank_of_rows
from mirabolic.qv import RF_ONE, v_power
from mirabolic.tensor_space import (BipartitionLabel, TensorElement,
                                    _ell_block, bipartition_labels,
                                    block_basis, block_ell_rank,
                                    check_left_module, conjecture_table,
                                    ell_action, inversion_sum, k_action,
                                    rhs_closed_form, syt_count,
                                    weight_multiplicities)


def T(d, seq, marks=()):
    return TensorElement.basis(d, MarkedSequence(tuple(seq), frozenset(marks)))


def test_k_action_examples():
    for marks in ((), (1,), (2,), (1, 2)):
        x = T(2, (2, 1), marks)
        assert k_action(x) == x
    assert k_action(T(3, (1, 1, 1))) == T(3, (1, 1, 1)).scale(v_power(3))
    assert k_action(T(1, (2,))) == T(1, (2,)).scale(v_power(-1))


def test_ell_action_examples():
    w = T(2, (2, 1)) + T(2, (2, 1), (2,))
    assert ell_action(T(2, (2, 1))) == w.scale(v_power(-2))
    got = ell_action(T(2, (2, 1), (1,)))
    want = (T(2, (2, 1), (1,)) + T(2, (2, 1), (1, 2))).scale(v_power(-2))
    assert got == want
    got = ell_action(T(2, (2, 1), (2,)))
    assert got == w.scale(v_power(-2) * (v_power(2) - RF_ONE))


def test_ell_action_pinned():
    # sha256 of l on every basis vector at d <= 7, recorded while l had its
    # own four-case table
    h = hashlib.sha256()
    for d in range(1, 8):
        for ms in enumerate_xi(2, d, tensor=True):
            x = ell_action(TensorElement.basis(d, ms))
            h.update((json.dumps(x.to_json(), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == \
        "dc367923204437fcd869a02c736a05710637a866bc0ff33ed31e2f0f244d11dd"


def test_ell_idempotent_and_commutes_with_k():
    for d in range(1, 7):
        for ms in enumerate_xi(2, d, tensor=True):
            x = TensorElement.basis(d, ms)
            lx = ell_action(x)
            assert ell_action(lx) == lx, ms
            assert k_action(lx) == ell_action(k_action(x)), ms


def test_blocks_partition_the_basis():
    for d in range(1, 5):
        seen = []
        for seq in product((1, 2), repeat=d):
            block = block_basis(seq)
            assert all(ms.seq == seq for ms in block)
            seen.extend(block)
        assert sorted(seen, key=lambda m: m.sort_key()) == \
            sorted(enumerate_xi(2, d, tensor=True),
                   key=lambda m: m.sort_key())


def test_block_invariance():
    # ell maps each block into itself
    for d in range(1, 6):
        for seq in product((1, 2), repeat=d):
            block = set(block_basis(seq))
            for ms in block:
                img = ell_action(TensorElement.basis(d, ms))
                assert set(img.terms) <= block, ms


def test_block_rank_sums():
    for d in range(1, 9):
        by_r = {}
        for seq in product((1, 2), repeat=d):
            dim, rank = block_ell_rank(seq)
            twos = sum(1 for x in seq if x == 2)
            assert rank == 1 + twos
            by_r[twos] = by_r.get(twos, 0) + rank
        for r in range(d + 1):
            assert by_r.get(r, 0) == rhs_closed_form(d, r, 1), (d, r)


def test_weight_multiplicities():
    assert weight_multiplicities(1) == \
        {(1, 1): 1, (-1, 1): 2, (1, 0): 1, (-1, 0): 0}
    w3 = weight_multiplicities(3)
    assert w3[(1, 1)] == 6 and w3[(1, 0)] == 9
    assert sum(weight_multiplicities(2).values()) == 13
    for d in range(1, 7):
        assert not checks.failures(checks.tensor(d)), d


def test_rhs_closed_form_values():
    assert rhs_closed_form(3, 1, 1) == 6
    assert rhs_closed_form(3, 0, 1) == 1
    assert rhs_closed_form(4, 2, 0) == 4 * comb(3, 2) + 6 * comb(2, 1)


def test_inversion_sum_identity():
    # sum of inversions over sequences with r twos = C(d,2) C(d-2, r-1)
    def c(n, k):
        return comb(n, k) if 0 <= k <= n else 0
    for d in range(1, 11):
        for r in range(d + 1):
            assert inversion_sum(d, r) == comb(d, 2) * c(d - 2, r - 1), (d, r)


def test_syt_count():
    assert syt_count((1,)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((3, 2)) == 5
    assert syt_count(()) == 1


def test_bipartition_labels():
    labels = bipartition_labels(2)
    assert set(labels) == {BipartitionLabel((2,), 0),
                           BipartitionLabel((1, 1), 0),
                           BipartitionLabel((1,), 1),
                           BipartitionLabel((), 2)}
    for lab in labels:
        assert lab.d == 2


def test_conjecture_table_d2():
    t = conjecture_table(2)
    assert t == {("L1", "+", 2): 1, ("L1", "+", 0): 1,
                 ("L01", "+", 2): 2, ("L0", "+", 0): 1}
    total = sum({"L0": n + 1, "L1": n + 1, "L01": 2 * n}[kind] * m
                for (kind, _, n), m in t.items())
    assert total == 13


def test_block_rank_is_the_rank_of_every_full_image():
    # the distinct-vector rank equals the rank of the full images
    # l . T_label, one row per label, and no row of the l-table is zero
    for d in range(1, 7):
        for seq in product((1, 2), repeat=d):
            basis = block_basis(seq)
            rows = [ell_action(TensorElement.basis(d, ms)).terms
                    for ms in basis]
            assert block_ell_rank(seq) == (len(basis), rank_of_rows(rows))
            assert all(coeff for coeff, _ in _ell_block(seq)[0].values()), seq


@pytest.mark.parametrize("d", [7, 8, 9, 10])
def test_check_left_module_matches_at_larger_d(d):
    assert check_left_module(d)["conjecture_match"] is True


def test_check_left_module_reports():
    for d, total in ((1, 4), (2, 13), (3, 38)):
        report = check_left_module(d)
        assert report["conjecture_match"] is True
        assert report["total"] == total
        assert report["mismatches"] == []
        assert report["decomposition"] == report["conjecture"]
    report = check_left_module(1)
    mods = {row["module"]: row["mult"] for row in report["decomposition"]}
    assert mods == {"L+(1,1)": 1, "L+(1,01)": 1}


@pytest.mark.parametrize("label", [
    {"seq": [3, 1, 1], "marks": [5]},
    {"seq": [1, 2], "marks": [1, 2]},
    {"seq": [1, 2, 1], "marks": []},
    {"seq": [], "marks": []},
], ids=["bad-letter-and-mark", "marks-not-decreasing", "wrong-length",
        "empty"])
def test_from_json_rejects_invalid_labels(label):
    good = {"label": {"seq": [2, 1], "marks": [1, 2]}, "coeff": "1"}
    obj = {"d": 2, "terms": [good, {"label": label, "coeff": "v"}]}
    with pytest.raises(ValueError):
        TensorElement.from_json(obj)
    obj["terms"] = [good]
    assert TensorElement.from_json(obj) == T(2, (2, 1), (1, 2))
