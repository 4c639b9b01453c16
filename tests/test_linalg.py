"""Sparse exact elimination over Fraction and rational-function entries,
the bounded memo and the sum of c * x over Q(v)."""

from fractions import Fraction

import pytest

from mirabolic import qv
from mirabolic.linalg import (Combination, LruMemo, eliminate, linear_sum,
                              rank_of_rows, reduce_row, solve_unique)
from mirabolic.qv import RF_ONE, RF_ZERO, quantum_integer, rf_const, v_power


def test_rank_fraction_rows():
    rows = [{"x": Fraction(1), "y": Fraction(2)},
            {"x": Fraction(2), "y": Fraction(4)},
            {"y": Fraction(1), "z": Fraction(1)}]
    assert rank_of_rows(rows) == 2
    rows.append({"z": Fraction(5)})
    assert rank_of_rows(rows) == 3


def test_rank_rational_function_rows():
    rows = [{0: v_power(1), 1: quantum_integer(2)},
            {0: v_power(2), 1: quantum_integer(2) * v_power(1)}]
    # second row is v * first row
    assert rank_of_rows(rows) == 1


def test_reduce_row():
    pivots = eliminate([{0: Fraction(2), 1: Fraction(2)}])
    residual = reduce_row({0: Fraction(1), 2: Fraction(3)}, pivots)
    assert residual == {1: Fraction(-1), 2: Fraction(3)}


def test_solve_unique():
    eqs = [{"a": Fraction(1), "b": Fraction(1)},
           {"a": Fraction(1), "b": Fraction(-1)}]
    sol = solve_unique(eqs, [Fraction(3), Fraction(1)])
    assert sol == {"a": Fraction(2), "b": Fraction(1)}


def test_solve_inconsistent():
    eqs = [{"a": Fraction(1)}, {"a": Fraction(1)}]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_unique(eqs, [Fraction(1), Fraction(2)])


def test_solve_underdetermined():
    eqs = [{"a": Fraction(1), "b": Fraction(1)}]
    with pytest.raises(ValueError, match="underdetermined"):
        solve_unique(eqs, [Fraction(1)])


def test_int_entries_stay_exact():
    # ints are read as Fractions; true division of ints would make floats,
    # and rounding made this rank-2 matrix look invertible
    rows = [{0: 9, 1: -3, 2: 7}, {0: -5, 1: 0, 2: -5}, {0: -51, 1: 12, 2: -43}]
    assert rank_of_rows(rows) == 2
    sol = solve_unique([{"x": 3}], [1])
    assert sol == {"x": Fraction(1, 3)}
    assert isinstance(sol["x"], Fraction)


def test_lru_memo_put_replaces_the_charge():
    # a re-put charged its size again without taking off the old charge, so
    # the memo evicted until it was empty and then raised KeyError
    memo = LruMemo(10)
    for value in range(3):
        memo.put("a", value, 3)
    assert memo.size == 3 and memo.get("a") == 2
    memo.put("b", "b", 5)
    assert memo.size == 8 and len(memo) == 2


@pytest.mark.parametrize("n", [3, 4, 6])
def test_linear_sum_reduces_each_coefficient_once(n, monkeypatch):
    # n multiples v^(100n+i)/(v^2+3) of one basis vector, values no other
    # test builds, so no memo of qv already holds their sums: adding them
    # one at a time took n - 1 reductions, one per partial sum
    den = v_power(2) + rf_const(3)
    pairs = [(v_power(100 * n + i) / den, Combination(1, {"x": v_power(-1)}))
             for i in range(n)]
    want = sum(map(v_power, range(100 * n - 1, 101 * n - 1)), RF_ZERO) / den
    canonical, calls = qv._rf_canonical, []

    def counted(num, d):
        calls.append(d)
        return canonical(num, d)
    monkeypatch.setattr(qv, "_rf_canonical", counted)
    got = linear_sum(pairs)
    assert len(calls) == 1
    assert got.terms == {"x": want} and got.d == 1
    x = Combination(1, {"x": RF_ONE})
    assert linear_sum([(RF_ONE, x)]) is x
