"""The sparse combination type shared by algebra, PBW and tensor elements."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import pbw
from mirabolic.decorated import MarkedSequence, enumerate_xi
from mirabolic.linalg import Combination, bump
from mirabolic.qv import RF_ONE, quantum_integer, rf_laurent
from mirabolic.schur_algebra import SchurElement, chevalley
from mirabolic.tensor_space import TensorElement

SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)

# a nonzero coefficient: a Laurent polynomial, possibly over a quantum integer
COEFFS = st.builds(
    lambda poly, m: rf_laurent(poly) / quantum_integer(m),
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool),
                    min_size=1, max_size=3),
    st.integers(1, 3))


def combinations(make, labels):
    return st.builds(make, st.dictionaries(st.sampled_from(labels), COEFFS,
                                           max_size=6))


SCHUR = st.integers(1, 3).flatmap(lambda d: combinations(
    lambda t: SchurElement(d, t), enumerate_xi(2, d)))
TENSOR = st.integers(1, 3).flatmap(lambda d: combinations(
    lambda t: TensorElement(d, t), enumerate_xi(2, d, tensor=True)))
PBW = combinations(pbw.PbwElement, pbw.enumerate_monomials(2, 2, 1))


@SETTINGS
@given(SCHUR)
def test_schur_json_round_trip(x):
    assert SchurElement.from_json(x.to_json()) == x


@SETTINGS
@given(TENSOR)
def test_tensor_json_round_trip(x):
    assert TensorElement.from_json(x.to_json()) == x


@SETTINGS
@given(PBW)
def test_pbw_json_round_trip(x):
    assert pbw.PbwElement.from_json(x.to_json()) == x


def test_tensor_json_example():
    x = TensorElement(2, {MarkedSequence((2, 1), frozenset({1, 2})): RF_ONE,
                          MarkedSequence((1, 1)): quantum_integer(2)})
    obj = x.to_json()
    assert obj == {"d": 2, "terms": [
        {"label": {"seq": [1, 1], "marks": []}, "coeff": "v+v^-1"},
        {"label": {"seq": [2, 1], "marks": [1, 2]}, "coeff": "1"}]}
    assert TensorElement.from_json(obj) == x


@pytest.mark.parametrize("obj", [
    5, {"terms": 5}, {"terms": [5]},
    {"terms": [{"monomial": "e", "coeff": 5}]},
    {"terms": [{"monomial": 5, "coeff": "1"}]},
    {"terms": [{"coeff": "1"}]},
], ids=["number", "terms-number", "term-number", "coeff-number",
        "monomial-number", "no-monomial"])
def test_pbw_json_rejects_other_shapes(obj):
    with pytest.raises(ValueError, match="an element is"):
        pbw.PbwElement.from_json(obj)


@pytest.mark.parametrize("label", [
    5, {"seq": 5, "marks": []}, {"seq": [2, 1], "marks": 5},
    {"seq": [2, "1"], "marks": []}, {"marks": []},
], ids=["label-number", "seq-number", "marks-number", "seq-string",
        "no-seq"])
def test_tensor_json_rejects_other_label_shapes(label):
    obj = {"d": 2, "terms": [{"label": label, "coeff": "1"}]}
    with pytest.raises(ValueError, match="a label is"):
        TensorElement.from_json(obj)


def test_different_types_are_unequal():
    assert SchurElement(2) != TensorElement(2)
    assert SchurElement(2) == SchurElement(2)
    assert SchurElement(2) != SchurElement(3)
    assert pbw.PbwElement() != SchurElement(None)
    with pytest.raises(TypeError):
        SchurElement(2) + TensorElement(2)


@pytest.mark.parametrize("cls", [SchurElement, TensorElement])
def test_mixed_degrees_refused(cls):
    with pytest.raises(ValueError):
        cls(2) + cls(3)
    with pytest.raises(ValueError):
        cls(2) - cls(1)


def test_arithmetic_drops_zeros():
    e = chevalley(2, "e")
    assert (e - e).is_zero() and not (e - e)
    assert e.scale(0).is_zero()
    assert (-e) + e == SchurElement(2)
    assert type(-e) is SchurElement and type(e.scale(2)) is SchurElement
    assert SchurElement(2, {k: 0 * c for k, c in e.terms.items()}).terms == {}


def test_bump():
    terms = {}
    bump(terms, "a", Fraction(1, 2))
    bump(terms, "b", 0)
    assert terms == {"a": Fraction(1, 2)}
    bump(terms, "a", Fraction(-1, 2))
    assert terms == {}
    x = Combination(None, {"a": 1, "b": 0})
    assert x.terms == {"a": 1}


APPLY_CASES = {
    "schur": (lambda t: SchurElement(2, t), enumerate_xi(2, 2)),
    "pbw": (pbw.PbwElement, pbw.enumerate_monomials(1, 1, 0)),
    "tensor": (lambda t: TensorElement(2, t), enumerate_xi(2, 2, tensor=True)),
}


@pytest.mark.parametrize("make, labels", APPLY_CASES.values(), ids=APPLY_CASES)
def test_apply(make, labels):
    a, b, p = labels[:3]
    two = quantum_integer(2)
    x = make({a: RF_ONE, b: two})
    # sum_k c_k column(k)
    got = x.apply(lambda k: {k: RF_ONE, p: RF_ONE})
    assert got == x + make({p: RF_ONE + two})
    # the p entries 1 * [2] and [2] * (-1) cancel and leave no key
    got = x.apply({a: {a: RF_ONE, p: two}, b: {p: -RF_ONE}}.__getitem__)
    assert got.terms == {a: RF_ONE}
    assert type(got) is type(x) and got.d == x.d
    zero = x.apply(lambda k: {})
    assert zero.is_zero() and type(zero) is type(x) and zero.d == x.d
