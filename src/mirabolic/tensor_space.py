"""Tensor space of marked two-letter words and its diagonal-part actions.

The space has basis T_{i,J} indexed by sequences i in {1,2}^d with a marked
subset J (at most one singleton per position, pairs only at inversions).
The generator k scales each basis vector by v^(2*ones(i)-d); the idempotent
l acts within each block V_i = span{T_{i,J}} by the coset count of the
algebra (`schur_algebra.ell_rule`) on the 2 x d matrix of each marked
sequence.  Ranks and kernels of l per block produce the weight
multiplicities, which are compared against binomial closed forms, and the
full weight table is fed to the module decomposition solver to reproduce
the expected direct-sum shape:

    (lambda, empty)  ->  L+(l1-l2, 1)     with multiplicity   f_lambda
    (lambda, 1)      ->  L+(l1-l2+1, 01)  with multiplicity C(d,1) f_lambda
    (lambda, 11)     ->  L+(l1-l2, 0)     with multiplicity C(d,2) f_lambda

summed over two-row partitions lambda with |lambda| + s = d.  That shape is
checked, not proved: the report labels agreement "conjecture-consistent".
"""

from itertools import product
from math import comb, factorial

from .decorated import (MarkedSequence, Record, count_xi_tensor, decorations,
                        sequence_stats, sequence_to_matrix, validate)
from .linalg import FOLD_MEMO_TERMS, Combination, LruMemo, rank_of_rows
from .qv import RF_ONE, format_coeff, v_power
from .reps import decompose_weight_table, format_module_name
from .schur_algebra import ell_rule, jump_cell


class TensorElement(Combination):
    """Sparse vector in the marked tensor space of a fixed size d."""

    __slots__ = ()

    @staticmethod
    def basis(d, label):
        if label.d != d:
            raise ValueError("label size mismatch")
        return TensorElement(d, {label: RF_ONE})

    @staticmethod
    def read_label(obj, d):
        """A marked sequence of length d over {1, 2} from its JSON form."""
        label = MarkedSequence.from_json(obj)
        ok, why = validate(label)
        if not ok:
            raise ValueError(f"bad label {label}: {why}")
        if not set(label.seq) <= {1, 2}:
            raise ValueError(f"bad label {label}: letters must be 1 or 2")
        if label.d != d:
            raise ValueError(f"bad label {label}: length {label.d}, "
                             f"expected d={d}")
        return label

    def __repr__(self):
        if not self.terms:
            return f"TensorElement(d={self.d}, 0)"
        bits = [f"({format_coeff(c)}) {label}" for label, c in self.sorted_terms()]
        return f"TensorElement(d={self.d}, " + " + ".join(bits) + ")"


def k_action(x):
    return x.apply(
        lambda label: {label: v_power(2 * label.seq.count(1) - x.d)})


# the record (l-table, l-rank) of each block V_i, keyed by i and charged in
# labels: room for every block at d <= 7 (2,815 labels)
_BLOCKS = LruMemo(FOLD_MEMO_TERMS >> 4)


def _ell_block(seq):
    """The memoised record (table, rank) of the block V_i, shared and
    read-only: table is {label: (coeff, vec)}, l . T_label = coeff * vec by
    `ell_rule` on the 2 x d matrix of the label, with one vec dict per jump
    c, in the order of `block_basis`; rank is the rank of l on V_i by exact
    elimination, not the closed form 1 + twos(i) that tests check it by."""
    seq = tuple(seq)
    got = _BLOCKS.get(seq)
    if got is not None:
        return got
    a = sequence_to_matrix(MarkedSequence(seq), 2).a
    labels = {delta: MarkedSequence(seq, frozenset(j for _, j in delta))
              for delta in decorations(a)}
    vecs, out = {}, {}
    for delta, label in labels.items():
        coeff, c = ell_rule(a, delta)
        if c not in vecs:
            vecs[c] = {labels[b]: RF_ONE for b in jump_cell(a, c)}
        out[label] = (coeff, vecs[c])
    # no coeff is 0, and c x spans the line of x for c != 0: only the 1 +
    # twos(i) distinct vectors are eliminated
    return _BLOCKS.put(seq, (out, rank_of_rows(list(vecs.values()))),
                       len(out))


def ell_action(x):
    """l . x, each label's column read from its block's record."""
    def column(label):
        coeff, vec = _ell_block(label.seq)[0][label]
        return {lab: coeff * c for lab, c in vec.items()}

    return x.apply(column)


def block_basis(seq):
    """All valid mark sets over a fixed sequence: none, singletons, inversions."""
    return list(_ell_block(seq)[0])


def block_ell_rank(seq):
    """(dimension, rank of l) for the block of a fixed sequence, read from
    its record: the rank is exact elimination, not the closed form."""
    table, rank = _ell_block(seq)
    return len(table), rank


def _comb0(n, k):
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def weight_multiplicities(d):
    """Weight table {(a, eps): dim} of the tensor space, a = d - 2r.

    Zero entries are kept so the table's shape is independent of content.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    table = {(d - 2 * r, eps): 0 for r in range(d + 1) for eps in (0, 1)}
    for seq in product((1, 2), repeat=d):
        r = sum(1 for val in seq if val == 2)
        dim, rank = block_ell_rank(seq)
        table[(d - 2 * r, 1)] += rank
        table[(d - 2 * r, 0)] += dim - rank
    return table


def rhs_closed_form(d, r, eps):
    """Binomial closed form for one weight multiplicity."""
    if not 0 <= r <= d:
        raise ValueError("need 0 <= r <= d")
    if eps == 1:
        return _comb0(d, r) + d * _comb0(d - 1, r - 1)
    if eps == 0:
        return d * _comb0(d - 1, r) + _comb0(d, 2) * _comb0(d - 2, r - 1)
    raise ValueError("eps must be 0 or 1")


def inversion_sum(d, r):
    """Sum of inv(i) over sequences with r letters equal to 2."""
    return sum(sequence_stats(seq).inversions
               for seq in product((1, 2), repeat=d)
               if sum(1 for val in seq if val == 2) == r)


def syt_count(partition):
    """Number of standard Young tableaux, by the hook length formula."""
    lam = tuple(int(p) for p in partition if p)
    if any(p < 0 for p in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not a partition: {partition!r}")
    n = sum(lam)
    if n == 0:
        return 1
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(n) // hooks


class BipartitionLabel(Record):
    """A two-row partition paired with a column of at most two boxes."""

    __slots__ = ("lam", "s")

    def __init__(self, lam, s):
        lam = tuple(int(p) for p in lam if p)
        if len(lam) > 2 or any(p < 1 for p in lam):
            raise ValueError("partition must have at most two positive parts")
        if len(lam) == 2 and lam[0] < lam[1]:
            raise ValueError("partition parts must decrease")
        if s not in (0, 1, 2):
            raise ValueError("column part must have 0, 1 or 2 boxes")
        Record.__init__(self, lam, s)

    @property
    def d(self):
        return sum(self.lam) + self.s

    def __str__(self):
        return f"({','.join(str(p) for p in self.lam) or '-'},1^{self.s})"


def bipartition_labels(d):
    out = []
    for s in (0, 1, 2):
        size = d - s
        if size < 0:
            continue
        for l2 in range(size // 2 + 1):
            l1 = size - l2
            lam = (l1, l2) if l2 else ((l1,) if l1 else ())
            out.append(BipartitionLabel(lam, s))
    return out


def conjecture_table(d):
    """Expected module multiset {(kind, sign, n): mult} for the tensor space."""
    out = {}
    for label in bipartition_labels(d):
        lam, s = label.lam, label.s
        l1 = lam[0] if lam else 0
        l2 = lam[1] if len(lam) > 1 else 0
        f = syt_count(lam)
        if s == 0:
            key, mult = ("L1", "+", l1 - l2), f
        elif s == 1:
            key, mult = ("L01", "+", l1 - l2 + 1), d * f
        else:
            key, mult = ("L0", "+", l1 - l2), comb(d, 2) * f
        out[key] = out.get(key, 0) + mult
    return out


def check_left_module(d):
    """Compare computed weight data against the closed forms and the
    expected decomposition; returns a report dict.

    conjecture_match means: every multiplicity agrees with its closed form,
    the total matches the basis count, and the weight table decomposes into
    exactly the predicted simple modules.  Agreement is evidence, not proof;
    callers should report it as conjecture-consistent.
    """
    weights = weight_multiplicities(d)
    mismatches = []
    for r in range(d + 1):
        for eps in (0, 1):
            if weights[(d - 2 * r, eps)] != rhs_closed_form(d, r, eps):
                mismatches.append((r, eps))
    total = sum(weights.values())
    total_expected = count_xi_tensor(2, d)

    table = {("+", a, eps): m for (a, eps), m in weights.items() if m}
    expected = conjecture_table(d)
    try:
        decomposition = decompose_weight_table(table)
        decompose_error = None
    except ValueError as ex:
        decomposition = {}
        decompose_error = str(ex)

    match = (not mismatches and total == total_expected
             and decompose_error is None and decomposition == expected)
    report = {
        "d": d,
        "weights": [{"a": a, "eps": eps, "mult": weights[(a, eps)],
                     "closed_form": rhs_closed_form(d, (d - a) // 2, eps)}
                    for a, eps in sorted(weights, reverse=True)],
        "total": total,
        "total_expected": total_expected,
        "decomposition": [{"module": format_module_name(*key), "mult": m}
                          for key, m in sorted(decomposition.items())],
        "conjecture": [{"module": format_module_name(*key), "mult": m}
                       for key, m in sorted(expected.items())],
        "mismatches": mismatches,
        "conjecture_match": match,
    }
    if decompose_error:
        report["decompose_error"] = decompose_error
    return report
