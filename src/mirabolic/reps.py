"""Finite-dimensional simple modules over the mirabolic quantum algebra.

Three families, each in a + and a - flavor:

    L(n,0)  : the (n+1)-dimensional simple V(n) of quantum sl2, pulled back
              through the quotient sending l to 0;
    L(n,1)  : the same pullback through l -> 1;
    L(n,01) : a 2n-dimensional module where l has both eigenvalues; its
              basis is m_{i,0} (0 <= i <= n-1) together with m_{j,1}
              (1 <= j <= n), and the generators act by

                  k m_{i,eps} = (sign) v^(n-2i) m_{i,eps}
                  l m_{i,eps} = eps m_{i,eps}
                  f m_{i,0}   = m_{i+1,0} + (v^i/[i+1]) m_{i+1,1}
                  f m_{i,1}   = v^-1 ([i]/[i+1]) m_{i+1,1}
                  e m_{i,0}   = (sign) v [i][n-i] m_{i-1,0}
                  e m_{i,1}   = (sign)([i][n+1-i] m_{i-1,1}
                                       + v^(i-n)[i] m_{i-1,0})

              with out-of-range symbols read as zero.

Up to isomorphism these exhaust the simple weight modules, and they are
pairwise distinguished by a central Casimir element acting through the
scalars returned by casimir_scalar_formula.

A - module is its + module twisted by the sign automorphism e -> -e,
k^+-1 -> -k^+-1, f and l fixed, as type sigma modules of quantum sl2 are
twists of type 1 ones (Jantzen, Lectures on Quantum Groups, 1996, ch. 2).
So word matrices are folded on V(n) = L+(n,1) and L+(n,01) only.
"""

from functools import lru_cache, partial
from math import prod

from .qv import (RF_ONE, RF_ZERO, RationalFunction, quantum_integer, rf_const,
                 v_power)
from . import pbw
from .linalg import (FOLD_MEMO_TERMS, Combination, LruMemo, bump, fold_word,
                     linear_sum)
from .schur_algebra import GeneratorWord

KINDS = ("L0", "L1", "L01")
SIGNS = ("+", "-")


class IrreducibleModule:
    """A simple module given by sparse generator columns.

    action[g][j] = {i: coefficient} is the image of the j-th basis vector,
    so (g x)_i = sum_j action[g][j].get(i, 0) x_j.  basis holds (i, eps)
    labels in column order.  build_module hands out one shared instance
    per (kind, sign, n), so a module and its columns are read-only.
    """

    __slots__ = ("kind", "sign", "n", "dim", "basis", "action", "base")

    def __init__(self, kind, sign, n, basis, action):
        self.kind = kind
        self.sign = sign
        self.n = n
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.action = action
        self.base = None

    @property
    def name(self):
        return format_module_name(self.kind, self.sign, self.n)

    def __repr__(self):
        return f"IrreducibleModule({self.name})"


def format_module_name(kind, sign, n):
    suffix = {"L0": "0", "L1": "1", "L01": "01"}[kind]
    return f"L{sign}({n},{suffix})"


def parse_module_name(text):
    """Inverse of format_module_name; returns (kind, sign, n)."""
    t = text.strip()
    if len(t) < 6 or t[0] != "L" or t[1] not in "+-" or t[2] != "(" or t[-1] != ")":
        raise ValueError(f"bad module name {text!r}")
    sign = t[1]
    body = t[3:-1]
    n_str, _, suffix = body.partition(",")
    kind = {"0": "L0", "1": "L1", "01": "L01"}.get(suffix.strip())
    if kind is None:
        raise ValueError(f"bad module name {text!r}")
    return kind, sign, int(n_str)


def _basis(kind, n):
    """The (i, eps) labels of a simple's basis, in column order."""
    if kind not in KINDS:
        raise ValueError(f"unknown module kind {kind!r}")
    if kind != "L01":
        if n < 0:
            raise ValueError("n must be >= 0")
        return [(i, 0 if kind == "L0" else 1) for i in range(n + 1)]
    if n < 1:
        raise ValueError("n must be >= 1 for L01")
    return [(i, 0) for i in range(n)] + [(j, 1) for j in range(1, n + 1)]


@lru_cache(maxsize=128)     # every simple that `verify` builds at n <= 16
def build_module(kind, sign, n):
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    basis = _basis(kind, n)
    sg = RF_ONE if sign == "+" else -RF_ONE
    idx = {lab: p for p, lab in enumerate(basis)}
    mixed = kind == "L01"
    mk, mki, ml, me, mf = ([{} for _ in basis] for _ in range(5))
    for p, (i, eps) in enumerate(basis):
        mk[p][p] = sg * v_power(n - 2 * i)
        mki[p][p] = sg * v_power(2 * i - n)
        if eps:
            ml[p][p] = RF_ONE
        up, down = idx.get((i + 1, eps)), idx.get((i - 1, eps))
        if up is not None:
            mf[p][up] = (v_power(-1) * quantum_integer(i) / quantum_integer(i + 1)
                         if mixed and eps else RF_ONE)
        if mixed and not eps:
            mf[p][idx[(i + 1, 1)]] = v_power(i) / quantum_integer(i + 1)
        if down is not None:
            me[p][down] = sg * quantum_integer(i) * (
                v_power(1) * quantum_integer(n - i) if mixed and not eps
                else quantum_integer(n + 1 - i))
        if mixed and eps and (i - 1, 0) in idx:
            me[p][idx[(i - 1, 0)]] = sg * v_power(i - n) * quantum_integer(i)
    action = {"k": mk, "k^-1": mki, "l": ml, "e": me, "f": mf}
    return IrreducibleModule(kind, sign, n, basis, action)


def _letter(M, g, y):
    """g applied to y keyed by (row, column): all its columns at once."""
    cols, out = M.action[g], {}
    for (r, j), c in y.terms.items():
        for i, a in cols[r].items():
            bump(out, (i, j), c * a)
    return y._like(out)


# an eighth: a pbw-modules batch's 3,530 word matrices took 2.5 MiB more RSS
_WORD_MATRICES = LruMemo(FOLD_MEMO_TERMS // 8)


def _base(M):
    """(B, signs, key), found once: M's columns are B's times signs[g], with
    B = L+(n,01) or V(n) = L+(n,1) and signs -1 on e, k, k^-1 for a - module,
    0 on l for L0, else 1.  A module whose columns differ is its own B."""
    if M.base is None:
        M.base = M, dict.fromkeys(M.action, 1), M
        try:
            B = build_module("L01" if M.kind == "L01" else "L1", "+", M.n)
        except ValueError:
            return M.base
        signs = {g: 0 if g == "l" and M.kind == "L0"
                 else -1 if M.sign == "-" and g in ("e", "k", "k^-1") else 1
                 for g in B.action}
        if M.action.keys() == signs.keys() and all(
                M.action[g] == [{i: t * c for i, c in col.items() if t}
                                for col in B.action[g]]
                for g, t in signs.items()):
            M.base = B, signs, (B.kind, B.sign, B.n)
    return M.base


def _signed_word(M, letters):
    """(s, W): a letter word's matrix on M keyed by (row, column) is s * W,
    s its letters' signs and W its base's, read-only: `fold_word` memoises
    every suffix under (kind, sign, n) of V(n) or L+(n,01), or under M."""
    B, signs, key = _base(M)
    s = prod(signs.get(g, 1) for g in letters)
    if not s and signs.keys() >= set(letters):
        return 0, Combination(M.dim)

    def identity():
        return Combination(B.dim, {(j, j): RF_ONE for j in range(B.dim)})
    return s, fold_word(_WORD_MATRICES, key, identity, tuple(letters),
                        partial(_letter, B), B.action)


def word_matrix(M, letters):
    """s * W of `_signed_word`: shared and read-only unless s is -1."""
    s, W = _signed_word(M, letters)
    return W if s > 0 else -W


def _evaluate(w, word):
    """Sum c * s * W over w's words (c, letters), (s, W) = word(letters)."""
    if isinstance(w, GeneratorWord):
        words = [(w.scalar, w.letters)]
    elif isinstance(w, pbw.PbwElement):
        words = [(c, mono.letters()) for mono, c in w.terms.items()]
    else:
        raise TypeError(f"cannot act by {type(w).__name__}")
    return linear_sum(((c if s > 0 else -c, W) for c, letters in words
                       for s, W in [word(letters)]))


def act(w, M, vec):
    """Apply a generator word or a normal-form element to a vector, no matrix
    built."""
    if len(vec) != M.dim:
        raise ValueError(f"vector has length {len(vec)}, module has dim {M.dim}")
    x = Combination(M.dim, {(i, 0): c if isinstance(c, RationalFunction)
                            else rf_const(c) for i, c in enumerate(vec)})
    out = _evaluate(w, lambda letters: (1, fold_word(
        None, None, lambda: x, letters, partial(_letter, M), M.action))).terms
    return [out.get((i, 0), RF_ZERO) for i in range(M.dim)]


def action_matrix(w, M):
    """Matrix of a word or normal-form element in the module's basis."""
    rows = [[RF_ZERO] * M.dim for _ in range(M.dim)]
    for (i, j), c in _evaluate(w, partial(_signed_word, M)).terms.items():
        rows[i][j] = c
    return rows


def _eigen_exponent(c):
    """Write a scalar as (sign, a) with value sign * v^a, or return None."""
    if c.den != RF_ONE.den or len(c.num.c) != 1:
        return None
    (a, coeff), = c.num.c.items()
    if coeff == 1:
        return ("+", a)
    if coeff == -1:
        return ("-", a)
    return None


def weight_table(M):
    """Simultaneous (k, l) eigenspace dimensions as {(sign, a, eps): mult}.

    The module bases are k- and l-eigenbases, so this just reads off the
    diagonals, checking that each k and l column holds only its own
    diagonal entry, of the expected shape.
    """
    mk, ml = M.action["k"], M.action["l"]
    table = {}
    for p in range(M.dim):
        if not mk[p].keys() <= {p} or not ml[p].keys() <= {p}:
            raise ValueError("k not diagonalizable over +-v^Z")
        se = _eigen_exponent(mk[p].get(p, RF_ZERO))
        if se is None:
            raise ValueError("k not diagonalizable over +-v^Z")
        lv = ml[p].get(p, RF_ZERO)
        if lv == RF_ONE:
            eps = 1
        elif not lv:
            eps = 0
        else:
            raise ValueError("l eigenvalue is not 0 or 1")
        sign, a = se
        key = (sign, a, eps)
        table[key] = table.get(key, 0) + 1
    return table


def casimir_scalar(M):
    """The scalar by which the central Casimir element acts."""
    terms = _evaluate(pbw.casimir_element(), partial(_signed_word, M)).terms
    c = terms.get((0, 0), RF_ZERO)
    if terms != {(p, p): c for p in range(M.dim) if c}:
        raise ValueError("Casimir element does not act by a scalar")
    return c


def casimir_scalar_formula(kind, sign, n):
    """Closed form of the Casimir scalar on each simple module."""
    vm = v_power(1) - v_power(-1)
    if kind == "L0":
        val = (v_power(n) + v_power(-n - 2)) / vm
    elif kind == "L1":
        val = (v_power(n + 2) + v_power(-n)) / vm
    elif kind == "L01":
        val = (v_power(n) + v_power(-n)) / vm
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    return val if sign == "+" else -val


def irreducible_weight_table(kind, sign, n):
    """Weight table of a simple module, from the basis description: m_(i,eps)
    has weight (sign, n - 2i, eps), and no two share one."""
    return {(sign, n - 2 * i, eps): 1 for i, eps in _basis(kind, n)}


def decompose_weight_table(table):
    """Express a weight table as a sum of irreducible ones.

    Returns {(kind, sign, n): multiplicity} with positive multiplicities,
    peeled off each sign from the largest |a| down: with the larger modules
    taken off, only L1(n) reaches (n, 1), only L0(n) reaches (-n, 0), and
    then only L01(n) reaches (n, 0).  Raises ValueError("not a module weight
    table") on a negative count or a weight left over.
    """
    clean = {}
    for key, mult in table.items():
        sign, a, eps = key
        if sign not in SIGNS or eps not in (0, 1) or a != int(a):
            raise ValueError(f"bad weight {key!r}")
        if mult < 0 or mult != int(mult):
            raise ValueError(f"bad multiplicity {mult!r} at {key!r}")
        if mult:
            clean[(sign, int(a), eps)] = int(mult)

    out, left = {}, dict(clean)
    for sign in SIGNS:
        for n in sorted({abs(a) for s, a, _ in clean if s == sign},
                        reverse=True):
            for kind, a, eps in (("L1", n, 1), ("L0", -n, 0), ("L01", n, 0)):
                m = left.get((sign, a, eps), 0)
                if not m:
                    continue
                for key, k in irreducible_weight_table(kind, sign, n).items():
                    left[key] = left.get(key, 0) - m * k
                    if left[key] < 0:
                        raise ValueError("not a module weight table")
                out[(kind, sign, n)] = m
    if any(left.values()):
        raise ValueError("not a module weight table")
    return out
