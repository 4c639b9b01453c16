"""Finite-dimensional simple modules over the mirabolic quantum algebra.

Three families, each in a + and a - flavor:

    L(n,0)  : the (n+1)-dimensional simple of quantum sl2, pulled back
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
"""

from fractions import Fraction
from functools import lru_cache

from .qv import (RF_ONE, RF_ZERO, RationalFunction, quantum_integer, rf_const,
                 v_power)
from . import pbw
from .linalg import Combination, solve_unique
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

    __slots__ = ("kind", "sign", "n", "dim", "basis", "action")

    def __init__(self, kind, sign, n, basis, action):
        self.kind = kind
        self.sign = sign
        self.n = n
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.action = action

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


@lru_cache(maxsize=128)     # every simple that `verify` builds at n <= 16
def build_module(kind, sign, n):
    if kind not in KINDS:
        raise ValueError(f"unknown module kind {kind!r}")
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    sg = RF_ONE if sign == "+" else -RF_ONE
    if kind in ("L0", "L1"):
        if n < 0:
            raise ValueError("n must be >= 0")
        basis = [(i, 0 if kind == "L0" else 1) for i in range(n + 1)]
        dim = n + 1
        mk, mki, ml, me, mf = ([{} for _ in range(dim)] for _ in range(5))
        for i in range(dim):
            mk[i][i] = sg * v_power(n - 2 * i)
            mki[i][i] = sg * v_power(2 * i - n)
            if kind == "L1":
                ml[i][i] = RF_ONE
            if i + 1 <= n:
                mf[i][i + 1] = RF_ONE
            if i >= 1:
                me[i][i - 1] = sg * quantum_integer(i) * quantum_integer(n + 1 - i)
    else:
        if n < 1:
            raise ValueError("n must be >= 1 for L01")
        basis = [(i, 0) for i in range(n)] + [(j, 1) for j in range(1, n + 1)]
        dim = 2 * n
        idx = {lab: p for p, lab in enumerate(basis)}
        mk, mki, ml, me, mf = ([{} for _ in range(dim)] for _ in range(5))
        for p, (i, eps) in enumerate(basis):
            mk[p][p] = sg * v_power(n - 2 * i)
            mki[p][p] = sg * v_power(2 * i - n)
            if eps:
                ml[p][p] = RF_ONE
            if eps == 0:
                if (i + 1, 0) in idx:
                    mf[p][idx[(i + 1, 0)]] = RF_ONE
                mf[p][idx[(i + 1, 1)]] = v_power(i) / quantum_integer(i + 1)
                if i >= 1:
                    me[p][idx[(i - 1, 0)]] = (
                        sg * v_power(1) * quantum_integer(i) * quantum_integer(n - i))
            else:
                if (i + 1, 1) in idx:
                    mf[p][idx[(i + 1, 1)]] = (
                        v_power(-1) * quantum_integer(i) / quantum_integer(i + 1))
                if (i - 1, 1) in idx:
                    me[p][idx[(i - 1, 1)]] = (
                        sg * quantum_integer(i) * quantum_integer(n + 1 - i))
                if (i - 1, 0) in idx:
                    me[p][idx[(i - 1, 0)]] = sg * v_power(i - n) * quantum_integer(i)
    action = {"k": mk, "k^-1": mki, "l": ml, "e": me, "f": mf}
    return IrreducibleModule(kind, sign, n, basis, action)


def _coerce_vec(M, vec):
    if len(vec) != M.dim:
        raise ValueError(f"vector has length {len(vec)}, module has dim {M.dim}")
    return [x if isinstance(x, RationalFunction) else rf_const(x) for x in vec]


def _evaluate(w, M, x):
    """w applied to x, a Combination keyed by (row, column), as such a
    Combination: each letter maps every row of every column at once."""
    if isinstance(w, GeneratorWord):
        words = [(w.scalar, w.letters)]
    elif isinstance(w, pbw.PbwElement):
        words = [(c, mono.letters()) for mono, c in w.terms.items()]
    else:
        raise TypeError(f"cannot act by {type(w).__name__}")
    total = Combination(M.dim)
    for c, letters in words:
        y = x
        for g in reversed(letters):
            y = y.apply(lambda key, cols=M.action[g]: {
                (i, key[1]): a for i, a in cols[key[0]].items()})
        y = y if c == RF_ONE else y.scale(c)
        total = total + y if total else y
    return total


def act(w, M, vec):
    """Apply a generator word or a normal-form element to a vector."""
    out = _evaluate(w, M, Combination(M.dim, {
        (i, 0): c for i, c in enumerate(_coerce_vec(M, vec))})).terms
    return [out.get((i, 0), RF_ZERO) for i in range(M.dim)]


def action_matrix(w, M):
    """Matrix of a word or normal-form element in the module's basis."""
    out = _evaluate(w, M, Combination(M.dim, {(j, j): RF_ONE
                                              for j in range(M.dim)})).terms
    return [[out.get((i, j), RF_ZERO) for j in range(M.dim)]
            for i in range(M.dim)]


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
    mat = action_matrix(pbw.casimir_element(), M)
    c = mat[0][0]
    for p in range(M.dim):
        for q in range(M.dim):
            want = c if p == q else RF_ZERO
            if mat[p][q] != want:
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
    """Weight table of a simple module, from the basis descriptions."""
    table = {}
    if kind == "L0":
        rows = [(n - 2 * i, 0) for i in range(n + 1)]
    elif kind == "L1":
        rows = [(n - 2 * i, 1) for i in range(n + 1)]
    elif kind == "L01":
        rows = ([(n - 2 * i, 0) for i in range(n)]
                + [(n - 2 * j, 1) for j in range(1, n + 1)])
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    for a, eps in rows:
        key = (sign, a, eps)
        table[key] = table.get(key, 0) + 1
    return table


def decompose_weight_table(table):
    """Express a weight table as a sum of irreducible ones.

    Returns {(kind, sign, n): multiplicity} with positive multiplicities.
    Weights split into independent chains by sign and by the parity of the
    k-exponent; within a chain the candidate modules L0(n), L1(n), L01(n)
    give an integer linear system with a unique solution when one exists.
    Raises ValueError("not a module weight table") otherwise.
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

    out = {}
    chains = {(sign, a % 2) for sign, a, _ in clean}
    for sign, parity in sorted(chains):
        rows = {(a, eps): m for (s, a, eps), m in clean.items()
                if s == sign and a % 2 == parity}
        top = max(abs(a) for a, _ in rows)
        ns = range(parity, top + 1, 2)
        columns = {}
        for n in ns:
            for kind in KINDS:
                if kind == "L01" and n == 0:
                    continue
                col = {}
                for (s, a, eps), m in irreducible_weight_table(kind, sign, n).items():
                    col[(a, eps)] = col.get((a, eps), 0) + m
                columns[(kind, n)] = col
        equations = []
        rhs = []
        for a in range(-top, top + 1, 2):
            for eps in (0, 1):
                eq = {var: Fraction(col[(a, eps)])
                      for var, col in columns.items() if (a, eps) in col}
                equations.append(eq)
                rhs.append(Fraction(rows.get((a, eps), 0)))
        try:
            sol = solve_unique(equations, rhs)
        except ValueError:
            raise ValueError("not a module weight table") from None
        for (kind, n), value in sol.items():
            value = Fraction(value)
            if value < 0 or value.denominator != 1:
                raise ValueError("not a module weight table")
            if value:
                out[(kind, sign, n)] = int(value)
    return out
