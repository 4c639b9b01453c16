"""Verification checks, written once for `mirabolic verify` and the tests.

Each returns a list of (name, ok) pairs, sized by its arguments; the suites
at the end are what `verify --suite` runs at the sizes it is given.
"""

import random
from functools import partial

from . import pbw, reps, tensor_space
from .decorated import count_xi_tensor, enumerate_xi, row_col_sums
from .linalg import linear_sum
from .schur_algebra import SchurElement, apply_letter, eval_letters, mul_general


def failures(checks):
    """Names of the failed checks, in order."""
    return [name for name, ok in checks if not ok]


def linear_side(word):
    """Evaluate a relation side, a tuple of (coefficient, letters) pairs,
    as sum c * word(letters) for a word evaluator returning a Combination."""
    return lambda side: linear_sum((c, word(letters)) for c, letters in side)


def relations(side, prefix=""):
    """The ten defining relations, each side evaluated by side(terms)."""
    return [(prefix + name, side(lhs) == side(rhs))
            for name, lhs, rhs in pbw.defining_relations()]


def move_out(a_max):
    """Normal forms of e^a l e^b and f^a l f^b against move_out, a, b <= a_max."""
    return [(f"move-out {side} a={a} b={b}",
             pbw.normalize_word((side,) * a + ("l",) + (side,) * b)
             == pbw.move_out(side, a, b))
            for side in ("e", "f") for a in range(a_max + 1)
            for b in range(a_max + 1) if a + b]


def quotient_homomorphism(d, monos):
    """Projection to the quotient at d intertwines left multiplication by
    every generator, on each of the given PBW monomials."""
    ok = True
    for x in map(pbw.PbwElement.monomial, monos):
        px = pbw.project_to_schur(d, x)
        ok = ok and all(pbw.project_to_schur(d, pbw.left_mul_generator(g, x))
                        == apply_letter(g, px) for g in pbw.GENERATORS)
    return [(f"quotient map is a homomorphism at d={d}", ok)]


def simple_modules(n_max):
    """Every simple module with n <= n_max, built one at a time."""
    for sign in reps.SIGNS:
        for kind in reps.KINDS:
            for n in range(1 if kind == "L01" else 0, n_max + 1):
                yield reps.build_module(kind, sign, n)


def casimir_commutators():
    c = pbw.casimir_element()
    return [(f"[casimir, {g}] = 0",
             pbw.left_mul_generator(g, c) == pbw.multiply(c, pbw.generator(g)))
            for g in pbw.GENERATORS]


def casimir_scalars(n_max):
    return [(f"casimir scalar on {M.name}", reps.casimir_scalar(M)
             == reps.casimir_scalar_formula(M.kind, M.sign, M.n))
            for M in simple_modules(n_max)]


def module_relations(n_max):
    """The ten relations as matrix identities on each simple with n <= n_max."""
    return [(f"relations on {M.name}",
             not failures(relations(linear_side(partial(reps.word_matrix, M)))))
            for M in simple_modules(n_max)]


def tensor(d):
    """The tensor space at d: weight multiplicities against their closed
    forms, their total against the basis count and, for d <= 4, l acting
    idempotently and commuting with k on every basis vector."""
    w = tensor_space.weight_multiplicities(d)
    ok = all(w[(d - 2 * r, eps)] == tensor_space.rhs_closed_form(d, r, eps)
             for r in range(d + 1) for eps in (0, 1))
    checks = [(f"weight closed forms at d={d}", ok),
              (f"total dimension at d={d}",
               sum(w.values()) == count_xi_tensor(2, d))]
    if d > 4:
        return checks
    ell, k = tensor_space.ell_action, tensor_space.k_action
    xs = [tensor_space.TensorElement.basis(d, label)
          for label in enumerate_xi(2, d, tensor=True)]
    lxs = [ell(x) for x in xs]
    return checks + [
        (f"idempotent action at d={d}", all(ell(y) == y for y in lxs)),
        (f"k and l actions commute at d={d}",
         all(k(y) == ell(k(x)) for x, y in zip(xs, lxs)))]


def compatible_pairs(d):
    """Every pair of basis labels at d whose product can be nonzero."""
    labels = enumerate_xi(2, d)
    return [(a, b) for a in labels for b in labels
            if row_col_sums(a)[1] == row_col_sums(b)[0]]


def oracle_agrees(pairs, primes):
    """Interpolated point counts against the engine's product, per pair.
    The oracle (and numpy with it) is imported only here and in
    `oracle_suite`, so the engine's checks never load it."""
    from . import oracle
    return [(f"{left} * {right}",
             oracle.structure_constants(left, right, primes)
             == mul_general(SchurElement.basis(left.d, left),
                            SchurElement.basis(right.d, right)))
            for left, right in pairs]


# ---------------------------------------------------------------------------
# the suites of `mirabolic verify`


def relations_suite(d):
    return relations(linear_side(partial(eval_letters, d)))


def pbw_suite(d):
    rng = random.Random(20240601)
    words = [tuple(rng.choice(pbw.GENERATORS) for _ in range(rng.randint(1, 5)))
             for _ in range(5)]
    involution = [(f"antiautomorphism involution #{i}",
                   pbw.antiautomorphism(pbw.antiautomorphism(x)) == x)
                  for i, x in enumerate(map(pbw.normalize_word, words), 1)]
    return (relations(linear_side(pbw.normalize_word), "normal form: ")
            + move_out(3) + involution
            + quotient_homomorphism(d, pbw.enumerate_monomials(2, 2, 1)))


def casimir_suite(n_max):
    return casimir_commutators() + casimir_scalars(n_max)


def tensor_suite(d_max):
    return [check for d in range(1, d_max + 1) for check in tensor(d)]


def oracle_suite(d, pairs):
    """Engine against oracle on a seeded sample of the pairs at d, with
    the pool of d^2 + 1 primes of `oracle.interpolation_primes` (each
    entry is counted at the smallest D + 2 of them, D its degree bound),
    refusing a d whose primes exceed the size guard before any pair is
    listed."""
    from . import oracle
    primes = oracle.interpolation_primes(d)
    compat = compatible_pairs(d)
    sample = random.Random(97 + d).sample(compat, min(pairs, len(compat)))
    return oracle_agrees(sample, primes)
