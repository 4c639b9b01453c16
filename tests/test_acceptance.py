"""Acceptance suite: ten criteria, one verdict line each under pytest -v,
and the exhaustive form of criterion 2 at d = 3.

Every comparison is exact (structural equality of canonical forms); there are
no tolerances anywhere.  Stated runtime budgets are asserted.
"""

import random
import time
from functools import partial
from math import comb

from mirabolic import checks, oracle, pbw, reps, tensor_space
from mirabolic.decorated import (MarkedSequence, count_xi_tensor,
                                 enumerate_xi, matrix_to_sequence,
                                 sequence_to_matrix)
from mirabolic.linalg import rank_of_rows
from mirabolic.qv import RF_ONE, RF_ZERO, quantum_integer, v_power
from mirabolic.schur_algebra import (GeneratorWord, SchurElement, chevalley,
                                     evaluate_words, express_in_generators,
                                     identity_element, left_mul_special,
                                     t22_diagonal, x22_key)


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _apply_specials(letter, x):
    """Left multiplication by a Chevalley generator expanded into special
    basis symbols, one left_mul_special call per symbol."""
    out = SchurElement(x.d)
    for key, c in chevalley(x.d, letter).terms.items():
        out = out + left_mul_special(key, x).scale(c)
    return out


def _word_by_specials(d, letters):
    x = identity_element(d)
    for g in reversed(letters):
        x = _apply_specials(g, x)
    return x


def test_criterion_01_relation_suite():
    t0 = time.monotonic()
    checked = 0
    for d in range(1, 6):
        results = checks.relations(
            checks.linear_side(partial(_word_by_specials, d)))
        assert not checks.failures(results), (d, checks.failures(results))
        checked += len(results)
    elapsed = time.monotonic() - t0
    _verdict(1, checked == 50 and elapsed < 10.0,
             f"{checked} relation instances, d=1..5, {elapsed:.1f}s < 10s")


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    primes = oracle.primes_list(13)
    pairs2 = checks.compatible_pairs(2)
    mismatches = checks.failures(checks.oracle_agrees(pairs2, primes[:5]))
    rng = random.Random(271828)
    sample3 = rng.sample(checks.compatible_pairs(3), 50)
    mismatches += checks.failures(checks.oracle_agrees(sample3, primes[:10]))

    elapsed = time.monotonic() - t0
    _verdict(2, not mismatches and elapsed < 300.0,
             f"{len(pairs2)} pairs at d=2 + 50 pairs at d=3, "
             f"{len(mismatches)} mismatches, {elapsed:.1f}s < 300s")


def test_oracle_equivalence_exhaustive_d3():
    # criterion 2 samples 50 of the d = 3 pairs; this takes all of them.
    # It runs right after criterion 2 and reads the tables that one built.
    pairs = checks.compatible_pairs(3)
    mismatches = checks.failures(
        checks.oracle_agrees(pairs, oracle.primes_list(10)))
    assert len(pairs) == 1168
    assert not mismatches, mismatches[:5]


def test_criterion_03_generation_theorem():
    t0 = time.monotonic()
    total = 0
    for d in (1, 2, 3):
        for lab in enumerate_xi(2, d):
            got = evaluate_words(d, express_in_generators(lab))
            assert got == SchurElement.basis(d, lab), lab
            total += 1
    elapsed = time.monotonic() - t0
    _verdict(3, total == 8 + 27 + 64 and elapsed < 60.0,
             f"{total} labels round-tripped, d<=3, {elapsed:.1f}s < 60s")


def test_criterion_04_decorated_diagonal_lemma():
    checked = 0
    for d in (1, 2, 3, 4):
        for r in range(d):
            assert t22_diagonal(d, r) == \
                SchurElement.basis(d, x22_key(d, r)), (d, r)
            checked += 1
    _verdict(4, checked == 10, f"{checked} (d, r) instances, d<=4")


def test_criterion_05_pbw_basis():
    # (a) the move-out identities inside the normal-form engine
    ok_a = not checks.failures(checks.move_out(5))

    # (b) full rank of the projected monomial family at d = 7.  Right
    # multiplication by k^t only rescales each right-weight component, so the
    # images lie in a space of dimension 171 < 190 at d = 6 (see README);
    # d = 7 is the first quotient with room for all 190 (dimension 209).
    monos = pbw.enumerate_monomials(2, 2, 2)
    rows = [dict(pbw.project_to_schur(7, pbw.PbwElement.monomial(m)).terms)
            for m in monos]
    rank = rank_of_rows(rows)
    ok_b = rank == len(monos)

    # (c) the quotient map intertwines generator multiplication at d = 5
    ok_c = True
    for m in monos:
        x = pbw.PbwElement.monomial(m)
        px = pbw.project_to_schur(5, x)
        for g in pbw.GENERATORS:
            lhs = pbw.project_to_schur(5, pbw.left_mul_generator(g, x))
            if lhs != _apply_specials(g, px):
                ok_c = False

    _verdict(5, ok_a and ok_b and ok_c,
             f"(a) move-out a,b<=5: {'PASS' if ok_a else 'FAIL'}; "
             f"(b) rank {rank}/{len(monos)} at d=7: "
             f"{'PASS' if ok_b else 'FAIL'}; "
             f"(c) projection commutes at d=5: {'PASS' if ok_c else 'FAIL'}")


def test_criterion_06_casimir():
    ok_comm = not checks.failures(checks.casimir_commutators())
    ok_scalar = not checks.failures(checks.casimir_scalars(6))
    scalars = [reps.casimir_scalar_formula(M.kind, M.sign, M.n)
               for M in checks.simple_modules(8)]
    ok_distinct = len(set(scalars)) == len(scalars)

    _verdict(6, ok_comm and ok_scalar and ok_distinct,
             f"commutators zero: {ok_comm}; scalar formulas n<=6: "
             f"{ok_scalar}; {len(scalars)} scalars distinct n<=8: "
             f"{ok_distinct}")


def test_criterion_07_representations():
    ok_rel = not checks.failures(checks.module_relations(6))

    ok_comm = True
    for sign in reps.SIGNS:
        s = RF_ONE if sign == "+" else -RF_ONE
        for n in range(1, 7):
            M = reps.build_module("L01", sign, n)
            for j, (i, eps) in enumerate(M.basis):
                vec = [RF_ZERO] * M.dim
                vec[j] = RF_ONE
                ef = reps.act(GeneratorWord(RF_ONE, ("e", "f")), M, vec)
                fe = reps.act(GeneratorWord(RF_ONE, ("f", "e")), M, vec)
                lam = s * quantum_integer(n - 2 * i)
                if [p - q for p, q in zip(ef, fe)] != \
                        [lam * x for x in vec]:
                    ok_comm = False

    ok_res = True
    for sign in reps.SIGNS:
        s = RF_ONE if sign == "+" else -RF_ONE
        for n in range(2, 7):
            M = reps.build_module("L01", sign, n)
            mk = M.action["k"]
            eigs = sorted((str(mk[j][j]) for j in range(M.dim)))
            want = sorted(str(s * v_power(m - 2 * i))
                          for m in (n, n - 2) for i in range(m + 1))
            if eigs != want:
                ok_res = False

    _verdict(7, ok_rel and ok_comm and ok_res,
             f"matrix relations n<=6: {ok_rel}; (ef-fe) eigenvalues on "
             f"mixing modules: {ok_comm}; restriction split 2<=n<=6: "
             f"{ok_res}")


def test_criterion_08_tensor_weights():
    t0 = time.monotonic()

    def c(n, k):
        return comb(n, k) if 0 <= k <= n else 0

    closed_forms, totals = zip(*(checks.tensor(d)[:2] for d in range(1, 9)))
    ok_wt = not checks.failures(closed_forms)
    ok_tot = not checks.failures(totals)

    ok_inv = True
    for d in range(1, 11):
        for r in range(d + 1):
            if tensor_space.inversion_sum(d, r) != \
                    comb(d, 2) * c(d - 2, r - 1):
                ok_inv = False

    elapsed = time.monotonic() - t0
    _verdict(8, ok_wt and ok_tot and ok_inv and elapsed < 30.0,
             f"closed forms d<=8: {ok_wt}; totals d<=8: {ok_tot}; "
             f"inversion identity d<=10: {ok_inv}; {elapsed:.1f}s < 30s")


def test_criterion_09_conjecture_small_d():
    reports = {d: tensor_space.check_left_module(d) for d in (1, 2, 3)}
    ok = all(r["conjecture_match"] for r in reports.values())
    ok = ok and reports[2]["total"] == 13 and reports[3]["total"] == 38
    d2 = {row["module"]: row["mult"]
          for row in reports[2]["decomposition"]}
    ok = ok and d2 == {"L+(2,1)": 1, "L+(0,1)": 1, "L+(2,01)": 2,
                       "L+(0,0)": 1}
    _verdict(9, ok,
             "d=1,2,3 decompositions match the conjectured table; "
             f"totals {reports[1]['total']}, {reports[2]['total']}, "
             f"{reports[3]['total']}")


def test_criterion_10_combinatorics():
    ok_count = True
    for n in range(1, 5):
        for d in range(1, 7):
            if len(enumerate_xi(n, d, tensor=True)) != \
                    count_xi_tensor(n, d):
                ok_count = False

    ms = MarkedSequence((2, 3, 3, 1, 2), frozenset({2, 4}))
    mat = sequence_to_matrix(ms)
    ok_bij = matrix_to_sequence(mat) == ms and \
        all(mat.a[ms.seq[j] - 1][j] == 1 for j in range(5)) and \
        mat.delta == frozenset({(3, 2), (1, 4)})

    _verdict(10, ok_count and ok_bij,
             f"formula vs enumeration n<=4, d<=6: {ok_count}; "
             f"(23312,{{2,4}}) bijection round-trip: {ok_bij}")
