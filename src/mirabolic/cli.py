"""Batch command-line interface.

Subcommands: mul, normalize, verify, rep, weights, sw-check, oracle, count.
All output is exact (coefficient strings, never decimals) and sorted, so
repeated runs are byte-identical.  Exit status: 0 on success, 1 when a
verification ran and failed, 2 on usage errors.
"""

import argparse
import csv
import json
import random
import sys
from math import comb

from . import oracle as oracle_mod
from . import pbw, reps, tensor_space
from .decorated import (DecoratedMatrix, count_xi_tensor, enumerate_xi,
                        row_col_sums, validate)
from .qv import RF_ONE, RF_ZERO, format_coeff
from .schur_algebra import (SchurElement, apply_letter, eval_letters,
                            mul_general)


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _check_size(size, what):
    """Refuse, before any work, a computation that would build more than
    oracle.SIZE_GUARD items."""
    if size > oracle_mod.SIZE_GUARD:
        raise ValueError(f"{size} {what} exceed the guard "
                         f"{oracle_mod.SIZE_GUARD}")


def _check_tensor_size(d):
    """Refuse a tensor space with more basis vectors than oracle.SIZE_GUARD.
    It has count_xi_tensor(2, d) >= 2^d of them, so a d past the guard's
    bit length is refused without forming that d-bit count."""
    guard = oracle_mod.SIZE_GUARD
    if d >= guard.bit_length() or count_xi_tensor(2, d) > guard:
        raise ValueError(f"the tensor space at d={d} has more than {guard} "
                         f"basis vectors")


def _read_json_arg(text):
    """Accept either a path to a JSON file or an inline JSON object."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verification suites


def _suite_relations(d):
    checks = []
    for name, lhs, rhs in pbw.defining_relations():
        a = SchurElement(d)
        for c, letters in lhs:
            a = a + eval_letters(d, letters).scale(c)
        b = SchurElement(d)
        for c, letters in rhs:
            b = b + eval_letters(d, letters).scale(c)
        checks.append((name, a == b))
    return checks


def _suite_pbw(d):
    checks = []
    for name, lhs, rhs in pbw.defining_relations():
        a = pbw.PbwElement()
        for c, letters in lhs:
            a = a + pbw.normalize_word(letters).scale(c)
        b = pbw.PbwElement()
        for c, letters in rhs:
            b = b + pbw.normalize_word(letters).scale(c)
        checks.append(("normal form: " + name, a == b))
    for side in ("e", "f"):
        for a_exp in range(4):
            for b_exp in range(4):
                if a_exp + b_exp == 0:
                    continue
                word = ((side,) * a_exp + ("l",) + (side,) * b_exp)
                ok = pbw.normalize_word(word) == pbw.move_out(side, a_exp, b_exp)
                checks.append((f"move-out {side} a={a_exp} b={b_exp}", ok))
    rng = random.Random(20240601)
    for i in range(5):
        word = tuple(rng.choice(pbw.GENERATORS) for _ in range(rng.randint(1, 5)))
        x = pbw.normalize_word(word)
        ok = pbw.antiautomorphism(pbw.antiautomorphism(x)) == x
        checks.append((f"antiautomorphism involution #{i + 1}", ok))
    monos = pbw.enumerate_monomials(2, 2, 1)
    hom_ok = True
    for mono in monos:
        x = pbw.PbwElement.monomial(mono)
        px = pbw.project_to_schur(d, x)
        for g in pbw.GENERATORS:
            if pbw.project_to_schur(d, pbw.left_mul_generator(g, x)) != \
                    apply_letter(g, px):
                hom_ok = False
    checks.append((f"quotient map is a homomorphism at d={d}", hom_ok))
    return checks


def _suite_casimir(n_max):
    checks = []
    c = pbw.casimir_element()
    for g in pbw.GENERATORS:
        ok = pbw.left_mul_generator(g, c) == pbw.multiply(c, pbw.generator(g))
        checks.append((f"[casimir, {g}] = 0", ok))
    for sign in reps.SIGNS:
        for kind in reps.KINDS:
            lo = 1 if kind == "L01" else 0
            for n in range(lo, n_max + 1):
                M = reps.build_module(kind, sign, n)
                ok = reps.casimir_scalar(M) == \
                    reps.casimir_scalar_formula(kind, sign, n)
                checks.append((f"casimir scalar on {M.name}", ok))
    return checks


def _suite_reps(n_max):
    checks = []
    rels = pbw.defining_relations()
    for sign in reps.SIGNS:
        for kind in reps.KINDS:
            lo = 1 if kind == "L01" else 0
            for n in range(lo, n_max + 1):
                M = reps.build_module(kind, sign, n)
                bad = []
                for name, lhs, rhs in rels:
                    for j in range(M.dim):
                        unit = [RF_ZERO] * M.dim
                        unit[j] = RF_ONE
                        a = [RF_ZERO] * M.dim
                        for c, w in lhs:
                            o = reps.act(reps.GeneratorWord(c, w), M, unit)
                            a = [p + q for p, q in zip(a, o)]
                        b = [RF_ZERO] * M.dim
                        for c, w in rhs:
                            o = reps.act(reps.GeneratorWord(c, w), M, unit)
                            b = [p + q for p, q in zip(b, o)]
                        if a != b:
                            bad.append(name)
                            break
                checks.append((f"relations on {M.name}", not bad))
    return checks


def _suite_tensor(d_max):
    checks = []
    for d in range(1, d_max + 1):
        w = tensor_space.weight_multiplicities(d)
        ok = all(w[(d - 2 * r, eps)] == tensor_space.rhs_closed_form(d, r, eps)
                 for r in range(d + 1) for eps in (0, 1))
        checks.append((f"weight closed forms at d={d}", ok))
        ok = sum(w.values()) == count_xi_tensor(2, d)
        checks.append((f"total dimension at d={d}", ok))
        if d <= 4:
            idem, comm = True, True
            for label in enumerate_xi(2, d, tensor=True):
                x = tensor_space.TensorElement.basis(d, label)
                lx = tensor_space.ell_action(x)
                if tensor_space.ell_action(lx) != lx:
                    idem = False
                if tensor_space.k_action(lx) != \
                        tensor_space.ell_action(tensor_space.k_action(x)):
                    comm = False
            checks.append((f"idempotent action at d={d}", idem))
            checks.append((f"k and l actions commute at d={d}", comm))
    return checks


def _suite_oracle(d, pairs):
    primes = oracle_mod.primes_list(d * d + 1)
    labels = enumerate_xi(2, d)
    rng = random.Random(97 + d)
    compat = [(a, b) for a in labels for b in labels
              if row_col_sums(a)[1] == row_col_sums(b)[0]]
    sample = rng.sample(compat, min(pairs, len(compat)))
    checks = []
    for left, right in sample:
        got = oracle_mod.structure_constants(left, right, primes)
        want = mul_general(SchurElement.basis(d, left),
                           SchurElement.basis(d, right))
        checks.append((f"{left} * {right}", got == want))
    return checks


_SUITES = {
    "relations": lambda args: _suite_relations(args.d if args.d else 3),
    "pbw": lambda args: _suite_pbw(args.d if args.d else 3),
    "casimir": lambda args: _suite_casimir(args.n if args.n else 4),
    "reps": lambda args: _suite_reps(args.n if args.n else 4),
    "tensor": lambda args: _suite_tensor(args.d if args.d else 4),
    "oracle": lambda args: _suite_oracle(args.d if args.d else 2,
                                         args.pairs),
}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_mul(args):
    x = SchurElement.from_json(_read_json_arg(args.lhs))
    y = SchurElement.from_json(_read_json_arg(args.rhs))
    if args.d is not None and (x.d != args.d or y.d != args.d):
        raise ValueError(f"elements have d={x.d}, d={y.d}, expected {args.d}")
    _emit(mul_general(x, y).to_json())
    return 0


def _cmd_normalize(args):
    coeff, letters = pbw.parse_word(args.word)
    _emit(pbw.normalize_word(letters).scale(coeff).to_json())
    return 0


def _cmd_verify(args):
    checks = _SUITES[args.suite](args)
    failures = [name for name, ok in checks if not ok]
    out = {"passed": len(checks) - len(failures), "failed": len(failures)}
    if failures:
        out["failures"] = failures
    _emit(out)
    return 1 if failures else 0


def _weight_rows(table):
    rows = [{"sign": sign, "a": a, "eps": eps, "mult": m}
            for (sign, a, eps), m in table.items()]
    rows.sort(key=lambda r: (r["sign"], -r["a"], r["eps"]))
    return rows


def _cmd_rep(args):
    kind, sign, n = reps.parse_module_name(args.module)
    dim = 2 * n if kind == "L01" else n + 1
    # build_module allocates five dense dim x dim generator matrices
    _check_size(5 * dim * dim, "matrix entries")
    M = reps.build_module(kind, sign, n)
    out = {"module": M.name, "dim": M.dim,
           "weights": _weight_rows(reps.weight_table(M))}
    if args.casimir:
        out["casimir"] = format_coeff(reps.casimir_scalar(M))
    if args.matrix:
        coeff, letters = pbw.parse_word(args.matrix)
        mat = reps.action_matrix(reps.GeneratorWord(coeff, letters), M)
        out["matrix"] = {"word": pbw.format_word(letters),
                         "rows": [[format_coeff(c) for c in row] for row in mat]}
    _emit(out)
    return 0


def _cmd_weights(args):
    _check_tensor_size(args.d)
    table = tensor_space.weight_multiplicities(args.d)
    rows = [{"a": a, "eps": eps, "mult": m,
             "closed_form": tensor_space.rhs_closed_form(
                 args.d, (args.d - a) // 2, eps)}
            for (a, eps), m in table.items()]
    rows.sort(key=lambda r: (-r["a"], r["eps"]))
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["a", "eps", "mult", "closed_form"])
        for r in rows:
            w.writerow([r["a"], r["eps"], r["mult"], r["closed_form"]])
    else:
        _emit({"d": args.d, "rows": rows})
    return 0


def _cmd_sw_check(args):
    _check_tensor_size(args.d)
    report = tensor_space.check_left_module(args.d)
    _emit({"weights": report["weights"],
           "decomposition": report["decomposition"],
           "conjecture_match": report["conjecture_match"]})
    return 0 if report["conjecture_match"] else 1


def _parse_label(obj):
    lab = DecoratedMatrix.from_json(obj)
    ok, why = validate(lab)
    if not ok:
        raise ValueError(f"invalid label: {why}")
    return lab


def _cmd_oracle(args):
    primes = sorted({int(p) for p in args.primes.split(",")})
    left = _parse_label(_read_json_arg(args.lhs))
    right = _parse_label(_read_json_arg(args.rhs))
    if left.d != args.d or right.d != args.d:
        raise ValueError(f"labels have d={left.d}, d={right.d}, "
                         f"expected {args.d}")
    product = oracle_mod.structure_constants(left, right, primes)

    rows = []
    ro_l, co_l = row_col_sums(left)
    ro_r, co_r = row_col_sums(right)
    if co_l == ro_r:
        outs = oracle_mod._candidate_outputs(args.d, ro_l, co_r)
        for out in sorted(outs, key=lambda lab: lab.sort_key()):
            for p in primes:
                n = oracle_mod.convolution_count(left, right, out, p)
                rows.append((str(out), p, n))

    if args.counts:
        with open(args.counts, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "p", "count"])
            w.writerows(rows)
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["label", "p", "count"])
        w.writerows(rows)
    else:
        _emit(product.to_json())
    return 0


def _cmd_count(args):
    if args.n < 1 or args.d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={args.n}, d={args.d}")
    if args.tensor:
        print(count_xi_tensor(args.n, args.d))
        return 0
    # enumerate_xi walks every n x n matrix with entry sum d
    _check_size(comb(args.d + args.n * args.n - 1, args.n * args.n - 1),
                "matrices to enumerate")
    print(len(enumerate_xi(args.n, args.d)))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mirabolic",
        description="Exact computations in the rank-two mirabolic quantum "
                    "Schur algebra, its abstract cover, modules, tensor "
                    "space, and a finite-field counting oracle.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="product of two algebra elements")
    p.add_argument("--lhs", required=True, help="JSON file or inline JSON")
    p.add_argument("--rhs", required=True, help="JSON file or inline JSON")
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("normalize", help="normal form of a generator word")
    p.add_argument("--word", required=True,
                   help="e.g. 'l e l' or '(v^-1) e^2 l f k^-2'")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--pairs", type=int, default=20,
                   help="sample size for the oracle suite")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rep", help="inspect a simple module")
    p.add_argument("--module", required=True, help="e.g. 'L+(2,01)'")
    p.add_argument("--casimir", action="store_true")
    p.add_argument("--matrix", default=None,
                   help="word whose action matrix to print")
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("weights", help="tensor-space weight multiplicities")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("sw-check", help="tensor decomposition report")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_sw_check)

    p = sub.add_parser("oracle", help="finite-field product interpolation")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--lhs", required=True, help="label JSON file or inline")
    p.add_argument("--rhs", required=True, help="label JSON file or inline")
    p.add_argument("--counts", default=None,
                   help="write per-prime counts CSV to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("count", help="cardinality of a label set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tensor", action="store_true")
    p.set_defaults(func=_cmd_count)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
