"""Batch command-line interface.

Subcommands: mul, normalize, verify, rep, weights, sw-check, oracle, count.
All output is exact (coefficient strings, never decimals) and sorted, so
repeated runs are byte-identical.  Exit status: 0 on success, 1 when a
verification ran and failed, 2 on usage errors.
"""

import argparse
import csv
import json
import sys
from math import comb

from . import checks
from . import oracle as oracle_mod
from . import pbw, reps, tensor_space
from .decorated import count_xi_tensor, enumerate_xi, row_col_sums
from .qv import format_coeff
from .schur_algebra import SchurElement, mul_general


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


def _check_module(dim):
    """Refuse a module of dimension dim by 5 dim^2 entries: `rep --matrix`,
    `rep --casimir` and `verify --suite reps` build dense dim x dim
    matrices through action_matrix."""
    _check_size(5 * dim * dim, "matrix entries")


def _read_json_arg(text):
    """Accept either a path to a JSON file or an inline JSON object."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, encoding="utf-8") as fh:
        return json.load(fh)


def _check_modules(n_max):
    """Guard the simple modules with n <= n_max by the largest of them."""
    _check_module(max(2 * n_max, n_max + 1))


# verify --suite: (checks, the size option they take, its default, the
# guard that refuses a size before any work; the oracle suite refuses its
# own through oracle.interpolation_primes)
_SUITES = {
    "relations": (checks.relations_suite, "d", 3, None),
    "pbw": (checks.pbw_suite, "d", 3, None),
    "casimir": (checks.casimir_suite, "n", 4, _check_modules),
    "reps": (checks.module_relations, "n", 4, _check_modules),
    "tensor": (checks.tensor_suite, "d", 4, _check_tensor_size),
    "oracle": (checks.oracle_suite, "d", 2, None),
}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_mul(args):
    x = SchurElement.from_json(_read_json_arg(args.lhs))
    y = SchurElement.from_json(_read_json_arg(args.rhs))
    if args.d is not None and (x.d != args.d or y.d != args.d):
        raise ValueError(f"elements have d={x.d}, d={y.d}, expected {args.d}")
    # a product may run through all of Xi_{2,d}, which has (d+1)^3 labels
    _check_size((x.d + 1) ** 3, "basis labels")
    _emit(mul_general(x, y).to_json())
    return 0


def _cmd_normalize(args):
    coeff, letters = pbw.parse_word(args.word)
    _emit(pbw.normalize_word(letters).scale(coeff).to_json())
    return 0


def _cmd_verify(args):
    if (args.d is not None and args.d < 1) or \
            (args.n is not None and args.n < 0) or args.pairs < 1:
        raise ValueError(f"need d >= 1, n >= 0 and pairs >= 1, got d={args.d}, "
                         f"n={args.n}, pairs={args.pairs}")
    suite, option, default, guard = _SUITES[args.suite]
    size = getattr(args, option)
    size = default if size is None else size
    if guard:
        guard(size)
    results = (suite(size, args.pairs) if args.suite == "oracle"
               else suite(size))
    failures = checks.failures(results)
    out = {"passed": len(results) - len(failures), "failed": len(failures)}
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
    _check_module(2 * n if kind == "L01" else n + 1)
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
        w = csv.DictWriter(sys.stdout, ["a", "eps", "mult", "closed_form"])
        w.writeheader()
        w.writerows(rows)
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


def _cmd_oracle(args):
    primes = sorted({int(p) for p in args.primes.split(",")})
    left = SchurElement.read_label(_read_json_arg(args.lhs), args.d)
    right = SchurElement.read_label(_read_json_arg(args.rhs), args.d)
    product = oracle_mod.structure_constants(left, right, primes)
    if args.format == "csv" or args.counts:
        # a row per candidate output and supplied prime, so these tables are
        # counted at every prime and not only at the interpolation nodes
        rows = [("label", "p", "count")]
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
                csv.writer(fh).writerows(rows)
        if args.format == "csv":
            csv.writer(sys.stdout).writerows(rows)
            return 0
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
