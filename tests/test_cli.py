"""Command-line interface: contracts, exit codes, determinism."""

import csv
import hashlib
import io
import json
import runpy
import subprocess
import sys
import time

import pytest

from mirabolic import oracle, pbw
from mirabolic.cli import main
from mirabolic.qv import RF_ONE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--d", "3")
    assert code == 0
    assert json.loads(out) == {"passed": 10, "failed": 0}


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--word", "l e l")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"terms": [{"monomial": "l e", "coeff": "1"}]}


def test_normalize_with_scalar(capsys):
    code, out, _ = run(capsys, "normalize", "--word", "(v^-1) e^2 l f k^-2")
    assert code == 0
    obj = json.loads(out)
    assert all(t["coeff"] for t in obj["terms"])


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--d", "5", "--tensor")
    assert code == 0
    assert out.strip() == "2358"
    code, out, _ = run(capsys, "count", "--n", "2", "--d", "2")
    assert code == 0
    assert out.strip() == "27"


@pytest.mark.parametrize("n, d", [("0", "3"), ("2", "-1")])
def test_count_rejects_invalid_sizes(capsys, n, d):
    for extra in ((), ("--tensor",)):
        code, out, err = run(capsys, "count", "--n", n, "--d", d, *extra)
        assert code == 2 and "error:" in err and not out


def test_count_refuses_huge_enumerations(capsys):
    # C(45, 15) compositions at n = 4, d = 30; the guard answers at once
    t0 = time.monotonic()
    code, out, err = run(capsys, "count", "--n", "4", "--d", "30")
    assert code == 2 and "error:" in err and not out
    assert time.monotonic() - t0 < 1.0
    code, out, _ = run(capsys, "count", "--n", "4", "--d", "30", "--tensor")
    assert code == 0 and int(out) > 0


def test_mul(tmp_path, capsys):
    x = {"d": 2, "terms": [{"label": {"A": [[1, 0], [0, 1]], "delta": []},
                            "coeff": "1"}]}
    f = tmp_path / "x.json"
    f.write_text(json.dumps(x))
    code, out, _ = run(capsys, "mul", "--lhs", str(f), "--rhs", str(f))
    assert code == 0
    assert json.loads(out) == x
    # inline JSON is accepted too
    code, out2, _ = run(capsys, "mul", "--lhs", json.dumps(x),
                        "--rhs", json.dumps(x))
    assert code == 0 and out2 == out


def test_mul_missing_file(capsys):
    code, _, err = run(capsys, "mul", "--lhs", "/nonexistent.json",
                       "--rhs", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def element(d, a, delta=()):
    return json.dumps({"d": d, "terms": [
        {"label": {"A": a, "delta": [list(p) for p in delta]}, "coeff": "1"}]})


@pytest.mark.parametrize("lhs", [
    element(2, [[3, 0], [0, -1]]),
    element(2, [[2, 0], [0, 0]], [(2, 2)]),
    element(2, [[1, 1], [0, 1]]),
    element(2, [[1, 0, 0], [0, 1, 0]]),
], ids=["negative-entry", "mark-on-zero", "entry-sum-not-d", "not-2x2"])
def test_mul_rejects_invalid_labels(capsys, lhs):
    one = element(2, [[1, 0], [0, 1]])
    code, out, err = run(capsys, "mul", "--lhs", lhs, "--rhs", one)
    assert code == 2 and "error:" in err and not out
    code, out, err = run(capsys, "mul", "--lhs", one, "--rhs", lhs)
    assert code == 2 and "error:" in err and not out


def test_rep(capsys):
    code, out, _ = run(capsys, "rep", "--module", "L+(2,01)", "--casimir")
    assert code == 0
    obj = json.loads(out)
    assert obj["module"] == "L+(2,01)"
    assert obj["dim"] == 4
    assert {tuple(sorted(r.items())) for r in obj["weights"]} == {
        tuple(sorted({"sign": "+", "a": 2, "eps": 0, "mult": 1}.items())),
        tuple(sorted({"sign": "+", "a": 0, "eps": 0, "mult": 1}.items())),
        tuple(sorted({"sign": "+", "a": 0, "eps": 1, "mult": 1}.items())),
        tuple(sorted({"sign": "+", "a": -2, "eps": 1, "mult": 1}.items())),
    }
    assert obj["casimir"] == "(v^3+v^-1)/(v^2-1)"


def test_rep_bad_name(capsys):
    code, _, err = run(capsys, "rep", "--module", "X(1,0)")
    assert code == 2 and "error:" in err


def test_weights_json_and_csv(capsys):
    code, out, _ = run(capsys, "weights", "--d", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 3
    row = next(r for r in obj["rows"] if r["a"] == 1 and r["eps"] == 1)
    assert row["mult"] == 6 and row["closed_form"] == 6
    code, out, _ = run(capsys, "weights", "--d", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,eps,mult,closed_form"
    assert len(lines) == 7


def test_sw_check(capsys):
    code, out, _ = run(capsys, "sw-check", "--d", "2")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"weights", "decomposition", "conjecture_match"}
    assert obj["conjecture_match"] is True
    mods = {r["module"]: r["mult"] for r in obj["decomposition"]}
    assert mods == {"L+(2,1)": 1, "L+(0,1)": 1, "L+(2,01)": 2, "L+(0,0)": 1}


def test_oracle_subcommand(tmp_path, capsys):
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(json.dumps({"A": [[1, 0], [0, 1]], "delta": [[1, 1]]}))
    rhs.write_text(json.dumps({"A": [[1, 0], [0, 1]], "delta": [[1, 1]]}))
    counts = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "oracle", "--d", "2",
                       "--primes", "2,3,5,7,11",
                       "--lhs", str(lhs), "--rhs", str(rhs),
                       "--counts", str(counts))
    assert code == 0
    obj = json.loads(out)
    coeffs = {json.dumps(t["label"], sort_keys=True): t["coeff"]
              for t in obj["terms"]}
    assert set(coeffs.values()) == {"v^2-2", "v^2-1"}
    lines = counts.read_text().strip().splitlines()
    assert lines[0] == "label,p,count"
    assert all(line.count(",") >= 2 for line in lines[1:])


def test_oracle_needs_enough_primes(capsys):
    code, _, err = run(capsys, "oracle", "--d", "2", "--primes", "2,3",
                       "--lhs", '{"A": [[1,0],[0,1]], "delta": []}',
                       "--rhs", '{"A": [[1,0],[0,1]], "delta": []}')
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("primes", ["2,3,5,7,,11", "2,3,5,7,11,", "2,x,5"])
def test_oracle_refuses_a_bad_primes_item(capsys, primes):
    x = '{"A": [[1,0],[0,1]], "delta": []}'
    code, out, err = run(capsys, "oracle", "--d", "2", "--primes", primes,
                         "--lhs", x, "--rhs", x)
    assert code == 2 and not out
    assert err.startswith("error: --primes") and "int()" not in err


@pytest.mark.parametrize("word", ["l e^1200 l f", "e l f^1200"])
def test_normalize_long_blocks(capsys, word):
    # blocks of 1,200 letters once overflowed the interpreter's stack
    t0 = time.monotonic()
    code, out, err = run(capsys, "normalize", "--word", word)
    assert code == 0 and not err and json.loads(out)["terms"]
    assert time.monotonic() - t0 < 2.0


@pytest.mark.parametrize("start", [2, 37])
def test_oracle_refuses_oversize_primes_at_once(capsys, start):
    # 17 primes from 2 end at 59, and 59^4 > SIZE_GUARD; from 37 up
    # already the smallest is too large
    primes = oracle.primes_list(17, start)
    x = '{"A": [[1,1],[1,1]], "delta": []}'
    t0 = time.monotonic()
    code, out, err = run(capsys, "oracle", "--d", "4", "--primes",
                         ",".join(map(str, primes)), "--lhs", x, "--rhs", x)
    assert code == 2 and "error:" in err and not out
    assert time.monotonic() - t0 < 1.0


def test_deterministic_output(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "sw-check", "--d", "1")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mirabolic", "count",
                           "--n", "2", "--d", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"


def test_module_entry_point_in_process(capsys, monkeypatch):
    # the same entry point, run in this process rather than a child one
    monkeypatch.setattr(sys, "argv",
                        ["mirabolic", "count", "--n", "2", "--d", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("mirabolic", run_name="__main__")
    assert exc.value.code == 0 and capsys.readouterr().out.strip() == "8"


# a child running the entry point and then writing its own peak RSS (KiB).
# Linux carries the parent's peak into a child's ru_maxrss across fork and
# exec (a child of this test process read 126 MiB), so the child reads the
# high-water mark of its own address space, VmHWM, instead
_PEAK_RSS_CHILD = """
import runpy, sys
sys.argv = ["mirabolic"] + sys.argv[1:]
try:
    runpy.run_module("mirabolic", run_name="__main__")
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        print(next(line.split()[1] for line in fh
                   if line.startswith("VmHWM:")), file=sys.stderr)
"""


def test_long_k_block_normal_form_memory():
    # k^200000 e f passes 200,000 powers of k through every PBW memo; with
    # the product memo unbounded the process peaked at 353-358 MiB
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, "normalize",
                           "--word", "k^200000 e f"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stderr.split()[-1])
    assert peak_kib < 100 * 1024, peak_kib
    # sha256 of the stdout, recorded while the memo was unbounded
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "7b348a4c3483d6ae764bdb0326592a384f9a3de2da21a7499c5ae8dde2b05660"


def test_sw_check_block_memo_memory():
    # sw-check --d 12 reads each of its 4,096 blocks once through the block
    # memo; it peaks at about 35 MiB, and at 92-93 MiB with the memo's bound
    # raised to FOLD_MEMO_TERMS labels
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, "sw-check",
                           "--d", "12"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stderr.split()[-1])
    assert peak_kib < 60 * 1024, peak_kib
    # sha256 of the stdout, recorded before the blocks were memoised
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "eac8390cc91dd7ae88d310d911311bb4f829b65474e3c72d9478fcc0d70a687d"


X1 = json.dumps({"A": [[1, 0], [0, 1]], "delta": [[1, 1]]})


def test_oracle_csv_on_stdout(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "oracle", "--d", "2", "--primes", "2,3,5,7,11",
                       "--lhs", X1, "--rhs", X1, "--format", "csv",
                       "--counts", str(counts))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["label", "p", "count"] and len(rows) == 36
    with open(counts, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == rows
    # the 35 counts of the README's oracle example, 7 labels at 5 primes
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f188f7d10d0a45f6592905abcb00d5499213115f54e965fcd021107f85722260"
MUL_LHS = json.dumps({"d": 2, "terms": [
    {"label": {"A": [[0, 1], [1, 0]], "delta": [[1, 2], [2, 1]]}, "coeff": "v"},
    {"label": {"A": [[1, 0], [1, 0]], "delta": [[2, 1]]}, "coeff": "v^2-1"}]})
MUL_RHS = json.dumps({"d": 2, "terms": [
    {"label": {"A": [[1, 0], [0, 1]], "delta": [[2, 2]]}, "coeff": "1"},
    {"label": {"A": [[2, 0], [0, 0]], "delta": [[1, 1]]},
     "coeff": "(v)/(v^2+1)"}]})

# sha256 of the stdout of the README's CLI examples, recorded before the
# three element types were merged into one combination type
GOLDEN = [
    (("verify", "--suite", "relations", "--d", "3"),
     "2c6a2e1100cc83e771f932fd3195fafb558ff6b56201a82a8dc0fd29fcc0791a"),
    (("normalize", "--word", "l e f l"),
     "bde75639877f27ce6c1e9db3543bac57a5db24ee09b9fadcaec34438092f0c4c"),
    (("normalize", "--word", "(v^-1) e^2 l f k^-2"),
     "1476c1e778aa0e95b5d37ceae6d1ad69c100d08032dce26822dc9238c8f02f84"),
    (("mul", "--d", "2", "--lhs", MUL_LHS, "--rhs", MUL_RHS),
     "aef5dc7d026d6916e366e04dfc421b84eb7dc5d516665ba3cc7d71f80c31c1aa"),
    (("rep", "--module", "L+(2,01)", "--casimir", "--matrix", "e f"),
     "e63fb5f194729bebd9a0c85f7ef62b33a5491291dc6152a02782dcceace28343"),
    (("weights", "--d", "3", "--format", "csv"),
     "556e3dcda18b988806a5cfd73a92d33d2ed5f7e36e7e242216c5e61b67f39b5b"),
    (("sw-check", "--d", "2"),
     "6455c3e4aa22cf0f45ec48edb55fb96176e2865794f75f173155640baa27b91b"),
    (("oracle", "--d", "2", "--primes", "2,3,5,7,11", "--lhs", X1,
      "--rhs", X1),
     "4d615f078bc2417c046fa97acaeb9b021eaa7f42b192f67825f931fd5571d839"),
    (("count", "--n", "2", "--d", "3"),
     "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc"),
    (("count", "--n", "3", "--d", "5", "--tensor"),
     "d05ab985e497f28c5cf571e803543b40c869df1887d38d0442e35b214ffa8a9e"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join(a[:3]) for a, _ in GOLDEN])
def test_readme_examples_are_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("weights", "--d", "40"),
    ("sw-check", "--d", "40"),
    ("rep", "--module", "L+(100000,0)"),
])
def test_huge_sizes_are_refused_at_once(capsys, argv):
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 2 and "error:" in err and not out
    assert time.monotonic() - t0 < 1.0


# sha256 of the stdout of every verify suite at its defaults and at one
# larger size, recorded before the checks moved into mirabolic.checks
VERIFY_GOLDEN = [
    (("relations",),
     "2c6a2e1100cc83e771f932fd3195fafb558ff6b56201a82a8dc0fd29fcc0791a"),
    (("pbw",),
     "480b059fb3ebae4fd96678f56cac163d23ad50aa1ddf32cb0a6a5ab53ffb6253"),
    (("casimir",),
     "f6e9a5f6894db973bbee4d273ea8dba37fb6212cd64358bb81119913ed437827"),
    (("reps",),
     "ed773e25f3ac5eb665d90d0f8068910d614c13ef89c0990ad008284ca020a2cd"),
    (("tensor",),
     "ffabd70d115364d8bc64c7f5e860d96b237de37dde1134849918b2a23b81b6fb"),
    (("oracle",),
     "1cac9634f14bf9af0ee7fd24358c26bc6c6ea35e2d97cdaf46e2660562229482"),
    (("relations", "--d", "5"),
     "2c6a2e1100cc83e771f932fd3195fafb558ff6b56201a82a8dc0fd29fcc0791a"),
    (("pbw", "--d", "4"),
     "480b059fb3ebae4fd96678f56cac163d23ad50aa1ddf32cb0a6a5ab53ffb6253"),
    (("casimir", "--n", "6"),
     "dcfa9c628726be6eaf63fdec58dc81bb0ac271ed23096d9845a066bc4a989a13"),
    (("reps", "--n", "6"),
     "9de89eb6a80c5d2ffb02775ccc4a4f9d8014ffa75672c4f87d9b0a45420475e8"),
    (("tensor", "--d", "5"),
     "e466117993854df8372cbce926517a6be23f9b870744f1fff4acd7c039e0a6b5"),
    (("oracle", "--d", "2", "--pairs", "10"),
     "2c6a2e1100cc83e771f932fd3195fafb558ff6b56201a82a8dc0fd29fcc0791a"),
]


@pytest.mark.parametrize("argv, digest", VERIFY_GOLDEN,
                         ids=[" ".join(a) for a, _ in VERIFY_GOLDEN])
def test_verify_suites_are_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, "verify", "--suite", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_lists_failed_checks(capsys, monkeypatch):
    relations = pbw.defining_relations()
    relations.insert(3, ("e = f", ((RF_ONE, ("e",)),), ((RF_ONE, ("f",)),)))
    relations.append(("l = 1", ((RF_ONE, ("l",)),), ((RF_ONE, ()),)))
    monkeypatch.setattr(pbw, "defining_relations", lambda: relations)
    code, out, _ = run(capsys, "verify", "--suite", "relations")
    assert code == 1
    assert json.loads(out) == {"passed": 10, "failed": 2,
                               "failures": ["e = f", "l = 1"]}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ffd660d2d3ad4ca7a5c3032a93422e23e0f8f975b964eefebd25b3a432833ff9"
    code, out, _ = run(capsys, "verify", "--suite", "pbw")
    assert code == 1
    assert json.loads(out)["failures"] == ["normal form: e = f",
                                           "normal form: l = 1"]
    code, out, _ = run(capsys, "verify", "--suite", "reps", "--n", "1")
    assert code == 1
    assert json.loads(out) == {"passed": 2, "failed": 8, "failures": [
        f"relations on L{s}({n},{k})" for s in "+-"
        for n, k in ((0, 0), (1, 0), (1, 1), (1, "01"))]}


@pytest.mark.parametrize("argv, passed", [
    (("casimir", "--n", "0"), 9),
    (("reps", "--n", "0"), 4),
    (("relations", "--d", "1"), 10),
    (("oracle", "--d", "1", "--pairs", "1"), 1),
])
def test_verify_uses_explicit_sizes(capsys, argv, passed):
    code, out, _ = run(capsys, "verify", "--suite", *argv)
    assert code == 0
    assert json.loads(out) == {"passed": passed, "failed": 0}


@pytest.mark.parametrize("argv", [
    ("relations", "--d", "0"),
    ("relations", "--d", "-1"),
    ("casimir", "--n", "-1"),
    ("oracle", "--pairs", "0"),
    ("tensor", "--d", "40"),
    ("reps", "--n", "100000"),
    ("casimir", "--n", "100000"),
    ("oracle", "--d", "4", "--pairs", "1"),
    ("oracle", "--d", "1000000"),
])
def test_verify_refuses_bad_sizes_at_once(capsys, argv):
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--suite", *argv)
    assert code == 2 and "error:" in err and not out
    assert time.monotonic() - t0 < 1.0


ID1 = json.dumps({"A": [[1]], "delta": []})
ID3 = json.dumps({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "delta": []})
ONE2 = element(2, [[1, 0], [0, 1]])


def element_with(terms):
    return json.dumps({"d": 2, "terms": terms})


@pytest.mark.parametrize("argv", [
    ("oracle", "--d", "1", "--primes", "2,3", "--lhs", ID1, "--rhs", ID1),
    ("oracle", "--d", "3", "--primes",
     ",".join(map(str, oracle.primes_list(10))),
     "--lhs", ID3, "--rhs", ID3),
    ("normalize", "--word", "(1/0) e"),
    ("normalize", "--word", "((1)/(0)) e"),
    ("rep", "--module", "L+(3,0)", "--matrix", "(1/0) e"),
    ("mul", "--lhs", element_with([{"label": {"A": [[1, 0], [0, 1]],
                                              "delta": []},
                                    "coeff": "1/0"}]), "--rhs", ONE2),
    ("mul", "--lhs", element_with(5), "--rhs", ONE2),
    ("mul", "--lhs", element_with([5]), "--rhs", ONE2),
    ("mul", "--lhs", element_with([{"label": {"A": 5, "delta": []},
                                    "coeff": "1"}]), "--rhs", ONE2),
    ("normalize", "--word", "e^99999999999"),
    ("rep", "--module", "L+(3,0)", "--matrix", "e^99999999999"),
    ("mul", "--lhs", element(130, [[0, 0], [130, 0]]),
     "--rhs", element(130, [[130, 0], [0, 0]])),
    ("mul", "--lhs", element(101, [[101, 0], [0, 0]]),
     "--rhs", element(101, [[101, 0], [0, 0]])),
    ("mul", "--d", "3", "--lhs", ONE2, "--rhs", ONE2),
    ("mul", "--lhs", ONE2.replace('"d": 2', '"d": true'), "--rhs", ONE2),
    ("mul", "--lhs", element(2, [[True, 0], [0, 1]]), "--rhs", ONE2),
    ("mul", "--lhs", element(2, [[1, 0], [0, 1]], [(True, 1)]),
     "--rhs", ONE2),
    ("normalize", "--word", "e^"),
    ("normalize", "--word", "k^"),
], ids=["oracle-1x1", "oracle-3x3", "normalize-zero-den",
        "normalize-zero-den-fraction", "rep-zero-den", "mul-zero-den",
        "mul-terms-int", "mul-term-int", "mul-label-int", "normalize-huge-exp",
        "rep-huge-exp", "mul-d130", "mul-d101", "mul-d-mismatch",
        "mul-d-bool", "mul-label-bool", "mul-delta-bool",
        "normalize-empty-exp", "normalize-empty-k-exp"])
def test_bad_inputs_are_usage_errors(capsys, argv):
    # exit 1 means a failed verification, so bad input must never end in a
    # traceback
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 2 and "error:" in err and not out
    assert time.monotonic() - t0 < 1.0


def test_mul_guard_admits_d_100(capsys):
    x = element(100, [[100, 0], [0, 0]])
    code, out, _ = run(capsys, "mul", "--lhs", x, "--rhs", x)
    assert code == 0 and json.loads(out) == json.loads(x)


def test_count_matches_mul_guard(capsys):
    # the mul guard counts |Xi_{2,d}| as (d+1)^3
    for d in range(11):
        code, out, _ = run(capsys, "count", "--n", "2", "--d", str(d))
        assert code == 0 and int(out) == (d + 1) ** 3
