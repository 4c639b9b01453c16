"""The workloads: how each batch is drawn from the seed, and one operation.

A batch is what one fresh session works through, cold.  ``make_batch(s, ref,
rng)`` returns the batch's operations as plain input data; ``run_op(s, ref,
op)`` performs one operation and returns whether its output is correct.
"""

import random

from bench_session import compatible_pairs, digest, pair_key


def _row_sums(s, label):
    return s.decorated.row_col_sums(label)[0]


def _col_sums(s, label):
    return s.decorated.row_col_sums(label)[1]


def _basis(s, label):
    return s.schur_algebra.SchurElement.basis(label.d, label)


# --- schur-mul ---------------------------------------------------------------

def schur_mul_batch(s, ref, rng):
    """A fixed batch of d = 3 products: every fifth label in enumeration
    order as the left factor, times its first compatible right factor,
    leaving out the labels decorated {(1,2),(2,1)}.

    The cold cost of a product is mostly the expansion of its left label,
    and for the largest labels also applying their thousands of words to
    the right factor.  Both are heavy-tailed over the pairs (a few take
    seconds, most take milliseconds), and expansions share sub-results, so
    which operation pays for them depends on the order.  Seeded samples,
    seeded right factors and seeded orders all made the batch time and the
    latency percentiles swing by 20-80% between seeds, so the batch is
    fixed and this workload does not use the seed.  The two labels left
    out take 3.3-3.5 s each and made a batch 9 s long, so a run held four
    batches and the median and the tail each rested on four timings of a
    single product; they swung by up to 36% over ten runs.  Without them
    a batch (11 products, one of which takes about 2 s) takes about 3 s,
    and a run pools 11 timings of each product.
    """
    labels = s.decorated.enumerate_xi(2, 3)
    return [(left, next(r for r in labels
                        if _row_sums(s, r) == _col_sums(s, left)))
            for left in labels[::5] if left.delta != s.decorated.D_1221]


def schur_mul_op(s, ref, op):
    sa = s.schur_algebra
    product = sa.mul_general(_basis(s, op[0]), _basis(s, op[1]))
    return digest(product) == ref["mul"][pair_key(*op)]


# --- oracle-certify ----------------------------------------------------------

ORACLE_D = 3
ORACLE_MID = 1      # middle sum of the edge classes drawn
ORACLE_PAIRS = 8    # of the 9 pairs in each of those classes, per batch
TRIVIAL_PAIRS = 4   # of the 4-9 pairs in each trivial class, per batch


def oracle_classes(s):
    """Compatible d = 3 pairs grouped by (first left row sum, middle sum,
    first right column sum); pairs of one class read the same convolution
    tables, one per candidate output and prime."""
    classes = {}
    for left, right in compatible_pairs(s, ORACLE_D):
        key = (_row_sums(s, left)[0], _col_sums(s, left)[0],
               _col_sums(s, right)[0])
        classes.setdefault(key, []).append((left, right))
    return classes


def oracle_batch(s, ref, rng):
    """Seeded pairs at d = 3, in seeded order: ORACLE_PAIRS from every
    "edge" class with middle sum ORACLE_MID and TRIVIAL_PAIRS from every
    "trivial" class (middle sum 0 or d).

    An edge class has a first row and a first column sum of 0 or d, so its
    tables serve 2 candidate outputs; in "narrow" and "wide" classes one
    or both of them lie strictly between, and the tables serve 3 or 8.
    The first pair of an edge class builds its tables (1.1-1.7 s cold),
    the others reuse them (1-3.5 ms).  Taking the same edge classes in
    every batch makes the run's slowest operations the same set of table
    builds, so the tail latency falls among them; narrow (1.8-3.6 s) and
    wide (6.6-8.9 s) classes would not fit enough cold operations in a run.
    A trivial class has a single middle subspace and costs 13-70 ms cold
    and 1-10 ms warm.  Without them the warm latencies sat in a narrow band
    that the machine's speed shifted as a whole, and the median jumped
    between 1.6 and 2.7 ms from run to run.
    """
    classes = oracle_classes(s)
    ops = []
    for key in sorted(classes):
        ro, mid, co = key
        if mid == ORACLE_MID and ro in (0, ORACLE_D) and co in (0, ORACLE_D):
            ops.extend(rng.sample(classes[key], ORACLE_PAIRS))
        elif mid in (0, ORACLE_D):
            ops.extend(rng.sample(classes[key], TRIVIAL_PAIRS))
    rng.shuffle(ops)
    return ops


def oracle_op(s, ref, op):
    """The oracle's product must equal the engine's, whose canonical JSON
    digest the reference holds."""
    primes = s.oracle.primes_list(ORACLE_D * ORACLE_D + 1)
    got = s.oracle.structure_constants(*op, primes)
    return digest(got) == ref["mul"][pair_key(*op)]


# --- pbw-modules -------------------------------------------------------------
# Sizes of the CLI commands this workload stands in for: `verify --suite pbw`
# works at d = 3 and draws words of 1-5 letters; `verify --suite reps` and
# `--suite casimir` build every simple module with n <= 4; `verify --suite
# tensor` goes up to d = 4, and `sw-check --d` runs check_left_module(d).

PBW_D = 3
WORD_LEN = (1, 5)
MODULE_N = 4
TENSOR_DS = (1, 2, 3, 4)
# per batch; sized so that each kind takes a similar share of a batch
PBW_CHECKS = 10000          # normal form vs direct evaluation in MU_v(2,d)
MODULE_CHECKS = 4000        # word vs normal form on a simple module
TENSOR_ROUNDS = 80          # check_left_module(d) for every d in TENSOR_DS


def _word(s, rng):
    return tuple(rng.choice(s.pbw.GENERATORS)
                 for _ in range(rng.randint(*WORD_LEN)))


def pbw_batch(s, ref, rng):
    """A seeded mix of PBW normal-form, simple-module and tensor-space checks
    at the sizes of the CLI suites."""
    ops = [("pbw", PBW_D, _word(s, rng)) for _ in range(PBW_CHECKS)]
    for _ in range(MODULE_CHECKS):
        kind = rng.choice(s.reps.KINDS)
        n = rng.randint(1 if kind == "L01" else 0, MODULE_N)
        ops.append(("module", (kind, rng.choice(s.reps.SIGNS), n),
                    _word(s, rng)))
    ops += [("tensor", d) for d in TENSOR_DS * TENSOR_ROUNDS]
    rng.shuffle(ops)
    return ops


def pbw_op(s, ref, op):
    pbw, sa = s.pbw, s.schur_algebra
    if op[0] == "pbw":
        _, d, word = op
        direct = sa.evaluate_words(d, [sa.GeneratorWord(s.qv.RF_ONE, word)])
        return pbw.project_to_schur(d, pbw.normalize_word(word)) == direct
    if op[0] == "module":
        _, name, word = op
        M = s.reps.build_module(*name)
        as_word = s.reps.action_matrix(sa.GeneratorWord(s.qv.RF_ONE, word), M)
        return as_word == s.reps.action_matrix(pbw.normalize_word(word), M)
    _, d = op
    return s.tensor_space.check_left_module(d)["conjecture_match"] is True


# a run makes --seconds / BATCH_SECONDS batches (rounded, at least one); at
# --seconds 40 that is 11, 5 and 5 batches, 25-40 s of work on a 2-core VM
BATCH_SECONDS = {"schur-mul": 3.5, "oracle-certify": 8, "pbw-modules": 8}

WORKLOADS = {
    "schur-mul": (schur_mul_batch, schur_mul_op),
    "oracle-certify": (oracle_batch, oracle_op),
    "pbw-modules": (pbw_batch, pbw_op),
}


def batch_rng(workload, seed, index):
    """The generator for one batch; the same arguments give the same batch."""
    return random.Random(f"{workload}/{seed}/{index}")
