"""Digests of every compatible basis product at small d, and of every
tensor action the finite-field oracle interpolates at d = 3.

The digest at d is the sha256 of json.dumps of the list of
mul_general(T_a, T_b).to_json(), the pairs (a, b) taken in
checks.compatible_pairs(d) order.  A change that alters any product, or the
order or JSON form of its terms, changes it.

d = 3 and 4 run under pytest (about 1 s); d = 5 and 6 take about 2 and 7 s,
so they are checked by running this file:

    PYTHONPATH=src python3 tests/test_product_digests.py 5 6

The tensor digest covers `oracle.tensor_action_constants`, which the
product digests do not reach: for every label and then every marked
sequence with ones 1s, in enumerate_xi order, where the label's column sums
are (ones, 3 - ones), the action at `oracle.interpolation_primes(3)`, each
as its [sequence JSON, coefficient] pairs sorted by their json.dumps; the
digest is the sha256 of json.dumps of that list (740 actions, 3,111 terms,
about 1 s).
"""

import hashlib
import json
import sys

import pytest

from mirabolic import oracle
from mirabolic.checks import compatible_pairs
from mirabolic.decorated import enumerate_xi, row_col_sums
from mirabolic.qv import format_coeff
from mirabolic.schur_algebra import SchurElement, mul_general

PRODUCT_DIGESTS = {
    3: "c4f207b1bd03154147ae19e6bbedee7c5f9994bf73253004cae00a76449d86c8",
    4: "577e9bb6d3c4540600441f932caf9b44524943f1e3e719a7a1fba8931d3d1a3e",
    5: "f236c6cf8e4fc5948366105bcb77553a85168992edabdf2444074f0ef1c7f92c",
    6: "03d4483329a0d6fae88d9e7e678bc2ac4ff19c6ff4d2119300754059fdf13537",
}


def product_digest(d):
    products = [mul_general(SchurElement.basis(d, a),
                            SchurElement.basis(d, b)).to_json()
                for a, b in compatible_pairs(d)]
    return hashlib.sha256(json.dumps(products).encode()).hexdigest()


TENSOR_DIGEST = \
    "9dd803af7477166e08b58a27f3a8b39cb988a5d4e53976d48081cf01eb3d0609"


@pytest.mark.parametrize("d", [3, 4])
def test_every_product_keeps_its_digest(d):
    assert product_digest(d) == PRODUCT_DIGESTS[d]


def test_every_oracle_tensor_action_keeps_its_digest():
    d, primes = 3, oracle.interpolation_primes(3)
    actions = [sorted([[ms.to_json(), format_coeff(c)] for ms, c in
                       oracle.tensor_action_constants(lab, right,
                                                      primes).items()],
                      key=json.dumps)
               for lab in enumerate_xi(2, d)
               for right in enumerate_xi(2, d, tensor=True)
               if row_col_sums(lab)[1] == (right.seq.count(1),
                                           d - right.seq.count(1))]
    assert (len(actions), sum(map(len, actions))) == (740, 3111)
    assert hashlib.sha256(json.dumps(actions).encode()).hexdigest() == \
        TENSOR_DIGEST


if __name__ == "__main__":
    bad = 0
    for d in map(int, sys.argv[1:] or PRODUCT_DIGESTS):
        got = product_digest(d)
        ok = got == PRODUCT_DIGESTS[d]
        bad += not ok
        print(f"d = {d}: {got} {'ok' if ok else 'CHANGED'}")
    sys.exit(bad)
