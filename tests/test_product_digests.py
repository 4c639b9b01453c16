"""Digests of every compatible basis product at small d.

The digest at d is the sha256 of json.dumps of the list of
mul_general(T_a, T_b).to_json(), the pairs (a, b) taken in
checks.compatible_pairs(d) order.  A change that alters any product, or the
order or JSON form of its terms, changes it.

d = 3 and 4 run under pytest (about 1 s); d = 5 and 6 take about 2 and 7 s,
so they are checked by running this file:

    PYTHONPATH=src python3 tests/test_product_digests.py 5 6
"""

import hashlib
import json
import sys

import pytest

from mirabolic.checks import compatible_pairs
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


@pytest.mark.parametrize("d", [3, 4])
def test_every_product_keeps_its_digest(d):
    assert product_digest(d) == PRODUCT_DIGESTS[d]


if __name__ == "__main__":
    bad = 0
    for d in map(int, sys.argv[1:] or PRODUCT_DIGESTS):
        got = product_digest(d)
        ok = got == PRODUCT_DIGESTS[d]
        bad += not ok
        print(f"d = {d}: {got} {'ok' if ok else 'CHANGED'}")
    sys.exit(bad)
