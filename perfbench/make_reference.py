"""Regenerate perfbench/reference.json from the engine in src/.

    python3 perfbench/make_reference.py

The reference holds, for every compatible pair of basis labels at d = 3, the
sha256 of the product's JSON exactly as ``mirabolic mul`` prints it.

Generate it once at a commit whose products are trusted; it takes a few
minutes.
"""

import json

from bench_session import (REFERENCE, compatible_pairs, digest, git_commit,
                           open_session, pair_key)


def main():
    s = open_session()
    sa = s.schur_algebra
    mul = {pair_key(a, b): digest(sa.mul_general(sa.SchurElement.basis(3, a),
                                                 sa.SchurElement.basis(3, b)))
           for a, b in compatible_pairs(s, 3)}
    ref = {"commit": git_commit(), "mul": mul}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(mul)} product digests to {REFERENCE}")


if __name__ == "__main__":
    main()
