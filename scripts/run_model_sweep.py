#!/usr/bin/env python3
"""Build and fully verify every model of the standard shape sweep.

For each shape with part sum up to --total, both kappa values, both modes,
and the standard field list, build the model (which re-verifies the
isometry, the Jordan multiset, the collection clauses, and the table round
trip), then check flags, relative position, and every admissible split.
Prints one JSON line per case.
"""

import argparse
import json
import sys
import time

sys.path.insert(0, "src")

from isoflag.cases import cuts_for, fields_for, sweep_cases  # noqa: E402
from isoflag.model import (build_model, flags_from, position_check,  # noqa: E402
                           split_check)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--total", type=int, default=5,
                    help="maximum part sum of the sweep (default 5)")
    args = ap.parse_args()

    t0 = time.monotonic()
    built = 0
    for shape, mode in sweep_cases(args.total):
        for name, field in fields_for(mode, shape.kappa):
            t1 = time.monotonic()
            model = build_model(shape, mode, field)
            flag, flag_prime = flags_from(model)
            pos = position_check(flag, flag_prime, shape)
            splits = {str(c): split_check(model, c)["pass"]
                      for c in cuts_for(shape, mode)}
            built += 1
            print(json.dumps({
                "shape": list(shape.parts), "kappa": shape.kappa,
                "mode": mode, "field": name, "position": pos,
                "splits": splits,
                "seconds": round(time.monotonic() - t1, 3),
            }))
            assert pos and all(splits.values())
    print(json.dumps({"models": built,
                      "total_seconds": round(time.monotonic() - t0, 1)}))


if __name__ == "__main__":
    main()
