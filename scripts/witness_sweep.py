#!/usr/bin/env python3
"""Compare lower-bound witnesses across a corpus of forms.

For each form: the sign baseline (scalar substitutions), the polar
witness at each dimension in the schedule, and the theory targets.
Address forms additionally get the exact scalar-phase witness.

Run from the repository root:

    python3 scripts/witness_sweep.py --forms 8 --out witness_sweep.csv
"""

import argparse
import csv
import sys

from cbforms import (Seed, address_form, random_form, root_influence_witness,
                     scalar_phase_address_witness, sign_baseline)

COLUMNS = ("form", "d", "n", "variance", "method", "N",
           "achieved", "target", "ratio")


def rows_for_form(name, f, seed, schedule, trials):
    var = f.variance()
    base = {"form": name, "d": f.d, "n": f.n, "variance": round(var, 6)}
    out = []

    rep = sign_baseline(f, trials=trials, seed=seed.child(0))
    out.append(base | {"method": "sign-baseline", "N": rep.N,
                       "achieved": rep.achieved, "target": rep.target})
    for dim in schedule:
        rep = root_influence_witness(f, schedule=(dim,), seed=seed.child(dim))
        out.append(base | {"method": "polar", "N": dim,
                           "achieved": rep.achieved, "target": rep.target})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--forms", type=int, default=6,
                    help="number of random homogeneous forms")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--schedule", type=int, nargs="+", default=[64, 128, 256])
    ap.add_argument("--trials", type=int, default=512)
    ap.add_argument("--out", default=None, help="also write rows to this CSV")
    args = ap.parse_args(argv)
    if args.forms < 0:
        raise SystemExit(f"error: --forms must be at least 0, got {args.forms}")
    if args.trials < 1:
        raise SystemExit(f"error: --trials must be at least 1, got {args.trials}")
    if min(args.schedule) < 1:
        raise SystemExit(f"error: every --schedule entry must be at least 1, "
                         f"got {args.schedule}")

    master = Seed(args.seed)
    rows = []

    for d in (1, 2, 3):
        f = address_form(d)
        rep = scalar_phase_address_witness(d)
        rows.append({"form": f"address[{d}]", "d": f.d, "n": f.n,
                     "variance": 1.0, "method": "scalar-phase", "N": 1,
                     "achieved": rep.achieved, "target": rep.target})
        rows += rows_for_form(f"address[{d}]", f, master.child(0, d),
                              args.schedule, args.trials)

    for k in range(args.forms):
        pick = master.child(1, k).rng()
        d = int(pick.integers(2, 4))
        n = int(pick.integers(2, 6))
        terms = int(pick.integers(2, min(9, n ** d) + 1))
        f = random_form(d, n, num_terms=terms, seed=master.child(2, k))
        rows += rows_for_form(f"random[{k}]", f, master.child(3, k),
                              args.schedule, args.trials)

    for r in rows:
        r["ratio"] = round(r["achieved"] / r["target"], 4) if r["target"] else ""
        r["achieved"] = round(r["achieved"], 6)
        r["target"] = round(r["target"], 6)

    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in COLUMNS))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in COLUMNS))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COLUMNS)
            w.writeheader()
            w.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
