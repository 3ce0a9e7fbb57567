#!/usr/bin/env python3
"""Budget sweep for the greedy simulator on quantum-extracted forms.

Measures the exact failing fraction (|output - f(x)| > eps over the
whole cube) of the influence-greedy decision tree as the query budget
grows, on Forrelation and address forms plus random circuits.

    python3 scripts/simulate_sweep.py --eps 0.25 --delta 0.25
"""

import argparse
import csv
import sys

from cbforms import (Seed, SimulationPolicy, address_form, error_profile,
                     extract_form, forrelation_circuit, random_circuit,
                     reference_query_bound)

COLUMNS = ("form", "d", "support", "budget", "failing_fraction",
           "mean_queries", "max_error")


def sweep(name, f, policies):
    rows = []
    support = len(f.support())
    for policy in policies:
        prof = error_profile(f, policy)
        rows.append({
            "form": name, "d": f.d, "support": support, "budget": policy.query_budget,
            "failing_fraction": prof.failing_fraction,
            "mean_queries": round(prof.mean_queries, 3),
            "max_error": round(prof.max_error, 6),
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--delta", type=float, default=0.25)
    ap.add_argument("--budgets", type=int, nargs="+",
                    default=[1, 2, 4, 8, 16])
    ap.add_argument("--circuits", type=int, default=3,
                    help="number of random circuits to add")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.circuits < 0:
        raise SystemExit(f"error: --circuits must be at least 0, got {args.circuits}")
    try:
        policies = [SimulationPolicy(args.eps, args.delta, b) for b in args.budgets]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    rows = []
    rows += sweep("forrelation[n=4]", extract_form(forrelation_circuit(4)), policies)
    rows += sweep("address[2]", address_form(2), policies)
    for k in range(args.circuits):
        c = random_circuit(4, 1, 2, seed=Seed(args.seed).child(k))
        rows += sweep(f"random[{k}]", extract_form(c), policies)

    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in COLUMNS))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in COLUMNS))
    bound = reference_query_bound(2, args.eps, args.delta)
    print(f"\nreference worst-case bound at d=2: d^5/(eps^8 delta^5) = {bound:.3g}",
          file=sys.stderr)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COLUMNS)
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
