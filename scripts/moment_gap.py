#!/usr/bin/env python3
"""How tight is the Fuss-Catalan moment bound on random polynomials?

Samples integer-coefficient homogeneous generator polynomials, computes
the exact trace moment tr[(pp*)^m] and the bound C_{d,m} |p|^{2m}, and
reports the ratio distribution per (d, m) cell.  Ratios approach 1 when
the mass spreads over many orthogonal words (the bound's extremal
direction) and drop fast for lopsided coefficient profiles.

    python3 scripts/moment_gap.py --samples 200
"""

import argparse
from collections import defaultdict

from cbforms import NCPolynomial, Seed, fuss_catalan, moment_upper_bound, trace_moment_exact


def sample_poly(rng, d, max_gens=3, max_terms=4):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        word = tuple(int(g) for g in rng.integers(1, max_gens + 1, size=d))
        coeff = int(rng.integers(-3, 4))
        if coeff:
            terms[word] = float(coeff)
    return NCPolynomial(terms) if terms else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=120, help="per (d, m) cell")
    ap.add_argument("--max-degree", type=int, default=2)
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for flag in ("samples", "max_degree", "max_m"):
        value = getattr(args, flag)
        if value < 1:
            raise SystemExit(f"error: --{flag.replace('_', '-')} must be at least 1, "
                             f"got {value}")

    cells = defaultdict(list)
    rng = Seed(args.seed).rng()
    for d in range(1, args.max_degree + 1):
        for m in range(1, args.max_m + 1):
            while len(cells[d, m]) < args.samples:
                p = sample_poly(rng, d)
                if p is None:
                    continue
                moment = trace_moment_exact(p, m)
                bound = moment_upper_bound(p, m)
                cells[d, m].append(moment / bound)

    print(f"{'d':>2} {'m':>2} {'C_dm':>5} {'mean':>7} {'median':>7} {'max':>7}")
    for (d, m), ratios in sorted(cells.items()):
        ratios.sort()
        mean = sum(ratios) / len(ratios)
        median = ratios[len(ratios) // 2]
        print(f"{d:>2} {m:>2} {fuss_catalan(d, m):>5} "
              f"{mean:>7.4f} {median:>7.4f} {ratios[-1]:>7.4f}")
    print(f"\n{sum(len(v) for v in cells.values())} samples; "
          "m = 1 always saturates (the first moment equals |p|^2).")


if __name__ == "__main__":
    main()
