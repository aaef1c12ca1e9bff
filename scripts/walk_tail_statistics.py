#!/usr/bin/env python3
"""Termination-tail statistics of the fair one-counter random walk.

Reproduces the two empirical claims the analyzer makes exactly symbolic:
the classic termination percentages at small start values, and the
quadratic growth of the median termination time.

  python3 scripts/walk_tail_statistics.py            # quick (~4 s)
  python3 scripts/walk_tail_statistics.py --full     # acceptance scale (~3 min)
"""

import argparse
import time
from pathlib import Path

from vass_asym.model import parse_vass
from vass_asym.sim import estimate_tails, fit_exponent, simulate_many

MODEL = Path(__file__).resolve().parent.parent / "models" / "random_walk_1d.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--runs", type=int, default=None, help="runs per statistic")
    ap.add_argument("--full", action="store_true", help="acceptance-scale sample sizes")
    args = ap.parse_args()
    runs = args.runs if args.runs else (20_000 if args.full else 4_000)
    med_runs = 2_000 if args.full else 400
    ns = [8, 16, 32, 64, 128, 256, 512] if args.full else [8, 16, 32, 64, 128]

    m = parse_vass(MODEL.read_text())

    print(f"termination fractions ({runs} runs each, seed {args.seed}):")
    for n, caps in ((1, (1000,)), (10, (1000, 10_000))):
        batch = simulate_many(m, n, runs, seed=args.seed, max_steps=max(caps) + 1)
        for cap in caps:
            frac = sum(1 for st in batch if st.terminated and st.steps <= cap) / runs
            print(f"  start {n:>2}, within {cap:>6} steps: {frac:.4f}")

    print(f"\nmedian termination time vs start value ({med_runs} runs per n):")
    medians = []
    t0 = time.monotonic()
    for n in ns:
        rep = estimate_tails(m, [n], med_runs, seed=args.seed, max_steps=32 * n * n)
        (group,) = rep.groups[n]
        medians.append(group.median_steps)
        print(
            f"  n={n:>3}: median={group.median_steps:>9} "
            f"terminated={group.terminated}/{group.runs} (cap 32n^2)"
        )
    slope = fit_exponent(ns, medians)
    print(f"\nlog-log slope of median termination time: {slope:.3f} (theory: 2)")
    print(f"elapsed: {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
