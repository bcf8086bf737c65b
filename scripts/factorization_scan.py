"""Scan the factorization constraint of the amplitude candidate.

For each supported split (g, k) the script draws random period matrices
tau1 (genus k) and tau2 (genus g-k), forms the block-diagonal tau, and
reports the relative residual |Xi_g(diag) - Xi_k * Xi_{g-k}| / max(1, |.|).
Residuals should sit at the numerical noise floor (1e-13 .. 1e-10); any
residual near 1 would falsify the factorization property.

Usage:
    python scripts/factorization_scan.py [--trials N] [--seed S] [--max-genus G]
"""

import argparse
import random

from thetachar.amplitude import factorization_residual
from thetachar.theta import Tolerance
from thetachar.verify import random_tau


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=5, help="draws per (g, k)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-genus", type=int, default=3, choices=(2, 3, 4),
        help="largest total genus to scan",
    )
    parser.add_argument("--tol", type=float, default=Tolerance().abs_tol)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tol = Tolerance(args.tol)
    print(f"{'g':>2} {'k':>2} {'trials':>6} {'worst residual':>15}")
    for g in range(2, args.max_genus + 1):
        for k in range(1, g):
            worst = 0.0
            for _ in range(args.trials):
                tau1 = random_tau(rng, k)
                tau2 = random_tau(rng, g - k)
                worst = max(worst, factorization_residual(tau1, tau2, tol))
            print(f"{g:>2} {k:>2} {args.trials:>6} {worst:>15.3e}")


if __name__ == "__main__":
    main()
