"""Tour of the GED(v) family: densities, tails, quantiles, and sampling.

The shape parameter v bends the law between heavy double-exponential-like
tails (v < 1), the Laplace law (v = 1), the standard normal (v = 2), and
increasingly box-like shapes (v > 2).  The scale is always chosen so the
variance is one, which is what makes the convergence-rate comparisons
across v meaningful.

Run:  python demos/01_distribution_basics.py
"""

import numpy as np

from gedpower import (
    make_params,
    pdf,
    cdf,
    survival,
    quantile,
    mc_table,
    tail_survival_expansion,
)


def main():
    shapes = (0.5, 1.0, 2.0, 4.0)

    print("=== scale constants (unit variance) ===")
    for v in shapes:
        print(f"  v={v:>4}: lambda={make_params(v).lam:.12f}")
    print("  (v=2 is the standard normal, lambda=1; v=1 the Laplace law, "
          "lambda=2^(-3/2))\n")

    print("=== density and distribution at a few points ===")
    xs = (0.0, 0.5, 1.0, 2.0, 4.0)
    header = "    x " + "".join(f"{x:>12.2f}" for x in xs)
    for v in shapes:
        params = make_params(v)
        print(f"  v={v}")
        print(header)
        print("  pdf  " + "".join(f"{pdf(params, x):12.6f}" for x in xs))
        print("  cdf  " + "".join(f"{cdf(params, x):12.6f}" for x in xs))
        print("  surv " + "".join(f"{survival(params, x):12.3e}" for x in xs))
    print()

    print("=== quantiles (symmetric around the median at 0) ===")
    for v in shapes:
        params = make_params(v)
        qs = [0.5, 0.9, 0.975, 0.999]
        vals = ", ".join(f"q({u})={quantile(params, u):+.5f}" for u in qs)
        print(f"  v={v:>4}: {vals}")
    print()

    print("=== the Monte Carlo sampler agrees with the analytic law ===")
    # one replication of a width-n table holds Y = -log(1 - U) for the n
    # tail probabilities U = survival(X) of one sample, ascending; so
    # U = -expm1(-Y), and by symmetry X = -quantile(U)
    n = 2_000
    [ys] = mc_table(n, n, 1, 12345)
    us = -np.expm1(-ys)
    for v in shapes:
        params = make_params(v)
        xs = -np.array([quantile(params, u) for u in us])
        tail = (np.abs(xs) > 2.0).mean()
        tail_true = 2.0 * survival(params, 2.0)
        print(f"  v={v:>4}: sample mean {xs.mean():+9.5f}  "
              f"sample var {xs.var():.5f}  "
              f"P(|X|>2) empirical {tail:.5f} vs exact {tail_true:.5f}")
    print()

    print("=== closed-form tail expansion vs the exact survival ===")
    print("  relative error of the truncated tail series, v=4 at x=4:")
    params = make_params(4.0)
    s = survival(params, 4.0)
    for order in range(4):
        approx = tail_survival_expansion(params, 4.0, order)
        print(f"    order {order}: rel err {abs(approx / s - 1.0):.3e}")
    print("  each extra term buys roughly a factor x^-v; at v=1/2 the "
          "series terminates and order 1 is already exact.")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        from pathlib import Path

        grid = np.linspace(-4.0, 4.0, 401)
        fig, ax = plt.subplots(figsize=(7, 4))
        for v in shapes:
            params = make_params(v)
            ax.plot(grid, [pdf(params, x) for x in grid], label=f"v={v}")
        ax.set_xlabel("x")
        ax.set_ylabel("density")
        ax.set_title("general error densities, unit variance")
        ax.legend()
        fig.tight_layout()
        out = Path(__file__).resolve().parent / "output_densities.png"
        fig.savefig(out, dpi=120)
        print(f"\nwrote {out}")
    except Exception as exc:  # plotting is optional
        print(f"\n(plot skipped: {exc})")


if __name__ == "__main__":
    main()
