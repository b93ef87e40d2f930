"""Second-order structure: resolving terms two asymptotic orders down.

The double-limit bookkeeping is: err = exact - limit, scaled_err1 =
scale1 * err, and scaled_err2 = scale2 * (scaled_err1 - target1).  Each
column of the sweep output converges to its own finite target, which is
how the convergence *rate* claims become checkable numbers.

This demo also reruns the adjudication of the quadratic correction's
constant term: the exact tail deficit is fitted against both published
variants, and one of them loses by two orders of magnitude.

Run:  python demos/04_second_order_rates.py
"""

import math

from gedpower import (
    NormedCase,
    SweepConfig,
    classify_case,
    correction_q,
    correction_h,
    exact_deficit,
    make_params,
    run_sweep,
)


def second_order_table(title, config):
    print(f"=== {title} ===")
    rows = run_sweep(config)
    print("        n        scaled_err2        target2      ratio")
    for row in rows:
        ratio = row.scaled_err2 / row.target2 if row.target2 else math.nan
        print(f"  {row.n:12.4g}  {row.scaled_err2:+14.8f} "
              f"{row.target2:+14.8f}   {ratio:8.4f}")
    print()


def adjudicate(v, p, x=0.0):
    params = make_params(v)
    case = classify_case(v, p, theorem=2)
    h = correction_h(params, p, x)
    fits = []
    for bv in (400.0, 800.0, 1600.0):
        b = bv ** (1.0 / v)
        log_n = (math.log(2.0) / v + (1.0 - v) * math.log(params.lam)
                 + math.lgamma(1.0 / v) + (v - 1.0) * math.log(b)
                 + bv / (2.0 * params.lam**v))
        d = exact_deficit(NormedCase(params, case, log_n=log_n), x)
        fits.append((d - h * math.exp(x) / bv) * bv**2 * math.exp(-x))
    r1, r2 = 2.0 * fits[1] - fits[0], 2.0 * fits[2] - fits[1]
    fitted = (4.0 * r2 - r1) / 3.0
    q34 = correction_q(params, p, x)
    # eq22 swaps the constant -4(1/v-1)(1/v-2) lam^2v for -4(1/v-1)^2 lam^2v
    vi = 1.0 / v
    q22 = q34 + (4.0 * (vi - 1.0) * (vi - 2.0)
                 - 4.0 * (vi - 1.0) ** 2) * params.lam ** (2.0 * v) * math.exp(-x)
    print(f"  v={v:>4} p={p}: fitted={fitted:+.6f}   "
          f"eq34={q34:+.6f}   eq22={q22:+.6f}")


def main():
    ln10 = math.log(10.0)

    second_order_table(
        "Laplace unit power: n^2-scaled residual (resolved at 1e-17 "
        "absolute by the gap engine)",
        SweepConfig(
            v_list=(1.0,), p_list=(1.0,), r_list=(1,),
            n_ladder=(10**4, 10**6, 10**8),
            x_min=0.0, x_max=0.0, x_step=1.0, theorem="1",
        ),
    )

    second_order_table(
        "calibration-root case at v=2: b^2v-scaled residual",
        SweepConfig(
            v_list=(2.0,), p_list=(1.0,), r_list=(1,),
            log_n_ladder=[e * ln10 for e in (6, 9, 12)],
            x_min=0.0, x_max=0.0, x_step=1.0, theorem="2",
        ),
    )

    second_order_table(
        "corrected constants at v=2: b^3v-scaled third-order tracking",
        SweepConfig(
            v_list=(2.0,), p_list=(2.0,), r_list=(1,),
            log_n_ladder=[e * ln10 for e in (6, 9, 12)],
            x_min=0.0, x_max=0.0, x_step=1.0, theorem="2",
        ),
    )

    print("=== adjudicating the quadratic correction's constant (x=0) ===")
    print("  Richardson fit of the exact deficit's second-order "
          "coefficient vs the two published variants:")
    for v, p in ((2.0, 1.0), (0.5, 1.0), (4.0, 3.0)):
        adjudicate(v, p)
    print("  the 'eq34' constant matches the fit; 'eq22' does not, so "
          "correction_q uses eq34.")


if __name__ == "__main__":
    main()
