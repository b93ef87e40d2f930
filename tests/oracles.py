"""Independent oracles the tests compare the library against: adaptive
quadrature of defining integrals, exact-binomial sums in high precision,
and mpmath evaluations that never touch the package's own code paths.
The lemma's closed-form deficit prediction is here too: it reads the
package's correction polynomials, and only tests compare it with the exact
deficit."""

import math

import mpmath as mp
import numpy as np
from scipy import integrate

from gedpower.expansions import (
    NormedCase,
    _rank_weights,
    correction_b,
    correction_h,
    correction_q,
    correction_s,
    exact_deficit,
    gumbel_r,
)
from gedpower.specfun import exp_or_inf


def quad_gamma_integral(a: float, x: float | None = None) -> float:
    """integral of t^(a-1) e^(-t) over (0, x) (or (0, inf) when x is None)."""
    f = lambda t: t ** (a - 1.0) * math.exp(-t)
    if x is None:
        lo = integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        hi = integrate.quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        return lo + hi
    if x <= 1.0:
        return integrate.quad(f, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    lo = integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    hi = integrate.quad(f, 1.0, x, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return lo + hi


def quad_reg_lower(a: float, x: float) -> float:
    """P(a, x) by quadrature, normalized with the libm log-gamma."""
    return quad_gamma_integral(a, x) * math.exp(-math.lgamma(a))


def mp_lambda(v) -> mp.mpf:
    v = mp.mpf(v)
    return mp.sqrt(2 ** (-2 / v) * mp.gamma(1 / v) / mp.gamma(3 / v))


def mp_survival(v, z) -> mp.mpf:
    """1 - G_v(z) for z >= 0 in mpmath."""
    v = mp.mpf(v)
    u = (mp.mpf(z) / mp_lambda(v)) ** v / 2
    return mp.gammainc(1 / v, a=u, b=mp.inf, regularized=True) / 2


def mp_tail_deficit(v, lam, log_n, x, z) -> mp.mpf:
    """1 - theta = 1 - n e^x (1 - G(z)) in mpmath for the GED(v) law of
    scale lam, with lam, log n and the threshold z taken as exact."""
    v = mp.mpf(v)
    u = (mp.mpf(z) / mp.mpf(lam)) ** v / 2
    log_s = mp.log(mp.gammainc(1 / v, a=u, b=mp.inf, regularized=True) / 2)
    return -mp.expm1(mp.mpf(log_n) + x + log_s)


def brute_upper_orderstat_cdf(n: int, r: int, s) -> mp.mpf:
    """sum_{j<r} C(n,j) s^j (1-s)^(n-j) with exact integer binomials."""
    s = mp.mpf(s)
    return mp.fsum(
        mp.mpf(math.comb(n, j)) * s**j * (1 - s) ** (n - j) for j in range(r)
    )


def brute_lower_orderstat_mass(n: int, r: int, s) -> mp.mpf:
    s = mp.mpf(s)
    return mp.fsum(
        mp.mpf(math.comb(n, j)) * (1 - s) ** j * s ** (n - j) for j in range(r)
    )


def mp_gumbel_r(r: int, x) -> mp.mpf:
    if r <= 0:
        return mp.mpf(0)
    x = mp.mpf(x)
    lam = mp.e ** (-mp.e ** (-x))
    return lam * mp.fsum(mp.e ** (-j * x) / mp.factorial(j) for j in range(r))


def gumbel_r_identities(r: int, x: float) -> tuple[float, float, float, float]:
    """Both sides of the first- and second-moment reduction identities.

    lhs1 = Lambda(x) sum_{j<r} j e^(-jx)/j!            rhs1 = e^(-x) Lambda_{r-1}(x)
    lhs2 = Lambda(x) sum_{j<r} j^2 e^(-jx)/j!          rhs2 = e^(-2x) Lambda_{r-2}(x) + rhs1

    The moment bookkeeping inside the transfer lemma, from the package's
    own rank weights and limit law.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    e2mx = exp_or_inf(-2.0 * x)
    if e2mx == math.inf:  # Lambda(x) is 0.0
        return 0.0, 0.0, 0.0, 0.0
    weights = _rank_weights(r, x)
    lhs1 = math.fsum(j * w for j, w in enumerate(weights))
    lhs2 = math.fsum(j * j * w for j, w in enumerate(weights))
    rhs1 = math.exp(-x) * gumbel_r(r - 1, x)
    rhs2 = e2mx * gumbel_r(r - 2, x) + math.exp(-x) * gumbel_r(r - 1, x)
    return lhs1, rhs1, lhs2, rhs2


def mp_expansion_terms(params, tag: str, p, r: int, x) -> tuple[mp.mpf, mp.mpf]:
    """The unscaled first- and second-order terms of ``expand`` in mpmath,
    in the form each case states them, with the library's lambda, v, p and
    x taken as exact."""
    v, p, x = mp.mpf(params.v), mp.mpf(p), mp.mpf(x)
    lam, fact, ex = mp.exp(-mp.exp(-x)), mp.factorial(r - 1), mp.exp(x)
    weight = lam * mp.exp(-r * x) / fact  # Lambda(x) e^(-rx) / (r-1)!
    if tag == "t1_i":
        poly = ((-3 * r**3 + 10 * r**2 - 9 * r + 2) * ex**2
                + (9 * r**2 - 11 * r + 2) * ex + 3 / ex - 9 * r + 1)
        return (lam * mp.exp(-(r + 1) * x) * ((r - 1) * ex - 1) / (2 * fact),
                lam * mp.exp(-(r + 2) * x) * poly / (24 * fact))
    if tag == "t1_ii":
        bracket = 4 * (1 - 2 * p) - 3 * (1 - p) * r * x + 3 * (1 - p) * x / ex
        return (1 - p) * x**2 * weight / 2, (1 - p) * x**3 * bracket * weight / 24
    vi = 1 / v
    if tag == "t1_iii":
        return ((1 - vi) ** 3 * weight / 2,
                -(1 - vi) ** 2 * (1 - mp.log(2) - mp.loggamma(vi) + x) * weight)
    lam_v = mp.mpf(params.lam) ** v
    lam2, lam3 = lam_v**2, lam_v**3
    pref = lam * mp.exp(-(r - 1) * x) / fact
    if tag == "t2_i":
        h = (vi * (v - p) * lam_v * x**2 - 2 * vi * (1 - v) * lam_v * x
             - 2 * (vi - 1) * lam_v) / ex
        q = (-lam2 * vi**2 * (v - p) ** 2 * x**4 / 2
             + vi**2 * (v - p) * lam2 * (2 - 4 * v / 3 - 4 * p / 3) * x**3
             - 2 * vi**2 * (1 - v) * lam2 * x**2
             - 4 * (vi - 1) * (vi - 2) * lam2 * x
             - 4 * (vi - 1) * (vi - 2) * lam2) / ex
        return h * pref, (q + (1 - (r - 1) * ex) * h**2 / 2) * pref
    s = 2 * (vi - 1) * lam2 * (x**2 - 2 * (vi - 2) * x - (3 * vi - 5)) / ex
    b = -4 * (vi - 1) * lam3 * ((4 - vi) * (vi - 1) * x**3 - 6 * (vi - 2) * x**2
                                - 6 * (3 * vi - 5) * x + (2 * vi**2 - 22 * vi + 32)) / (3 * ex)
    return s * pref, b * pref


def lemma3_transfer(one_minus_theta: float, r: int, x: float) -> float:
    """Quadratic transfer from tail deficit to CDF deficit.

    Lambda(x) [1 - (1-theta)(r - 1 - e^(-x))/2] (1-theta) e^(-rx)/(r-1)!,
    i.e. P(|M_{n,r}|^p <= z^p) - Lambda_r(x) up to O(n^-1) and cubic terms
    in the deficit.  The reference the exact gap engine is checked against.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not abs(one_minus_theta) < 1.0:
        raise ValueError(f"|1 - theta| must be < 1, got {one_minus_theta}")
    d = one_minus_theta
    return (math.exp(-math.exp(-x)) * (1.0 - 0.5 * d * (r - 1.0 - math.exp(-x))) * d
            * math.exp(-r * x) / math.factorial(r - 1))


def lemma_deficit(cell: NormedCase, x: float) -> float:
    """Closed-form prediction of 1 - theta through second order, in terms of
    the cell's scale factors."""
    params, tag, v, p = cell.params, cell.case.tag, cell.case.v, cell.case.p
    if tag == "t1_i":
        return 0.0
    s1, s2 = cell.scales
    if tag == "t1_ii":
        return ((1.0 - p) * x * x / (2.0 * s1)
                - ((1.0 - p) * (3.0 * (1.0 - p) * x - 4.0 * (1.0 - 2.0 * p))
                   * x**3 / (24.0 * s1**2)))
    if tag == "t1_iii":
        vi = 1.0 / v
        return ((1.0 - vi) ** 3 / (2.0 * s1)
                - (1.0 - vi) ** 2 * (1.0 - math.log(2.0) - math.lgamma(vi) + x) / s2)
    if tag == "t2_i":
        return (correction_h(params, p, x) / s1
                + correction_q(params, p, x) / s2) * math.exp(x)
    return (correction_s(params, x) / s1 + correction_b(params, x) / s2) * math.exp(x)


def theta_deficit(cell: NormedCase, x: float) -> tuple[float, float]:
    """(exact, predicted) tail deficit 1 - theta at the case's normed point.

    The exact channel never touches the expansions, so comparing the two
    isolates expansion error from tail-evaluation error.
    """
    return exact_deficit(cell, x), lemma_deficit(cell, x)
