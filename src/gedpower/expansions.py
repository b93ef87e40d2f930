"""Limit law, correction polynomials, tail-deficit channels, and the
assembled first/second-order approximations of the five theorem cases.

Case tags
---------
The double-limit statements split by shape and power:

* ``t1_i``   : v = 1, p = 1   (powered-family norming; exact calibration)
* ``t1_ii``  : v = 1, p != 1  (powered-family norming)
* ``t1_iii`` : v != 1         (powered-family norming, any p > 0)
* ``t2_i``   : v != 1, p != v (calibration-root norming)
* ``t2_ii``  : v != 1, p = v  (corrected calibration-root norming)

A (v, p) pair picks its case within a chosen theorem branch; the same
pair with v != 1 legitimately belongs to ``t1_iii`` under branch 1 and to
a ``t2_*`` case under branch 2, which use different norming families.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .ged import EQ_TOL, GedParams, log_survival
from .norming import (
    LinearNorming,
    hall_constants,
    optimal_constants,
    power_constants,
    resolve_log_n,
    solve_bn,
)
from .specfun import log_gamma

__all__ = [
    "TheoremCase",
    "NormedCase",
    "ExpansionEval",
    "gumbel",
    "gumbel_r",
    "gumbel_r_identities",
    "classify_case",
    "case_norming",
    "exact_deficit",
    "theta_deficit",
    "correction_h",
    "correction_q",
    "correction_s",
    "correction_b",
    "expand",
    "theorem_expansion",
]


def gumbel(x: float) -> float:
    """The Gumbel law Lambda(x) = exp(-exp(-x))."""
    return math.exp(-math.exp(-x))


def _rank_weights(r: int, x: float) -> list[float]:
    """The addends Lambda(x) e^(-jx)/j!, j < r, of Lambda_r(x); 1, 0, ... at x = inf."""
    emx = math.exp(-x)
    return [math.exp(-emx - j * x - math.lgamma(j + 1.0)) if j else math.exp(-emx)
            for j in range(r)]


def gumbel_r(r: int, x: float) -> float:
    """Limit law of the r-th largest: Lambda(x) sum_{j<r} e^(-jx)/j!; zero for r <= 0."""
    return math.fsum(_rank_weights(r, x))


def gumbel_r_identities(r: int, x: float) -> tuple[float, float, float, float]:
    """Both sides of the first- and second-moment reduction identities.

    lhs1 = Lambda(x) sum_{j<r} j e^(-jx)/j!            rhs1 = e^(-x) Lambda_{r-1}(x)
    lhs2 = Lambda(x) sum_{j<r} j^2 e^(-jx)/j!          rhs2 = e^(-2x) Lambda_{r-2}(x) + rhs1

    Test fixture for the moment bookkeeping inside the transfer lemma.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    weights = _rank_weights(r, x)
    lhs1 = math.fsum(j * w for j, w in enumerate(weights))
    lhs2 = math.fsum(j * j * w for j, w in enumerate(weights))
    rhs1 = math.exp(-x) * gumbel_r(r - 1, x)
    rhs2 = math.exp(-2.0 * x) * gumbel_r(r - 2, x) + math.exp(-x) * gumbel_r(r - 1, x)
    return lhs1, rhs1, lhs2, rhs2


@dataclass(frozen=True)
class TheoremCase:
    """Resolved case tag with the (v, p) that produced it."""

    tag: str
    v: float
    p: float


def classify_case(v: float, p: float, theorem: int) -> TheoremCase:
    """Route (v, p) to its case within theorem branch 1 or 2."""
    if not v > 0.0 or not 0.0 < p < math.inf:
        raise ValueError(f"v and p must be positive and p finite, got v={v}, p={p}")
    v_is_one = abs(v - 1.0) <= EQ_TOL
    p_eq_v = abs(p - v) <= EQ_TOL
    if theorem == 1:
        if v_is_one:
            tag = "t1_i" if abs(p - 1.0) <= EQ_TOL else "t1_ii"
        else:
            tag = "t1_iii"
    elif theorem == 2:
        if v_is_one:
            raise ValueError("theorem branch 2 excludes v = 1; its norming "
                             "coincides with the powered family there")
        tag = "t2_ii" if p_eq_v else "t2_i"
    else:
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    return TheoremCase(tag=tag, v=v, p=p)


@dataclass(frozen=True)
class NormedCase:
    """The x-free part of one grid cell: norming and scale factors of (params,
    case, n or log n), each built on first use and kept, so a row that needs
    one never fails on the other.  Building a cell checks that params and case
    share a shape and that (v, p) routes to the case within its branch."""

    params: GedParams
    case: TheoremCase
    n: int | float | None = None
    log_n: float | None = None

    def __post_init__(self):
        v, p, tag = self.case.v, self.case.p, self.case.tag
        if self.params.v != v:
            raise ValueError(f"params v={self.params.v} differs from case v={v}")
        expected = classify_case(v, p, theorem=1 if tag.startswith("t1") else 2)
        if expected.tag != tag:
            raise ValueError(f"(v={v}, p={p}) belongs to case "
                             f"{expected.tag!r}, not {tag!r}")

    @cached_property
    def norming(self) -> LinearNorming:
        """The norming family the case verifies against."""
        if self.case.tag == "t2_ii":
            return optimal_constants(self.params, self.n, log_n=self.log_n)
        family = power_constants if self.case.tag.startswith("t1") else hall_constants
        return family(self.params, self.case.p, self.n, log_n=self.log_n)

    @cached_property
    def scales(self) -> tuple[float, float]:
        """The divergent multipliers attached to the first and second order.

        (n, n^2) for t1_i; (log(n/2), log n log(n/2)) for t1_ii;
        (log n/(loglog n)^2, log n/loglog n) for t1_iii -- the second
        multiplier follows the statement literally, i.e. loglog n applied to
        the residual; (b^v, b^2v) for t2_i and (b^2v, b^3v) for t2_ii.
        """
        ln = resolve_log_n(self.n, self.log_n, min_n=3)
        tag = self.case.tag
        if tag == "t1_i":
            if ln > 700.0:
                raise ValueError("t1_i scales need a representable n; log_n too large")
            nn = float(self.n) if self.n is not None else math.exp(ln)
            return nn, nn * nn
        if tag == "t1_ii":
            s1 = ln - math.log(2.0)
            return s1, ln * s1
        if tag == "t1_iii":
            ll = math.log(ln)
            s1 = ln / (ll * ll)
            return s1, s1 * ll
        bv = solve_bn(self.params, log_n=ln).b_n ** self.params.v
        return (bv, bv * bv) if tag == "t2_i" else (bv * bv, bv**3)


def case_norming(params: GedParams, case: TheoremCase,
                 n: int | float | None = None, *,
                 log_n: float | None = None) -> LinearNorming:
    """The norming family each case verifies against."""
    return NormedCase(params, case, n, log_n).norming


def exact_deficit(cell: NormedCase, x: float) -> float:
    """1 - theta with theta = n e^x (1 - G_v(z_n(x))), from the exact tail,
    where z_n(x) = (scale x + shift)^(1/p) is the threshold on |M_{n,r}|.

    In the Laplace unit-power case the norming calibrates the tail exactly
    (theta = 1 for z > 0), so the deficit is returned as an exact zero
    rather than re-deriving it from the tail at O(1e-16) noise that a
    second-order sweep would amplify by n^2.
    """
    norming = cell.norming
    arg = norming.scale * x + norming.shift
    if not arg > 0.0:
        raise ValueError(
            f"normed point scale*x+shift = {arg} is not positive at x={x}; "
            "n is too small for this x"
        )
    if cell.case.tag == "t1_i":
        return 0.0
    z = arg ** (1.0 / cell.case.p)
    return -math.expm1(norming.log_n + x + log_survival(cell.params, z))


def _lemma_deficit(cell: NormedCase, x: float) -> float:
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
                - (1.0 - vi) ** 2 * (1.0 - math.log(2.0) - log_gamma(vi) + x) / s2)
    if tag == "t2_i":
        return (correction_h(params, p, x) / s1
                + correction_q(params, p, x) / s2) * math.exp(x)
    return (correction_s(params, x) / s1 + correction_b(params, x) / s2) * math.exp(x)


def theta_deficit(cell: NormedCase, x: float) -> tuple[float, float]:
    """(exact, predicted) tail deficit 1 - theta at the case's normed point.

    The exact channel never touches the expansions, so comparing the two
    isolates expansion error from tail-evaluation error.
    """
    return exact_deficit(cell, x), _lemma_deficit(cell, x)


def _check_v_not_one(v: float, name: str) -> None:
    if abs(v - 1.0) <= EQ_TOL:
        raise ValueError(f"{name} degenerates at v = 1")


def correction_h(params: GedParams, p: float, x: float) -> float:
    """First-order correction h_v(x) of the calibration-root case."""
    v, vi = params.v, 1.0 / params.v
    lam_v = params.lam ** v
    poly = (vi * (v - p) * lam_v * x * x
            - 2.0 * vi * (1.0 - v) * lam_v * x
            - 2.0 * (vi - 1.0) * lam_v)
    return poly * math.exp(-x)


def correction_q(params: GedParams, p: float, x: float) -> float:
    """Second-order correction q_v(x) of the calibration-root case.

    The two published forms of its constant term disagree; this is the
    eq34 form, -4(1/v-1)(1/v-2) lam^2v, which numerical fits of the exact
    deficit select over eq22's -4(1/v-1)^2 lam^2v (see the README
    verification notes).
    """
    v, vi = params.v, 1.0 / params.v
    _check_v_not_one(v, "correction_q")
    lam2 = params.lam ** (2.0 * v)
    poly = (-0.5 * lam2 * vi * vi * (v - p) ** 2 * x**4
            + vi * vi * (v - p) * lam2 * (2.0 - 4.0 * v / 3.0 - 4.0 * p / 3.0) * x**3
            - 2.0 * vi * vi * (1.0 - v) * lam2 * x * x
            - 4.0 * (vi - 1.0) * (vi - 2.0) * lam2 * x
            - 4.0 * (vi - 1.0) * (vi - 2.0) * lam2)
    return poly * math.exp(-x)


def correction_s(params: GedParams, x: float) -> float:
    """Second-order correction s_v(x) of the corrected (p = v) case."""
    v, vi = params.v, 1.0 / params.v
    _check_v_not_one(v, "correction_s")
    lam2 = params.lam ** (2.0 * v)
    poly = 2.0 * (vi - 1.0) * lam2 * (
        x * x - 2.0 * (vi - 2.0) * x - (3.0 * vi - 5.0)
    )
    return poly * math.exp(-x)


def correction_b(params: GedParams, x: float) -> float:
    """Third-order correction b_v(x) of the corrected (p = v) case."""
    v, vi = params.v, 1.0 / params.v
    _check_v_not_one(v, "correction_b")
    lam3 = params.lam ** (3.0 * v)
    poly = -4.0 / 3.0 * (vi - 1.0) * lam3 * (
        (4.0 - vi) * (vi - 1.0) * x**3
        - 6.0 * (vi - 2.0) * x * x
        - 6.0 * (3.0 * vi - 5.0) * x
        + (2.0 * vi * vi - 22.0 * vi + 32.0)
    )
    return poly * math.exp(-x)


@dataclass(frozen=True)
class ExpansionEval:
    """Leading term and the additive first/second-order corrections.

    ``first_order`` and ``second_order`` are the terms as they enter the
    CDF approximation; multiplying them by ``scale_first`` and
    ``scale_second`` recovers the two limit values of the double-limit
    statement.
    """

    leading: float
    first_order: float
    second_order: float
    scale_first: float
    scale_second: float


def expand(cell: NormedCase, r: int, x: float) -> ExpansionEval:
    """Leading term, correction terms, and the cell's scale factors at x."""
    if not 1 <= r <= 171:
        raise ValueError(f"need 1 <= r <= 171, where (r-1)! is a finite double; got r={r}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    s1, s2 = cell.scales
    leading = gumbel_r(r, x)
    params, tag, p = cell.params, cell.case.tag, cell.case.p
    lam, fact = gumbel(x), math.factorial(r - 1)
    if tag == "t1_i":
        ex = math.exp(x)
        t1 = lam * math.exp(-(r + 1.0) * x) * ((r - 1.0) * ex - 1.0) / (2.0 * fact)
        poly = ((-3.0 * r**3 + 10.0 * r**2 - 9.0 * r + 2.0) * ex * ex
                + (9.0 * r**2 - 11.0 * r + 2.0) * ex
                + 3.0 / ex - 9.0 * r + 1.0)
        t2 = lam * math.exp(-(r + 2.0) * x) * poly / (24.0 * fact)
    elif tag == "t1_ii":
        t1 = (1.0 - p) * x * x * math.exp(-r * x) * lam / (2.0 * fact)
        bracket = (4.0 * (1.0 - 2.0 * p) - 3.0 * (1.0 - p) * r * x
                   + 3.0 * (1.0 - p) * x * math.exp(-x))
        t2 = (1.0 - p) * x**3 * math.exp(-r * x) * bracket * lam / (24.0 * fact)
    elif tag == "t1_iii":
        vi = 1.0 / params.v
        t1 = (1.0 - vi) ** 3 * math.exp(-r * x) * lam / (2.0 * fact)
        t2 = (-(1.0 - vi) ** 2 * (1.0 - math.log(2.0) - log_gamma(vi) + x)
              * math.exp(-r * x) * lam / fact)
    else:
        pref = math.exp(-(r - 1.0) * x) / fact * lam
        if tag == "t2_i":
            h, q = correction_h(params, p, x), correction_q(params, p, x)
            t1 = h * pref
            t2 = (q + (1.0 - (r - 1.0) * math.exp(x)) * h * h / 2.0) * pref
        else:
            t1 = correction_s(params, x) * pref
            t2 = correction_b(params, x) * pref
    return ExpansionEval(leading, t1 / s1, t2 / s2, s1, s2)


def theorem_expansion(params: GedParams, case: TheoremCase, r: int,
                      n: int | float | None, x: float, *,
                      log_n: float | None = None) -> ExpansionEval:
    """:func:`expand` at one point, on a one-off :class:`NormedCase`."""
    return expand(NormedCase(params, case, n, log_n), r, x)
