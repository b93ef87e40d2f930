"""Limit law, correction polynomials, the exact tail deficit, and the
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
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .ged import EQ_TOL, GedParams, log_survival
from .norming import (
    BnSolution,
    LinearNorming,
    _corrected,
    _hall_pair,
    power_constants,
    resolve_log_n,
    solve_bn,
)
from .specfun import exp_or_inf, log_gamma, pow_or_inf

__all__ = [
    "TheoremCase",
    "NormedCase",
    "ExpansionEval",
    "gumbel_r",
    "classify_case",
    "case_norming",
    "exact_deficit",
    "correction_h",
    "correction_q",
    "correction_s",
    "correction_b",
    "expand_ranks",
    "theorem_expansion",
]

_MAX_RANK = 171  # the largest r whose (r-1)! is a finite double


def _rank_weights(r: int, x: float) -> list[float]:
    """The addends Lambda(x) e^(-jx)/j!, j < r, of Lambda_r(x); 1, 0, ... at
    x = inf and 0, 0, ... where e^(-x) overflows."""
    emx = exp_or_inf(-x)
    if emx == math.inf:
        return [0.0] * r
    return [math.exp(-emx - j * x - math.lgamma(j + 1.0)) if j else math.exp(-emx)
            for j in range(r)]


def _check_ranks(ranks) -> None:
    """Reject a rank list that is empty, starts below 1 or is not strictly
    increasing; the all-rank functions read each rank once, in order."""
    if not ranks or ranks[0] < 1 or any(map(operator.ge, ranks, ranks[1:])):
        raise ValueError(f"ranks must be >= 1 and strictly increasing, got {tuple(ranks)}")


def gumbel_r(r: int, x: float) -> float:
    """Limit law of the r-th largest: Lambda(x) sum_{j<r} e^(-jx)/j!; zero for
    r <= 0.  At most 1: each weight's exponent carries an error of about
    |exponent| eps, which at large r can lift the sum past 1."""
    return min(math.fsum(_rank_weights(r, x)), 1.0)


_XTerms = namedtuple("_XTerms", "ranks x emx weights limits ws tails")


def _x_terms(ranks, x: float) -> _XTerms:
    """What the rows of ``ranks`` at x share in every cell: e^(-x), the rank
    weights, and per rank Lambda_r(x) and the w and tail of :func:`expand_ranks`
    (0.0 past rank 171, where (r-1)! is not a double)."""
    emx = exp_or_inf(-x)
    weights = _rank_weights(ranks[-1], x)
    ws = [math.exp(-emx - 0.5 * r * x) if r <= _MAX_RANK else 0.0 for r in ranks]
    return _XTerms(ranks, x, emx, weights,
                   [min(math.fsum(weights[:r]), 1.0) for r in ranks], ws,
                   [math.exp(-0.5 * r * x) / math.factorial(r - 1) if w else 0.0
                    for r, w in zip(ranks, ws)])


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
    def root(self) -> BnSolution:
        """A t2 cell's calibration root b_n, solved once; norming and scales read it."""
        return solve_bn(self.params, self.n, log_n=self.log_n)

    @cached_property
    def norming(self) -> LinearNorming:
        """The norming family the case verifies against; a t2 pair reads :attr:`root`."""
        if self.case.tag.startswith("t1"):
            return power_constants(self.params, self.case.p, self.n, log_n=self.log_n)
        if self.case.tag == "t2_i":
            return _hall_pair(self.params, self.case.p, self.root)
        return _corrected(self.params, _hall_pair(self.params, self.params.v, self.root))

    @cached_property
    def scales(self) -> tuple[float, float]:
        """The divergent multipliers attached to the first and second order.

        (n, n^2) for t1_i; (log(n/2), log n log(n/2)) for t1_ii;
        (log n/(loglog n)^2, log n/loglog n) for t1_iii -- the second
        multiplier follows the statement literally, i.e. loglog n applied to
        the residual; (b^v, b^2v) for t2_i and (b^2v, b^3v) for t2_ii.
        A scale that overflows a double is a ValueError naming the case,
        v and log n.
        """
        ln = resolve_log_n(self.n, self.log_n, min_n=3)
        tag, v = self.case.tag, self.params.v
        if tag == "t1_i":
            nn = float(self.n) if self.n is not None else exp_or_inf(ln)
            s1, s2 = nn, nn * nn
        elif tag == "t1_ii":
            s1 = ln - math.log(2.0)
            s2 = ln * s1
        elif tag == "t1_iii":
            ll = math.log(ln)
            s1 = ln / (ll * ll)
            s2 = s1 * ll
        else:
            bv = pow_or_inf(self.root.b_n, v)
            s1, s2 = (bv, bv * bv) if tag == "t2_i" else (bv * bv, pow_or_inf(bv, 3))
        if not (math.isfinite(s1) and math.isfinite(s2)):
            raise ValueError(f"{tag} scales overflow a double for v={v}, log_n={ln}")
        return s1, s2


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
    z = pow_or_inf(arg, 1.0 / cell.case.p)
    if z == math.inf:
        raise ValueError(f"z = (scale*x+shift)^(1/p) overflows a double at x={x}")
    log_theta = norming.log_n + x + log_survival(cell.params, z)
    if exp_or_inf(log_theta) == math.inf:
        raise ValueError(f"theta = n e^x S(z) overflows a double at x={x}")
    return -math.expm1(log_theta)


def _check_v_not_one(v: float, name: str) -> None:
    if abs(v - 1.0) <= EQ_TOL:
        raise ValueError(f"{name} degenerates at v = 1")


def _poly_h(params: GedParams, p: float, x: float) -> float:
    """h_v(x) e^x."""
    v, vi = params.v, 1.0 / params.v
    lam_v = params.lam ** v
    return (vi * (v - p) * lam_v * x * x
            - 2.0 * vi * (1.0 - v) * lam_v * x
            - 2.0 * (vi - 1.0) * lam_v)


def correction_h(params: GedParams, p: float, x: float) -> float:
    """First-order correction h_v(x) of the calibration-root case."""
    return _poly_h(params, p, x) * math.exp(-x)


def _poly_q(params: GedParams, p: float, x: float) -> float:
    """q_v(x) e^x."""
    v, vi = params.v, 1.0 / params.v
    _check_v_not_one(v, "correction_q")
    lam2 = params.lam ** (2.0 * v)
    return (-0.5 * lam2 * vi * vi * (v - p) ** 2 * x**4
            + vi * vi * (v - p) * lam2 * (2.0 - 4.0 * v / 3.0 - 4.0 * p / 3.0) * x**3
            - 2.0 * vi * vi * (1.0 - v) * lam2 * x * x
            - 4.0 * (vi - 1.0) * (vi - 2.0) * lam2 * x
            - 4.0 * (vi - 1.0) * (vi - 2.0) * lam2)


def correction_q(params: GedParams, p: float, x: float) -> float:
    """Second-order correction q_v(x) of the calibration-root case.

    The two published forms of its constant term disagree; this is the
    eq34 form, -4(1/v-1)(1/v-2) lam^2v, which numerical fits of the exact
    deficit select over eq22's -4(1/v-1)^2 lam^2v (see the README
    verification notes).
    """
    return _poly_q(params, p, x) * math.exp(-x)


def _poly_s(params: GedParams, x: float) -> float:
    """s_v(x) e^x."""
    v, vi = params.v, 1.0 / params.v
    _check_v_not_one(v, "correction_s")
    lam2 = params.lam ** (2.0 * v)
    return 2.0 * (vi - 1.0) * lam2 * (x * x - 2.0 * (vi - 2.0) * x - (3.0 * vi - 5.0))


def correction_s(params: GedParams, x: float) -> float:
    """Second-order correction s_v(x) of the corrected (p = v) case."""
    return _poly_s(params, x) * math.exp(-x)


def _poly_b(params: GedParams, x: float) -> float:
    """b_v(x) e^x."""
    v, vi = params.v, 1.0 / params.v
    _check_v_not_one(v, "correction_b")
    lam3 = params.lam ** (3.0 * v)
    return -4.0 / 3.0 * (vi - 1.0) * lam3 * (
        (4.0 - vi) * (vi - 1.0) * x**3
        - 6.0 * (vi - 2.0) * x * x
        - 6.0 * (3.0 * vi - 5.0) * x
        + (2.0 * vi * vi - 22.0 * vi + 32.0)
    )


def correction_b(params: GedParams, x: float) -> float:
    """Third-order correction b_v(x) of the corrected (p = v) case."""
    return _poly_b(params, x) * math.exp(-x)


class ExpansionEval(NamedTuple):
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


def _term_polys(params: GedParams, tag: str, p: float, ranks, x: float, emx: float) -> list:
    """The first- and second-order terms of :func:`expand_ranks` over the rank
    weight Lambda(x) e^(-rx)/(r-1)!, at each rank: polynomials in x and emx = e^(-x)."""
    if tag == "t1_i":
        return [((r - 1.0 - emx) / 2.0, ((-3.0 * r**3 + 10.0 * r**2 - 9.0 * r + 2.0)
                 + emx * ((9.0 * r**2 - 11.0 * r + 2.0) + emx * (1.0 - 9.0 * r + 3.0 * emx)))
                 / 24.0) for r in ranks]
    if tag == "t1_ii":
        c, a = 3.0 * (1.0 - p), 4.0 * (1.0 - 2.0 * p)
        t1, head, e = (1.0 - p) * x * x / 2.0, (1.0 - p) * x**3, c * x * emx
        return [(t1, head * (a - c * r * x + e) / 24.0) for r in ranks]
    if tag == "t1_iii":
        vi = 1.0 / params.v
        return [((1.0 - vi) ** 3 / 2.0,
                 -(1.0 - vi) ** 2 * (1.0 - math.log(2.0) - log_gamma(vi) + x))] * len(ranks)
    if tag == "t2_i":
        h, q = _poly_h(params, p, x), _poly_q(params, p, x)
        return [(h, q + (emx - (r - 1.0)) * h * h / 2.0) for r in ranks]
    return [(_poly_s(params, x), _poly_b(params, x))] * len(ranks)


def expand_ranks(cell: NormedCase, ranks, x: float) -> list[ExpansionEval]:
    """Leading term, correction terms, and the cell's scale factors at x and
    each of the strictly increasing ``ranks``.

    Each term is a polynomial of :func:`_term_polys` times the rank weight,
    formed as (poly w)(h/(r-1)!) with h = e^(-rx/2) and w = Lambda(x) h taken
    as one exponential, e^(-e^(-x) - rx/2), so w stays normal left of where
    Lambda(x) underflows.  Where w is not 0.0, h is finite (x > -7.3 at
    r <= 171); no factor leaves the double range, and only the last product
    can round into the subnormal range.  Both terms are 0.0 where w is; the
    ranks share the polynomials, formed only where some rank's w is not.
    """
    _check_ranks(ranks)
    if not ranks[-1] <= _MAX_RANK:
        raise ValueError(f"need r <= {_MAX_RANK}, where (r-1)! is a finite double; "
                         f"got r={ranks[-1]}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return _expand(cell, _x_terms(ranks, x))


def _expand(cell: NormedCase, terms: _XTerms) -> list[ExpansionEval]:
    """:func:`expand_ranks` on :func:`_x_terms`."""
    s1, s2 = cell.scales
    ranks, x, emx, _, limits, ws, tails = terms
    polys = _term_polys(cell.params, cell.case.tag, cell.case.p, ranks, x, emx) if any(ws) else ws
    out = []
    for limit, w, tail, poly in zip(limits, ws, tails, polys):
        t1 = t2 = 0.0
        if w:
            t1, t2 = poly[0] * w * tail / s1, poly[1] * w * tail / s2
        out.append(ExpansionEval(limit, t1, t2, s1, s2))
    return out


def theorem_expansion(params: GedParams, case: TheoremCase, r: int,
                      n: int | float | None, x: float, *,
                      log_n: float | None = None) -> ExpansionEval:
    """:func:`expand_ranks` at one rank and x, on a one-off :class:`NormedCase`."""
    return expand_ranks(NormedCase(params, case, n, log_n), (r,), x)[0]
