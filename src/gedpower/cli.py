"""Command-line front end.

Single-point queries (dist, norming, solve-bn, exact, expand, simulate)
print space-separated numbers on stdout; ``verify`` runs a sweep and
writes a CSV/JSON file.  Progress goes to stderr.  Exit codes: 0 on
success, 2 for configuration errors, 3 when an iterative solve fails to
converge in a single-point command.
"""

import argparse
import json
import sys

from . import __version__
from .expansions import classify_case, theorem_expansion
from .ged import cdf, make_params, pdf, quantile, survival
from .harness import ConfigError, SweepConfig, emit, run_sweep
from .norming import (
    gumbel_constants,
    hall_constants,
    optimal_constants,
    power_constants,
    solve_bn,
)
from .orderstats import (
    BudgetError,
    OrderStatSpec,
    exact_powered_cdf,
    mc_powered_cdf,
    poisson_powered_cdf,
)
from .specfun import ConvergenceError

_G17 = ".17g"


def _fmt(*values: float) -> str:
    return " ".join(format(v, _G17) for v in values)


def _parse_n_item(text: str) -> int:
    value = float(text)
    if not value.is_integer() or not 1 <= value < 2**63:
        raise argparse.ArgumentTypeError(
            f"n must be an integer in [1, 2^63), got {text!r}"
        )
    return int(value)


def _split(text: str) -> list[str]:
    return [item for item in text.split(",") if item]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_whole(value) -> bool:
    return _is_number(value) and float(value).is_integer()


def _is_text(value) -> bool:
    return isinstance(value, str)


# Every verify input, by config key (the flag name with _ for -): its
# SweepConfig field, the check a config value (or each item of a grid) must
# pass, the converter a flag or value (or item) goes through, its help text.
_VERIFY_KEYS = {
    "v": ("v_list", _is_number, float, "comma-separated shape grid"),
    "p": ("p_list", _is_number, float, "comma-separated power grid"),
    "r": ("r_list", _is_whole, int, "comma-separated rank grid"),
    "n": ("n_ladder", lambda n: _is_whole(n) and 1 <= n < 2**63, _parse_n_item,
          "comma-separated integer ladder"),
    "ln_n": ("log_n_ladder", _is_number, float, "comma-separated log-n ladder"),
    "x_min": ("x_min", _is_number, float, "first x of the grid"),
    "x_max": ("x_max", _is_number, float, "last x of the grid"),
    "x_step": ("x_step", _is_number, float, "spacing of the x grid"),
    "theorem": ("theorem", _is_text, str, "1, 2, or a case tag like t1_iii"),
    "out": ("out", _is_text, str, "output path"),
    "format": ("fmt", _is_text, str, "csv or json"),
    "seed": ("seed", _is_whole, int, "Monte Carlo seed"),
    "mc_reps": ("mc_reps", _is_whole, int, "Monte Carlo replications (0: none)"),
}


def _is_grid(field: str) -> bool:
    return field.endswith(("_list", "_ladder"))  # SweepConfig's grid fields


def _add_mode_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_parse_n_item, help="exact sample size")
    group.add_argument("--ln-n", dest="ln_n", type=float,
                       help="log of the sample size (asymptotic mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gedpower",
        description="Powered GED order statistics: exact laws, norming "
                    "constants, and convergence-rate verification sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("dist", help="evaluate pdf/cdf/survival/quantile at a point")
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--what", choices=("pdf", "cdf", "survival", "quantile"),
                    required=True)
    sp.add_argument("--x", type=float, help="evaluation point (pdf/cdf/survival)")
    sp.add_argument("--u", type=float, help="probability level (quantile)")

    sp = subs.add_parser("norming", help="print scale and shift of a family")
    sp.add_argument("--family", choices=("gumbel", "power", "hall", "optimal"),
                    required=True)
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--p", type=float, default=1.0)
    _add_mode_args(sp)

    sp = subs.add_parser("solve-bn", help="solve the tail-calibration equation")
    sp.add_argument("--v", type=float, required=True)
    _add_mode_args(sp)

    sp = subs.add_parser("exact", help="exact P(|M_{n,r}|^p <= y)")
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--y", type=float, required=True)
    _add_mode_args(sp)

    sp = subs.add_parser("expand", help="theorem terms and scales at a point")
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--theorem", choices=("1", "2"), required=True)
    _add_mode_args(sp)

    sp = subs.add_parser("verify", help="run a sweep and write CSV/JSON rows")
    sp.add_argument("--config", help="JSON file with sweep defaults")
    ladder = sp.add_mutually_exclusive_group()
    for key, (field, _, conv, help_text) in _VERIFY_KEYS.items():
        (ladder if key in ("n", "ln_n") else sp).add_argument(
            "--" + key.replace("_", "-"), dest=key, help=help_text,
            type=_split if _is_grid(field) else conv)

    sp = subs.add_parser("simulate", help="Monte Carlo estimate of the exact law")
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--n", type=_parse_n_item, required=True)
    sp.add_argument("--mc-reps", dest="mc_reps", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_dist(args) -> str:
    params = make_params(args.v)
    if args.what == "quantile":
        if args.u is None:
            raise ConfigError("quantile needs --u")
        return _fmt(quantile(params, args.u))
    if args.x is None:
        raise ConfigError(f"{args.what} needs --x")
    fn = {"pdf": pdf, "cdf": cdf, "survival": survival}[args.what]
    return _fmt(fn(params, args.x))


def _cmd_norming(args) -> str:
    params = make_params(args.v)
    if args.family == "gumbel":
        nm = gumbel_constants(params, args.n, log_n=args.ln_n)
    elif args.family == "power":
        nm = power_constants(params, args.p, args.n, log_n=args.ln_n)
    elif args.family == "hall":
        nm = hall_constants(params, args.p, args.n, log_n=args.ln_n)
    else:
        nm = optimal_constants(params, args.n, log_n=args.ln_n)
    return _fmt(nm.scale, nm.shift)


def _cmd_solve_bn(args) -> str:
    sol = solve_bn(make_params(args.v), args.n, log_n=args.ln_n)
    return _fmt(sol.b_n, sol.residual)


def _cmd_exact(args) -> str:
    params = make_params(args.v)
    if args.n is not None:
        spec = OrderStatSpec(n=args.n, r=args.r, p=args.p)
        return _fmt(exact_powered_cdf(params, spec, args.y))
    return _fmt(poisson_powered_cdf(params, args.r, args.p, args.y, args.ln_n))


def _cmd_expand(args) -> str:
    params = make_params(args.v)
    case = classify_case(args.v, args.p, theorem=int(args.theorem))
    ee = theorem_expansion(params, case, args.r, args.n, args.x,
                           log_n=args.ln_n)
    return _fmt(ee.leading, ee.first_order, ee.second_order,
                ee.scale_first, ee.scale_second)


def _cmd_simulate(args) -> str:
    params = make_params(args.v)
    spec = OrderStatSpec(n=args.n, r=args.r, p=args.p)
    est, se = mc_powered_cdf(params, spec, args.y, args.mc_reps, args.seed)
    return _fmt(est, se)


def _read_config(path: str) -> dict:
    """Load a verify config file; reject unknown keys and mistyped values."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON "
                          f"object, got {type(cfg).__name__}")
    for key, value in cfg.items():
        if key not in _VERIFY_KEYS:
            raise ConfigError(f"unknown config key {key!r}; expected one of "
                              f"{', '.join(_VERIFY_KEYS)}")
        field, check, _, _ = _VERIFY_KEYS[key]
        if _is_grid(field) and not isinstance(value, list):
            raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
        items = value if _is_grid(field) else [value]
        if any(isinstance(item, int) and abs(item) > sys.float_info.max for item in items):
            raise ConfigError(f"config key {key!r} has an integer too large for a "
                              f"double (magnitude above {sys.float_info.max:.6g})")
        if not all(map(check, items)):
            raise ConfigError(f"config key {key!r} has a value of the wrong "
                              f"type: {value!r}")
    return cfg


def _sweep_config(args) -> SweepConfig:
    """Lay the given flags over the config file; SweepConfig's own defaults
    fill every key that neither holds."""
    given = _read_config(args.config) if args.config else {}
    given.update((key, getattr(args, key)) for key in _VERIFY_KEYS
                 if getattr(args, key) is not None)
    if not {"v", "p", "r"} <= given.keys():
        raise ConfigError("verify needs --v, --p and --r (flags or config file)")
    fields = {}
    for key, value in given.items():
        field, _, conv, _ = _VERIFY_KEYS[key]
        fields[field] = tuple(map(conv, value)) if _is_grid(field) else conv(value)
    return SweepConfig(**fields)


def _cmd_verify(args) -> int:
    config = _sweep_config(args)
    if not config.out:
        raise ConfigError("verify needs --out (flag or config file)")
    rows = run_sweep(config, progress=sys.stderr)
    emit(rows, config.fmt, config.out)
    print(f"wrote {len(rows)} rows to {config.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        handler = {
            "dist": _cmd_dist,
            "norming": _cmd_norming,
            "solve-bn": _cmd_solve_bn,
            "exact": _cmd_exact,
            "expand": _cmd_expand,
            "simulate": _cmd_simulate,
        }[args.command]
        print(handler(args))
        return 0
    except (BudgetError, ValueError, ArithmeticError, OSError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
