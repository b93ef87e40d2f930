"""Hand-made mutants of the row columns, and a runner that checks whether a
test that is not a digest kills each one.

Each mutant is (name, file, old text, new text). The runner copies the tree
to a temporary directory, applies one mutant there, and runs the test suite
without the digest tests; a mutant is killed when some test fails. The
tree itself is never edited. Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py json_inf   # the named ones

The Monte Carlo mutants survive until the sweep's Monte Carlo note scores
rows by their exact binomial tail at the exact path's s (ROADMAP items 11
and 15).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_A_DIGEST = ("not TestBitsPinned and not TestGoldenBytes"
                " and not test_tables_are_unchanged and not test_pinned_estimates")
HARNESS, EXPANSIONS = "src/gedpower/harness.py", "src/gedpower/expansions.py"

MUTANTS = [
    ("remainder_bound_halved", HARNESS,
     "else poisson_remainder_bound(r, x, deficit, cell.log_n)",
     "else 0.5 * poisson_remainder_bound(r, x, deficit, cell.log_n)"),
    ("scaled_err2_times_1e-9", HARNESS,
     "scaled_err2 = ee.scale_second / ee.scale_first * (scaled_err1 - target1)",
     "scaled_err2 = ee.scale_second / ee.scale_first * (scaled_err1 - target1) * (1 + 1e-9)"),
    ("json_inf", HARNESS, '.replace(": inf,", ": null,")', '.replace(": inf,", ": inf,")'),
    ("scales_solve_their_own_root", EXPANSIONS,
     "bv = pow_or_inf(self.root.b_n, v)",
     "bv = pow_or_inf(solve_bn(self.params, log_n=ln * (1 + 1e-15)).b_n, v)"),
    ("mc_s_plus_deficit", HARNESS,
     "(1.0 - rows[i].theta_deficit)", "(1.0 + rows[i].theta_deficit)"),
    ("mc_level_4_sigma", HARNESS, "if abs(z) > 3.0", "if abs(z) > 4.0"),
    ("mc_se_fallback", HARNESS, "math.sqrt(0.25 / config.mc_reps)", "math.sqrt(1.0 / config.mc_reps)"),
]


def run(name: str, path: str, old: str, new: str) -> str:
    """'killed' (a test fails) or 'survived' for one mutant, applied to a copy
    of the tree; any other pytest outcome, such as a collection error, is named."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        source = tree / path
        text = source.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: {old!r} is not in {path} exactly once")
        source.write_text(text.replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-k", NOT_A_DIGEST],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {0: "survived", 1: "killed"}.get(done.returncode,
                                              f"pytest exit code {done.returncode}")


def main(names: list[str]) -> None:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    for mutant in MUTANTS:
        if not names or mutant[0] in names:
            print(f"{mutant[0]}: {run(*mutant)}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
