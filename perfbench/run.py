"""Benchmark for gedpower: one workload per fresh single-threaded process.

    python3 perfbench/run.py --workload sweep-logn --seed 1 --seconds 15 --trace 0

Run it from a checkout of the repository: the package is imported from the
``src/`` directory next to ``perfbench/``, never from site-packages.  With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json
(closed loop, one client, tracing off); with ``--trace 1`` it installs span
recorders on the library and reports the per-layer metrics instead.
Correctness checks run outside the timed region on every run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context and check details, which are also written to
``.perfbench_out/``.  Exit code 1 means a check failed, 2 that the package
or the benchmark description could not be found.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7        # fresh processes timed for setup_s
COLD_STARTS = 5         # CLI subprocesses timed for cli.cold_start_s
TRACED_QUERIES = 2000   # fixed work of one traced point-queries run
CLI_COMMAND = ("dist", "--v", "2", "--what", "survival", "--x", "3")


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule);
    0.0 for an empty sample."""
    xs = sorted(float(x) for x in values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _setup_seconds(workload: str, seed: int) -> list[float]:
    probe = Path(__file__).with_name("probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _cli_cold_start(gp) -> tuple[float, list[str]]:
    """Median wall time of the CLI as a subprocess, and check its answer."""
    expected = gp.survival(gp.make_params(2.0), 3.0)
    walls, problems = [], []
    cmd = [sys.executable, "-m", "gedpower", *CLI_COMMAND]
    for _ in range(COLD_STARTS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        walls.append(perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and float(proc.stdout) == expected
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"cli printed {proc.stdout!r} (exit "
                            f"{proc.returncode}), expected {expected!r}")
    return statistics.median(walls), problems


def _measure_sweeps(wl, config, seconds):
    from workloads import digest, row_failed

    path = OUT / f"{wl.name}.{config.fmt}"
    latencies, digests = [], []
    rows_total = failed = 0
    checks = None
    deadline = perf_counter() + seconds
    while len(latencies) < 2 or perf_counter() < deadline:
        t0 = perf_counter()
        rows = wl.op(config, path)
        latencies.append(perf_counter() - t0)
        digests.append(digest(path))
        rows_total += len(rows)
        failed += sum(row_failed(r.error) for r in rows)
        if checks is None:
            checks = wl.check(config, rows)
        del rows
    return latencies, rows_total, failed, checks, digests


def _measure_queries(wl, stream, seconds):
    # 8 bytes a sample, so a faster program barely moves peak_rss_mb
    latencies, problems = array("d"), []
    failed = 0
    deadline = perf_counter() + seconds
    while not latencies or perf_counter() < deadline:
        block = stream.block(wl.block_size)
        lat, results = wl.run_block(block)
        latencies.extend(lat)
        chk = wl.check_block(block, results)
        failed += chk["failed"]
        problems.extend(chk["problems"])
    return latencies, len(latencies), failed, {"problems": problems}, []


def run_untraced(wl, inputs, args, setup_main: float) -> dict:
    setup = _setup_seconds(args.workload, args.seed)
    measure = _measure_sweeps if wl.kind == "sweep" else _measure_queries
    latencies, done, failed, checks, digests = measure(wl, inputs, args.seconds)
    peak = _peak_rss_mb()
    busy = sum(latencies)
    problems = list(checks.pop("problems"))
    if len(set(digests)) > 1:
        problems.append(f"repeated sweeps emitted different bytes: {sorted(set(digests))}")
    metrics = {
        "rows_per_s": done / busy,
        "queries_per_s": len(latencies) / busy,
        "query_us_p50": percentile(latencies, 50) * 1e6,
        "query_us_p99": percentile(latencies, 99) * 1e6,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
    }
    details = {"queries": len(latencies), "busy_s": busy, "setup_probes_s": setup,
               "latencies_s": latencies if wl.kind == "sweep" else None,
               "setup_main_s": setup_main, "sha256": sorted(set(digests)),
               "error_share": failed / done, **checks}
    return {"attempted": done, "failed": failed, "problems": problems,
            "metrics": metrics, "details": details}


SPAN_KEYS = {
    "ged.make_params": lambda v: v,
    "norming.solve_bn": lambda params, n=None, *, log_n=None, acc=None: (
        params.v, math.log(n) if n is not None else float(log_n)),
    "orderstats.mc_powered_cdf": lambda params, spec, y, reps, seed, budget=None: (
        spec.n * reps),
}


def _layer_metrics(summary, rec, emitted_bytes: int) -> dict:
    by = summary["by_name"]
    layer_self = summary["self_s"]

    def calls(name):
        return by[name]["calls"] if name in by else 0

    def us_p50(name):
        return percentile(by[name]["durations"], 50) * 1e6 if name in by else 0.0

    def distinct(name):
        return len(set(rec.keys.get(name, ())))

    draws = sum(rec.keys.get("orderstats.mc_powered_cdf", ()))
    mc_s = by["orderstats.mc_powered_cdf"]["total_s"] if draws else 0.0
    return {
        "specfun.calls": sum(s["calls"] for n, s in by.items()
                             if n.startswith("specfun.")),
        "specfun.self_s": layer_self["specfun"],
        "specfun.log_gamma.calls": calls("specfun.log_gamma"),
        "specfun.inv_reg_gamma_upper.us_p50": us_p50("specfun.inv_reg_gamma_upper"),
        "ged.make_params.calls": calls("ged.make_params"),
        "ged.make_params.distinct": distinct("ged.make_params"),
        "ged.self_s": layer_self["ged"],
        "ged.quantile.us_p50": us_p50("ged.quantile"),
        "norming.solve_bn.calls": calls("norming.solve_bn"),
        "norming.solve_bn.distinct": distinct("norming.solve_bn"),
        "norming.solve_bn.us_p50": us_p50("norming.solve_bn"),
        "norming.self_s": layer_self["norming"],
        "orderstats.cdf_gap_from_deficit.us_p50": us_p50("orderstats.cdf_gap_from_deficit"),
        "orderstats.lower_tail_mass.calls": calls("orderstats.lower_tail_mass"),
        "orderstats.self_s": layer_self["orderstats"],
        "orderstats.mc_powered_cdf.draws": draws,
        "orderstats.mc_powered_cdf.draws_per_s": draws / mc_s if mc_s else 0.0,
        "expansions.classify_case.calls": calls("expansions.classify_case"),
        "expansions.theorem_expansion.us_p50": us_p50("expansions.theorem_expansion"),
        "expansions.self_s": layer_self["expansions"],
        "harness.run_sweep.self_s": by["harness.run_sweep"]["self_s"]
        if "harness.run_sweep" in by else 0.0,
        "harness.emit.s": by["harness.emit"]["total_s"] if "harness.emit" in by else 0.0,
        "harness.emit.bytes": emitted_bytes,
    }


def run_traced(wl, inputs, args, gp) -> dict:
    """Untraced reference runs of a fixed piece of work, then the same work
    once with every span recorded; the spans give the per-layer metrics."""
    from spans import Recorder, summarize, tracing
    from workloads import digest, no_span, row_failed

    problems = []
    if wl.kind == "sweep":
        config = inputs
        path = OUT / f"{wl.name}.{config.fmt}"

        def work(span=no_span):
            rows = wl.op(config, path, span)
            return len(rows), sum(row_failed(r.error) for r in rows), digest(path), rows
    else:
        queries = inputs.block(TRACED_QUERIES)

        def work(span=no_span):
            _, results = wl.run_block(queries, span)
            chk = wl.check_block(queries, results)
            problems.extend(chk["problems"])
            return len(queries), chk["failed"], [repr(r) for r in results], None

    walls, evidence = [], []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds / 2
    while not walls or perf_counter() < deadline:
        t0 = perf_counter()
        done, bad, ev, rows = work()
        walls.append(perf_counter() - t0)
        attempted, failed = attempted + done, failed + bad
        if rows is not None and len(walls) == 1:
            problems.extend(wl.check(config, rows)["problems"])
        evidence.append(ev)
        del rows

    rec = Recorder()
    with tracing(rec, SPAN_KEYS):
        t0 = perf_counter()
        done, bad, ev, rows = work(rec.root)
        traced_wall = perf_counter() - t0
    del rows
    attempted, failed = attempted + done, failed + bad
    if any(e != ev for e in evidence):
        problems.append("traced and untraced runs of the same work differ")

    emitted = path.stat().st_size if wl.kind == "sweep" else 0
    metrics = _layer_metrics(summarize(rec), rec, emitted)
    metrics["cli.cold_start_s"], cli_problems = _cli_cold_start(gp)
    problems.extend(cli_problems)
    metrics["trace.overhead"] = traced_wall / statistics.median(walls)
    rec.save(OUT / f"spans-{wl.name}.npz")
    details = {"untraced_walls_s": walls, "traced_wall_s": traced_wall,
               "spans": len(rec.start)}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "details": details}


def _declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gedpower" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {SRC / 'gedpower'} or {ROOT / 'BENCHMARK.json'} "
              "is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    t0 = perf_counter()
    import gedpower as gp
    from workloads import WORKLOADS
    if Path(gp.__file__).resolve().parent != (SRC / "gedpower").resolve():
        print(f"perfbench: imported gedpower from {gp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    setup_main = perf_counter() - t0

    if args.trace:
        res = run_traced(wl, inputs, args, gp)
    else:
        res = run_untraced(wl, inputs, args, setup_main)

    import numpy
    declared = _declared_metrics(args.trace)
    if set(declared) != set(res["metrics"]):
        print(f"perfbench: metrics {sorted(res['metrics'])} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 2
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "nproc": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "numpy": numpy.__version__,
               "gedpower": gp.__version__, "src_lines": _src_lines()}
    correct = not res["problems"]
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }
    report = {"context": context, "problems": res["problems"][:20],
              "details": res["details"]}
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({**report, "result": result}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
