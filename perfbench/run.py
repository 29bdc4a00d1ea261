"""Layer benchmark for dqdsim.

    python3 perfbench/run.py --workload noise-mc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each run sets the workload up (experiment, device and the cold SCF
solves of its operating points; repeated while the set-ups stay under
SETUP_BUDGET_S, and reported as their median), then calls the experiment
runners in-process until `--seconds` have passed and the workload's minimum
number of iterations is done, then checks the set-up and every output.
With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
sets up once, traces the set-up and the workload's first traced iterations,
runs untraced iterations after them for the overhead comparison, checks
untraced, and reports the per-layer metrics instead. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it, "# record {...}", holds the machine and
build, the seed, the package import time and `failed_frac`.
`--workload all` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import sysinfo
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_BUDGET_S = 1.0


def run_workload(workload_cls, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    from dqdsim import cli
    import_s = time.perf_counter() - t_start

    tracer = spans.Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        wl = workload_cls(workdir, seed)
        if tracer:
            tracer.install()
        setup_times = []
        while not setup_times or (not trace
                                  and sum(setup_times) < SETUP_BUDGET_S):
            t0 = time.perf_counter()
            state = wl.setup(cli)
            setup_times.append(time.perf_counter() - t0)

        outputs, walls, traced_walls = [], [], []
        t_loop = time.perf_counter()
        n_traced = wl.traced_iterations if trace else 0
        min_iterations = n_traced + 1 if trace else wl.min_iterations
        while (len(outputs) < min_iterations
               or time.perf_counter() - t_loop < seconds):
            traced = len(outputs) < n_traced
            if trace and not traced:
                tracer.uninstall()
            t0 = time.perf_counter()
            outputs.append(wl.iterate(
                cli, state, tracer.span if traced else contextlib.nullcontext))
            (traced_walls if traced else walls).append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_span = tracer.span if trace else contextlib.nullcontext
        failed = (wl.setup_failures(cli, state, check_span)
                  + wl.failures(cli, state, outputs))

    attempted = wl.setup_ops + wl.ops_per_iteration * len(outputs)
    if trace:
        # traced iteration 1 fills the program's caches; compare the later ones
        metrics = tracer.layer_metrics(untraced_wall_s=walls,
                                       traced_wall_s=traced_walls[1:])
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "ops_per_s": wl.ops_per_iteration / statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return {
        "machine": sysinfo.machine_info(ROOT, SRC),
        "workload": wl.name,
        "seed": seed,
        "import_s": import_s,
        "setups": len(setup_times),
        "iterations": len(outputs),
        "failed_frac": failed / attempted,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Every workload in a fresh process; prints one table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<10} {'metric':<48} {'value':>14}  unit")
    for name, res in results.items():
        rows = dict(res["metrics"])
        rows["failed_frac"] = {"value": res["failed"] / res["attempted"],
                               "unit": "ratio"}
        for metric, v in rows.items():
            print(f"{name:<10} {metric:<48} {v['value']:>14.6g}  {v['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dqdsim" / "__init__.py").is_file():
        print(f"no dqdsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    record = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    print("# record " + json.dumps({k: v for k, v in record.items()
                                     if k != "result"}, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
