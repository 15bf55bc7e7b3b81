"""sbgam benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation measures one workload
in a fresh worker process (worker.py) with single-threaded BLAS and
n_jobs=1.  With --trace 0 it prints the end-to-end metrics: the median
time of one unit of work, completed units per second, set-up time (the
median over three fresh processes), peak resident memory and the share
of units that passed their output checks.  With --trace 1 it wraps the
public functions of sbgam's layers from outside and prints per-layer
metrics instead; the spans are written to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Earlier lines repeat every
metric with its unit and sample count, and the run's provenance.  The
exit code is nonzero, with no result line, when the run could not be
made at all, for example when src/sbgam is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# end-to-end metric -> unit, as declared in BENCHMARK.json
END_TO_END = {"fit_s_p50": "s", "fits_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
SETUP_SAMPLES = 3
# a run must end within this many seconds, whatever the workload does
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(extra, deadline):
    cmd = [sys.executable, WORKER] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=_child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest():
    """sha256 over src/sbgam's Python files, so non-git checkouts are
    identified too."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "sbgam")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "sbgam",
                                       "__init__.py")):
        raise BenchError(f"no sbgam sources under {ROOT}/src")
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--workdir", workdir]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_worker(base + ["--setup-only"], deadline))
        res = _run_worker(base + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], deadline)
        if "trace_file" in res:
            kept = os.path.join(OUT_DIR, os.path.basename(res["trace_file"]))
            os.replace(os.path.join(ROOT, res["trace_file"]), kept)
            res["trace_file"] = os.path.relpath(kept, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)

    prov = dict(res["provenance"])
    prov.update({
        "speed_index": res["speed_index"],
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    })
    return res, setups, prov


def report(args, res, setups, prov):
    samples = res["samples"]
    unit = "cell" if args.workload.startswith("study") else "fit"
    per = "replications" if unit == "cell" else "fits"
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    if args.trace:
        metrics = res["layers"]
        lines.append(f"  per traced {unit}, over {sum(res['traced'])} "
                     f"traced {unit}s; ratios, rates and sim.rep_s_p50 "
                     f"as named")
        for name, m in metrics.items():
            lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        lines.append("  self-time shares of traced time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in res["shares"].items() if v >= 0.005))
        lines.append(f"  spans written to {res['trace_file']}")
    else:
        scaled = res["scaled"]
        setup_scaled = [p["setup_scaled"] for p in setups]
        values = {
            "fit_s_p50": statistics.median(scaled),
            "fits_per_s": res["ok_weight"] / sum(scaled),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": res["ok_weight"] / res["attempted"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
        notes = {
            "fit_s_p50": f"median of {len(samples)} {unit}s; wall "
                         f"{statistics.median(samples):.4g} s, min "
                         f"{min(samples):.4g} max {max(samples):.4g}",
            "fits_per_s": f"{res['ok_weight']} {per} passed; wall "
                          f"{res['ok_weight'] / sum(samples):.4g}/s",
            "setup_s": f"median of {len(setups)} fresh processes; wall "
                       + ", ".join(f"{p['setup_s']:.4g}" for p in setups),
            "peak_rss_mb": "worker process",
            "ok_frac": f"failed_frac {res['failed']}/{res['attempted']}",
        }
        lines.append(f"  times are scaled by the speed index "
                     f"{res['speed_index']:.3f} (see calibrate.py)")
        for name, m in metrics.items():
            lines.append(f"  {name:12s} {m['value']:.6g} {m['unit']:5s} "
                         f"({notes[name]})")
    lines.append(f"  outputs (steps, sweeps) or (bad reps, reps used): "
                 f"{res['info']}")
    for problem in res["problems"]:
        lines.append(f"  check failed: {problem}")
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one sbgam benchmark workload.")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    try:
        res, setups, prov = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args, res, setups, prov)
    return 0


if __name__ == "__main__":
    sys.exit(main())
