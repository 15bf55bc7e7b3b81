"""Run one workload in a fresh process and print its result as JSON.

Started by run.py, once per set-up sample with --setup-only and once for
the measured run.  Set-up time runs from the first statement of this
file, before numpy or sbgam are imported, to the moment the workload's
inputs are built.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_sbgam():
    """Import sbgam from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sbgam", "__init__.py")):
        raise SystemExit(f"perfbench: no sbgam sources under {SRC}")
    sys.path.insert(0, SRC)
    import sbgam

    where = os.path.dirname(os.path.abspath(sbgam.__file__))
    if where != os.path.join(SRC, "sbgam"):
        raise SystemExit(f"perfbench: imported sbgam from {where}, "
                         f"not from {SRC}")
    return sbgam


def _blas_info():
    """BLAS vendor string and the thread count the library reports."""
    import ctypes

    import numpy as np

    vendor = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
        for lib in libs:
            cdll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(cdll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return vendor, threads


def _provenance():
    import numpy as np
    import scipy

    vendor, threads = _blas_info()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
    }


def _check(workload, seed, out, state):
    """Problems with one unit's output (see checks.py)."""
    import checks

    if workload.kind == "fit":
        return checks.check_fit(out, checks.load_fingerprint(workload.name,
                                                             seed))
    problems = checks.check_study(out, checks.load_fingerprint(workload.name,
                                                               seed))
    # every cell of a run repeats the same seeded study: bytes must agree
    first = state.setdefault("first", out)
    if out != first:
        problems.append("study output differs from the run's first cell")
    return problems


def run_loop(unit, workload, seed, seconds, first_cal, entry=None):
    """Closed loop: run units back to back for about `seconds`.

    A new unit is not started when the median unit time so far says it
    would end after the deadline, so a run measures at most `seconds`
    plus rounding, and always at least one unit.  The calibration kernel
    (first_cal is its time before the first unit) runs again after each
    unit; a unit's scaled time uses the mean of the calibrations on
    either side of it.

    With a tracer entry (tracer, attribute, traced callable) the loop
    alternates traced and untraced units, traced first and at least one
    of each, so that the tracing overhead is measured against untraced
    units run in the same minutes.
    """
    from calibrate import REF_S, calibration_s

    weight = workload.reps if workload.kind == "study" else 1
    samples, traced_flags, spans, problems, info = [], [], [], [], []
    cals = [first_cal]
    attempted = failed = traced_ok = 0
    state = {}
    min_units = 1 if entry is None else 2
    if entry is not None:
        tracer, attr, traced_call = entry
        plain_call = getattr(unit, attr)
    t_start = time.perf_counter()
    while True:
        traced = entry is not None and len(samples) % 2 == 0
        if traced:
            tracer.install()
            setattr(unit, attr, traced_call)
        t0 = time.perf_counter()
        try:
            out = unit.run()
            err = None
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted
            out, err = None, f"{type(exc).__name__}: {exc}"
        samples.append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
            setattr(unit, attr, plain_call)
        attempted += weight
        found = [err] if err else _check(workload, seed, out, state)
        if found:
            failed += weight
            problems.extend(found)
        elif workload.kind == "fit":
            diag = out.diagnostics
            info.append((diag.outer_iterations, sum(diag.inner_sweep_counts)))
        else:
            info.append((out["bad_count"], out["reps_used"]))
        traced_flags.append(traced)
        spans.append(time.perf_counter() - t0)
        cals.append(calibration_s())
        traced_ok += weight if traced and not found else 0
        elapsed = time.perf_counter() - t_start
        if (len(samples) >= min_units
                and elapsed + statistics.median(samples) > seconds):
            break
    wall = time.perf_counter() - t_start
    return {
        "samples": samples,
        "scaled": [s * 2.0 * REF_S / (a + b)
                   for s, a, b in zip(samples, cals, cals[1:])],
        "calibrations": cals,
        "speed_index": REF_S / statistics.median(cals),
        "traced": traced_flags,
        "unit_wall": spans,
        "traced_ok_weight": traced_ok,
        "wall": wall,
        "attempted": attempted,
        "failed": failed,
        "ok_weight": attempted - failed,
        "problems": problems[:10],
        "info": sorted(set(info)),
    }


def _trace_result(tracer, workload, result):
    """Per-layer metrics of the traced units of a run."""
    from layertrace import LAYER_METRICS, layer_metrics

    traced = [s for s, t in zip(result["samples"], result["traced"]) if t]
    plain = [s for s, t in zip(result["samples"], result["traced"]) if not t]
    bad = None
    if workload.kind == "study":
        bad = statistics.mean(b for b, _ in result["info"]) \
            if result["info"] else 0.0
    values = layer_metrics(
        tracer, units=len(traced),
        wall=sum(w for w, t in zip(result["unit_wall"], result["traced"])
                 if t),
        ok_weight=result["traced_ok_weight"], bad_reps=bad,
        overhead=statistics.median(traced) / statistics.median(plain) - 1.0)
    return {k: {"value": v, "unit": LAYER_METRICS[k][1]}
            for k, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    _import_sbgam()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    unit = workload.setup(args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    from calibrate import REF_S, calibration_s, warm_up

    warm_up()
    cal = calibration_s()
    setup = {"setup_s": setup_s, "setup_scaled": setup_s * REF_S / cal}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    entry = tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        if workload.kind == "fit":
            attr, name = "fitter", f"{workload.estimator}_fit.fit"
        else:
            attr, name = "main", "cli.main"
        entry = (tracer, attr, tracer.entry(getattr(unit, attr), name))

    result = run_loop(unit, workload, args.seed, args.seconds, cal, entry)
    result.update(setup)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["provenance"] = _provenance()

    if tracer is not None:
        from layertrace import shares

        result["layers"] = _trace_result(tracer, workload, result)
        result["shares"] = shares(tracer)
        path = os.path.join(args.workdir,
                            f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.save(path, json.dumps(result["provenance"]))
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
