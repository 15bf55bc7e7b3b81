"""Record output fingerprints for a range of workload seeds.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_fingerprints.py 0-19

Runs one unit of every workload per seed, refuses to record a unit that
fails its invariant checks, and writes fingerprints.json next to this
file.  The fingerprints pin the outputs of the commit that defined the
benchmark; re-record them only in a change that redefines the benchmark.
"""

import json
import os
import shutil
import sys
import tempfile

from worker import ROOT, _import_sbgam


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    _import_sbgam()
    import checks
    from workloads import HOLDOUT_SEED, WORKLOADS

    table = {}
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="fingerprints-", dir=out_dir)
    try:
        for name, workload in WORKLOADS.items():
            rows = table.setdefault(name, {})
            for seed in sorted(set(seeds) | {HOLDOUT_SEED}):
                out = workload.setup(seed, workdir).run()
                if workload.kind == "fit":
                    problems = checks.check_fit(out)
                    fp = checks.fit_fingerprint(out)
                else:
                    problems = checks.check_study(out)
                    fp = checks.study_fingerprint(out)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                rows[str(seed)] = fp
                print(f"{name} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per seed keeps the file small and its diffs readable
    blocks = []
    for name, rows in sorted(table.items()):
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(fp)}"
                           for seed, fp in sorted(rows.items(),
                                                  key=lambda r: int(r[0])))
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    with open(checks.FINGERPRINT_FILE, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
