"""Freeze the answer digests that ``run.py`` compares against.

    python3 bench/freeze.py --seeds 0 1 2

Runs every job of every workload once per seed, untimed, and writes
``expected.json``.  It refuses when a digest differs between seeds (a
verdict must not depend on labels) or an independent fact fails.  Run it
only at a commit whose answers are known good.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import gen
import jobs
from run import BENCH, ROOT, Runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="freeze answer digests")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    frozen: dict[str, dict[str, str]] = {}
    problems = []
    work = ROOT / ".bench_work" / "freeze"
    for workload, job_list in jobs.WORKLOADS.items():
        frozen[workload] = {}
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            inputs = gen.generate(seed, work / "inputs")
            docs = {k: json.loads(Path(v).read_text()) for k, v in inputs.items() if v.endswith(".json")}
            runner = Runner(work, time.perf_counter() + 3600)
            for job in job_list:
                r = runner.run_job(job, inputs, docs, {}, None)
                facts = [w for w in r.why.split("; ") if w and not w.startswith("answer digest")]
                if r.digest == "" or facts:
                    problems.append(f"{workload}/{job.name} seed {seed}: {r.why}")
                prior = frozen[workload].setdefault(job.name, r.digest)
                if prior != r.digest:
                    problems.append(f"{workload}/{job.name}: digest depends on the seed")
                print(f"{workload} seed {seed} {job.name} {r.digest} {r.cpu_s:.2f}s")
    shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (BENCH / "expected.json").write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
