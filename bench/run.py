"""Time to verdict for whole ``uniconstruct`` CLI jobs.

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 24 --trace 0

Each workload is a fixed list of CLI jobs (``jobs.py``) over inputs that
``gen.py`` writes from the seed.  Jobs run closed-loop, one at a time, each as
a fresh ``python -m uniconstruct.cli`` process, since a CLI user pays
interpreter start, import and cold caches on every verdict.  Passes over the
job list repeat until ``--seconds`` have gone by (at least one pass).

Times are the CPU seconds (user + system) of each job process, from its own
rusage.  Every job is one single-threaded process, so on an idle machine this
is its wall time; on a shared machine it leaves out the time the processor
spent on other tenants, which wall time counts.  Wall times are printed too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced pass (``tracer.py``) and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import gen
import jobs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

JOB_LIMIT_S = 60.0  # a job still running after this counts as failed
RUN_LIMIT_S = 170.0  # no job starts later, so a run ends within three minutes

# per-layer ratios: metric -> (numerator total, denominator total)
RATIOS = {
    "groups.classify_sections.found_ratio": (
        "groups.classify_sections.found", "groups.classify_sections.checked"),
    "groups.find_isomorphism.hit_ratio": (
        "groups.find_isomorphism.hits", "groups.find_isomorphism.calls"),
    "uniform.verify_claims.pass_ratio": (
        "uniform.verify_claims.passed", "uniform.verify_claims.claims"),
}


@dataclass
class Result:
    job: jobs.Job
    wall_s: float
    cpu_s: float
    rss_mib: float
    ok: bool
    why: str = ""
    digest: str = ""


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.serial = 0

    def spawn(self, argv: list[str], out_path: Path, err_path: Path):
        """Run one process to completion; returns (exit code or None on
        timeout, wall seconds, CPU seconds and max RSS in MiB of that process
        alone)."""
        timeout = min(JOB_LIMIT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return None, 0.0, 0.0, 0.0
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            done, _, _ = select.select([pidfd], [], [], timeout)
            if not done:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would
            # carry the largest job's peak into every later job
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return (proc.returncode if done else None), wall, cpu, usage.ru_maxrss / 1024.0

    def version_s(self) -> float | None:
        """CPU time of a bare ``--version`` process: interpreter start plus
        package import, which every verdict pays.  None past the run deadline."""
        out, err = self.work / "version.out", self.work / "version.err"
        code, _, cpu, _ = self.spawn([sys.executable, "-m", "uniconstruct.cli", "--version"], out, err)
        if code is None:
            return None
        if code != 0 or not out.read_text().strip():
            raise SystemExit(f"uniconstruct --version failed: {err.read_text()[-500:]}")
        return cpu

    def run_job(self, job: jobs.Job, inputs, input_docs, expected, spans: Path | None) -> Result:
        self.serial += 1
        stem = self.work / f"{self.serial:04d}-{job.name}"
        report = stem.with_suffix(".json")
        cli_args = [*job.argv(inputs), "--format", "json", "--out", str(report)]
        if spans is None:
            argv = [sys.executable, "-m", "uniconstruct.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans),
                    "--job", stem.name, "--", *cli_args]
        err = stem.with_suffix(".err")
        code, wall, cpu, rss = self.spawn(argv, stem.with_suffix(".out"), err)
        if code is None:
            return Result(job, wall, cpu, rss, False, "over the per-job time limit or run deadline")
        if code != job.expect_exit:
            return Result(job, wall, cpu, rss, False,
                          f"exit {code}, expected {job.expect_exit}: {err.read_text()[-300:]}")
        try:
            doc = json.loads(report.read_text()) if code == 0 else None
            ans = jobs.answer(job.command, doc) if doc is not None else None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Result(job, wall, cpu, rss, False, f"unreadable report: {exc!r}")
        got = jobs.digest(code, ans)
        bad = jobs.check_facts(job, doc, input_docs)
        if got != expected.get(job.name):
            bad.append(f"answer digest {got} != frozen {expected.get(job.name)}: {ans}")
        report.unlink(missing_ok=True)
        return Result(job, wall, cpu, rss, not bad, "; ".join(bad), got)


def median(values):
    return statistics.median(values) if values else 0.0


def environment() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy}"


def end_to_end(passes, setup_s: float, ok_ratio: float) -> dict[str, float]:
    slowest = [max(p, key=lambda r: r.cpu_s) for p in passes]
    print(f"slowest job: {', '.join(sorted({r.job.name for r in slowest}))}")
    return {
        "batch_s": median([sum(r.cpu_s for r in p) for p in passes]),
        "slowest_verdict_s": median([r.cpu_s for r in slowest]),
        "peak_rss_mib": median([max(r.rss_mib for r in p) for p in passes]),
        "verdict_ok_ratio": ok_ratio,
        "setup_s": setup_s,
    }


def per_layer(passes, traced_results, span_files, job_list) -> dict[str, float]:
    totals: dict[str, float] = {}
    for path in span_files:
        if path.is_file():
            for key, value in tracer.summarize(json.loads(path.read_text())).items():
                totals[key] = totals.get(key, 0.0) + value
    for name, (num, den) in RATIOS.items():
        totals[name] = totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0
    untraced = median([sum(r.cpu_s for r in p) for p in passes])
    totals["trace.overhead_ratio"] = sum(r.cpu_s for r in traced_results) / untraced - 1.0
    for job in job_list:
        totals[f"cli.{job.command}.s"] = median(
            [r.cpu_s for p in passes for r in p if r.job.command == job.command])
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time to verdict for uniconstruct CLI jobs")
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "uniconstruct" / "cli.py").is_file():
        print(f"no uniconstruct sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())[args.workload]
    job_list = jobs.WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = gen.generate(args.seed, work / "inputs")
        input_docs = {k: json.loads(Path(v).read_text())
                      for k, v in inputs.items() if v.endswith(".json")}
        runner = Runner(work, started + RUN_LIMIT_S)

        setup = []

        def one_pass(traced: bool):
            results, span_files = [], []
            for job in job_list:
                if not traced:
                    # spread over the run, so setup_s sees the same machine as the jobs
                    version = runner.version_s()
                    if version is not None:
                        setup.append(version)
                spans = work / f"spans-{runner.serial + 1:04d}.json" if traced else None
                results.append(runner.run_job(job, inputs, input_docs, expected, spans))
                if traced:
                    span_files.append(spans)
            for r in results:
                if not r.ok:
                    print(f"FAILED {r.job.name}: {r.why}", file=sys.stderr)
            return results, span_files

        passes = []
        measure_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(one_pass(traced=False)[0])
            last = time.perf_counter() - pass_start
            now = time.perf_counter()
            reserve = 2.5 * last if args.trace else last
            if now - measure_start >= args.seconds or now + reserve > started + RUN_LIMIT_S:
                break
        traced = one_pass(traced=True) if args.trace else None

        all_results = [r for p in passes for r in p] + (traced[0] if traced else [])
        failed = sum(1 for r in all_results if not r.ok)
        print(f"env {environment()} workload={args.workload} seed={args.seed} "
              f"passes={len(passes)} jobs/pass={len(job_list)} traced={args.trace}")
        for p_i, p in enumerate(passes):
            print(f"pass {p_i} (wall/cpu s): "
              + " ".join(f"{r.job.name}={r.wall_s:.3f}/{r.cpu_s:.3f}" for r in p))
        if traced:
            metric_specs = spec["per_layer"]
            values = per_layer(passes, *traced, job_list)
            values = {m["name"]: values.get(m["name"], 0.0) for m in metric_specs}
            values.update({m["name"]: int(values[m["name"]])
                           for m in metric_specs if m["unit"] == "count"})
        else:
            metric_specs = spec["end_to_end"]
            values = end_to_end(passes, median(setup), (len(all_results) - failed) / len(all_results))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": len(all_results),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
