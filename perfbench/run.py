"""Benchmark of the `schemedouble` command line, run from a checkout root:

    python3 perfbench/run.py --workload {verify,quotient} \\
        --seed N --seconds S --trace {0,1}

One client runs the workload's jobs one at a time (a closed loop), each as a
fresh `schemedouble` CLI process over inputs generated from the seed (see
workloads.py), and gates every job's output against references.json (see
gate.py).  A pass is one run over the job list.  At least three passes run,
more while another one fits in S seconds; each job's time is its median over
the passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       sum over jobs of the median wall time, spawn to exit
  cpu_s        sum over jobs of the median user + system CPU time
  peak_rss_mb  highest max-RSS of any job process
  setup_s      median spawn-to-exit time of a no-work call (`--help`), made
               five times up front and once after every job
--trace 1 reports the per-layer metrics: one untraced pass (for the wall time
split by field kind) and one pass with each job run under tracer.py.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import gate
import proc
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5      # before the first pass; one more follows every job
MIN_PASSES = 3         # per-job medians over passes damp swings in CPU speed
RUN_DEADLINE_S = 160   # jobs are cut off here, so a run ends within 180 s


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class JobRun:
    def __init__(self, job, result, ok):
        self.job, self.result, self.ok = job, result, ok


def run_pass(job_list, workdir, refs, deadline, traced=False, probes=None):
    """Run every job once, in order; a job that cannot start before the
    deadline counts as failed.  With a `probes` list, a no-work call follows
    each job, so set-up time is sampled across the whole run."""
    runs = []
    for job in job_list:
        remaining = deadline - time.perf_counter()
        if remaining <= 1:
            runs.append(JobRun(job, None, False))
            continue
        argv = job.argv(workdir)
        script = None
        if traced:
            argv = [str(workdir / f"{job.id}.trace.json"), job.id, "--"] + argv
            script = HERE / "tracer.py"
        result = proc.run(argv, workdir / job.id, min(proc.JOB_TIMEOUT_S, remaining), script)
        runs.append(JobRun(job, result, gate.passes(job, workdir, result, refs)))
        if probes is not None:
            probes.append(no_work_call(workdir))
    return runs


def no_work_call(workdir):
    """Spawn-to-exit time of `schemedouble --help`: interpreter start, import
    of every layer and argument parsing, but no algebra."""
    result = proc.run(["--help"], workdir / "setup", 10)
    if result.code != 0:
        raise RuntimeError(f"`schemedouble --help` exited {result.code}: {result.stderr}")
    return result.wall_s


def median_pass(passes):
    """End-to-end values of a typical pass: the sum over jobs of each job's
    median wall and CPU time across passes, and the highest RSS of any job."""
    done = [[r.result for r in runs if r.result is not None]
            for runs in zip(*passes)]  # per job, its results in every pass
    done = [results for results in done if results]
    return {
        "wall_s": sum(statistics.median(r.wall_s for r in rs) for rs in done),
        "cpu_s": sum(statistics.median(r.cpu_s for r in rs) for rs in done),
        "peak_rss_mb": max((r.rss_mb for rs in done for r in rs), default=0.0),
    }


def layer_metrics(untraced, traced, workdir):
    """Every per-layer value the traced pass gives, by metric name."""
    values = {"fields.prime_s": 0.0, "fields.ext_s": 0.0, "fields.q_s": 0.0}
    for r in untraced:
        if r.result is not None:
            values[f"fields.{workloads.field_kind(r.job.field)}_s"] += r.result.wall_s
    traced_wall, untraced_wall = (sum(r.result.wall_s for r in runs if r.result is not None)
                                  for runs in (traced, untraced))
    values["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    for r in traced:
        try:
            report = json.loads((workdir / f"{r.job.id}.trace.json").read_text())
        except (OSError, ValueError):
            continue
        for fn, stats in report["functions"].items():
            for stat, v in stats.items():
                values[f"{fn}.{stat}"] = values.get(f"{fn}.{stat}", 0) + v
        for counter, v in report["counters"].items():
            values[counter] = values.get(counter, 0) + v
    return values


def summarize(name, runs):
    for r in runs:
        if r.result is None:
            print(f"  {name} {r.job.id}: not started (run deadline)")
        else:
            print(f"  {name} {r.job.id}: exit {r.result.code} "
                  f"{r.result.wall_s:.3f} s cpu {r.result.cpu_s:.3f} s "
                  f"rss {r.result.rss_mb:.1f} MB {'ok' if r.ok else 'FAILED'}")


def main(argv):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so a running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (proc.SRC / "schemedouble" / "cli.py").is_file():
        print(f"no schemedouble sources under {proc.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((proc.ROOT / "BENCHMARK.json").read_text())
    refs = gate.load_references()
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    workdir = proc.BUILD / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    job_list = workloads.jobs(args.workload, args.seed)
    try:
        workloads.write_inputs(job_list, workdir)
        no_work_call(workdir)  # the first call writes the bytecode cache
        all_runs = []
        if args.trace:
            untraced = run_pass(job_list, workdir, refs, deadline)
            traced = run_pass(job_list, workdir, refs, deadline, traced=True)
            summarize("untraced", untraced)
            summarize("traced", traced)
            all_runs = untraced + traced
            values = layer_metrics(untraced, traced, workdir)
            wanted = spec["per_layer"]
            samples = {m["name"]: 1 for m in wanted}
        else:
            probes = [no_work_call(workdir) for _ in range(SETUP_PROBES)]
            passes = []
            while True:
                t0 = time.perf_counter()
                runs = run_pass(job_list, workdir, refs, deadline, probes=probes)
                passes.append(runs)
                summarize(f"pass {len(passes)}", runs)
                all_runs += runs
                end = 2 * time.perf_counter() - t0  # when one more pass would end
                if end > deadline or (len(passes) >= MIN_PASSES
                                      and end > start + args.seconds):
                    break
            values = median_pass(passes)
            values["setup_s"] = statistics.median(probes)
            wanted = spec["end_to_end"]
            samples = {m["name"]: len(passes) for m in wanted}
            samples["setup_s"] = len(probes)
        failed = sum(not r.ok for r in all_runs)
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in wanted}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
                  f"(samples: {samples[name]})")
        print(f"{args.workload} fail_ratio = {failed}/{len(all_runs)}")
        print(json.dumps({"correct": failed == 0, "attempted": len(all_runs),
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
