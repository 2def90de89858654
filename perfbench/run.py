#!/usr/bin/env python3
"""singspect benchmark: four workloads of CLI and library jobs, closed loop.

    python3 perfbench/run.py --workload index-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check --workload torsion --seed 1

Run from the root of a source checkout; the jobs import the package from
`src/`.  One benchmark process runs one job at a time, each in a fresh
`python3` child exactly as a CLI (`python3 -m singspect.cli ...`) or
script user runs it, so module-level state such as the parametrix matmul
cache starts cold as users see it.  Passes over the workload's jobs repeat
until `--seconds` have elapsed; a pass is always completed.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json: medians over
passes, with times in reference seconds (measured seconds scaled by a fixed
calibration workload timed before and after every job, to cancel the host's
speed drift; see child.calibration_s).  `--trace 1` prints the per-layer
metrics, in measured seconds: each cycle runs one untraced
pass and one traced pass (spans.py wraps the package's public functions in
the child), and one counting pass at the end counts GaussianRational
operations, whose wrappers would distort the traced times.  Every job's
report is checked against the package's own exact oracles (jobs.py); the
last stdout line is the JSON result, everything above it is the
human-readable report and the run manifest.

`--self-check` checks the benchmark itself: the metric names it prints
against BENCHMARK.json and perfbench/layer_map.json, and that the count
metrics repeat exactly between two traced passes on one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402
from child import CALIBRATION_REF_S  # noqa: E402

# per-job limit, so that a run ends within three minutes even if a job hangs
JOB_TIMEOUT_S = 150.0
# metrics that must repeat exactly between two traced passes on one seed
COUNT_METRICS = (
    "poly.evaluate_many.points", "poly.mul.calls", "clifford.matmul.calls",
    "index_integral.quadrature.points", "gaussian_rational.mul.calls",
)
# the MC accuracy the time-to-accuracy metric extrapolates to
MC_TARGET_STDERR = 1e-3


@dataclass
class JobRun:
    job: jobs_mod.Job
    wall: float
    cpu: float
    rss_mb: float
    code: int
    report: Optional[dict]
    stderr: str
    outcome: Optional[jobs_mod.Outcome] = None
    trace: Optional[dict] = None
    calibration: float = CALIBRATION_REF_S

    @property
    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return CALIBRATION_REF_S / self.calibration

    @property
    def setup(self) -> Optional[float]:
        """Child wall time not covered by the job's own timer: start, imports, exit."""
        if self.report is None:
            return None
        return self.wall - self.report["timing"]["wall_clock_s"]


@dataclass
class Pass:
    runs: List[JobRun]

    @property
    def wall(self) -> float:
        """Measured seconds spent in the pass's jobs."""
        return sum(r.wall for r in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


class Helper:
    """The side process of child.py: oracles, versions and calibration timings."""

    def __init__(self, requests: list, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "helper", json.dumps(requests)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        first = json.loads(self.proc.stdout.readline())
        self.oracles, self.versions = first["oracles"], first["versions"]

    def calibration(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Runner:
    tmp: Path
    env: dict
    deadline: float
    jobs: List[jobs_mod.Job] = field(default_factory=list)
    helper: Optional[Helper] = None
    counter: int = 0

    def run_job(self, job: jobs_mod.Job, mode: Optional[str]) -> JobRun:
        self.counter += 1
        trace_path = self.tmp / f"trace{self.counter}.json"
        out_path = self.tmp / f"out{self.counter}.txt"
        err_path = self.tmp / f"err{self.counter}.txt"
        argv = job.argv(sys.executable, str(HERE / "child.py"),
                        (mode, str(trace_path)) if mode else None)
        limit = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        report = None
        lines = out_path.read_text().strip().splitlines()
        if lines:
            try:
                report = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        trace = None
        if mode and trace_path.exists():
            trace = json.loads(trace_path.read_text())
            trace.update(kind=job.kind, n=job.n, label=job.label)
        run = JobRun(job=job, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0, code=code, report=report,
                     stderr=err_path.read_text()[-2000:], trace=trace)
        run.outcome = jobs_mod.check(job, code, report, run.stderr, self.helper.oracles)
        for p in (trace_path, out_path, err_path):
            p.unlink(missing_ok=True)
        return run

    def run_pass(self, mode: Optional[str] = None) -> Pass:
        """Each job, with the calibration timed before and after it."""
        runs = []
        before = self.helper.calibration()
        for job in self.jobs:
            run = self.run_job(job, mode)
            after = self.helper.calibration()
            run.calibration = (before + after) / 2
            runs.append(run)
            before = after
        return Pass(runs=runs)

    def warm_up(self) -> None:
        """Read the interpreter's and the package's files once before timing."""
        code = ("import singspect.cli, singspect.parametrix, singspect.clifford, "
                "singspect.oscillator, scipy.integrate, scipy.special")
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)


# -- metrics ---------------------------------------------------------------------------


def _quantile90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def job_medians(passes: List[Pass], value) -> List[float]:
    """Each job's median `value` over the passes, in job order."""
    return [statistics.median(value(p.runs[i]) for p in passes)
            for i in range(len(passes[0].runs))]


def ref_wall(r: JobRun) -> float:
    return r.wall * r.scale


def end_to_end(passes: List[Pass]) -> dict:
    """The BENCHMARK.json end-to-end metrics; times in reference seconds.

    A run holds 10-25 jobs of 3-6 kinds, so no percentile above the median
    has ten samples beyond it.  The tail is taken over the jobs' medians
    instead: one slow sample then cannot decide which job sits at p90.
    """
    walls = [ref_wall(r) for p in passes for r in p.runs]
    setups = [r.setup * r.scale for p in passes for r in p.runs if r.setup is not None]
    return {
        "setup_s": statistics.median(setups or walls),
        "wall_s": sum(job_medians(passes, ref_wall)),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": _quantile90(job_medians(passes, ref_wall)),
        "cpu_s": sum(job_medians(passes, lambda r: r.cpu * r.scale)),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def oracle_metrics(passes: List[Pass]) -> dict:
    """fail_rate and the accuracy metrics; 0 where a workload has no such job."""
    runs = [r for p in passes for r in p.runs]
    per_pass_mc = []
    for p in passes:
        t = [r.report["timing"]["wall_clock_s"] * r.scale
             * (max(r.outcome.values["stderrs"]) / MC_TARGET_STDERR) ** 2
             for r in p.runs
             if r.job.args[:1] == ("index",) and "quadrature" not in r.job.args
             and r.outcome.values.get("stderrs")]
        if t:
            per_pass_mc.append(sum(t))
    quad = [r.outcome.values["abs_err"] for r in runs
            if "quadrature" in r.job.args and "abs_err" in r.outcome.values]
    tors = [r.outcome.values["log_err"] for r in runs if "log_err" in r.outcome.values]
    return {
        "fail_rate": sum(r.outcome.failed for r in runs) / len(runs),
        "mc_time_to_1e-3_s": statistics.median(per_pass_mc) if per_pass_mc else 0.0,
        "quad_abs_err": max(quad, default=0.0),
        "torsion_log_err": max(tors, default=0.0),
    }


def _strip_timing(report: Optional[dict]) -> Optional[dict]:
    if report is None:
        return None
    return {k: v for k, v in report.items() if k != "timing"}


def per_layer(untraced: List[Pass], traced: List[Pass], counted: Pass) -> dict:
    count_docs = [r.trace for r in counted.runs if r.trace]
    rows = [spans.pass_layers([r.trace for r in p.runs if r.trace], count_docs)
            for p in traced]
    m = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    m["trace.overhead_s"] = (sum(job_medians(traced, ref_wall))
                             - sum(job_medians(untraced, ref_wall)))
    m.update(oracle_metrics(untraced))
    return m


# -- manifest ------------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, job_list, versions: dict) -> dict:
    thread_env = {k: os.environ[k] for k in sorted(os.environ)
                  if k.endswith("_NUM_THREADS") or k in ("OPENBLAS_CORETYPE", "OMP_DYNAMIC")}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), **versions, "blas_thread_env": thread_env,
        "git_commit": _git_commit(),
        "jobs": [["python3", *j.argv("python3", "perfbench/child.py")[1:]] for j in job_list],
    }


# -- report ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_jobs(passes: List[Pass]) -> None:
    by_label: dict = {}
    for p in passes:
        for r in p.runs:
            by_label.setdefault(r.job.label, []).append(r)
    print("jobs (medians over passes; measured seconds, then reference seconds):")
    for label, runs in by_label.items():
        reasons = sorted({why for r in runs for why in r.outcome.gate + r.outcome.error_bar})
        setups = [r.setup * r.scale for r in runs if r.setup is not None]
        setup = f"{statistics.median(setups):.4f}" if setups else "-"
        status = "ok" if not reasons else "FAIL " + "; ".join(reasons)
        print(f"  {label:36s} wall {statistics.median(r.wall for r in runs):7.4f}"
              f" / {statistics.median(r.wall * r.scale for r in runs):7.4f}  setup {setup:>7s}"
              f"  rss {max(r.rss_mb for r in runs):6.1f} MB"
              f"  {sum(r.outcome.failed for r in runs)}/{len(runs)} failed  {status}")
    cal = [r.calibration for p in passes for r in p.runs]
    print(f"calibration: median {statistics.median(cal):.4f} s, range {min(cal):.4f}-"
          f"{max(cal):.4f} s (reference {CALIBRATION_REF_S} s)")


def print_metrics(title: str, values: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, v in values.items():
        note = notes.get(name, "")
        print(f"  {name:44s} {_fmt(v):>14s} {units.get(name, ''):6s} {note}")


def print_diagnostics(traced: Pass) -> None:
    print("stages (first traced pass, seconds):")
    for r in traced.runs:
        if r.trace is None:
            continue
        rows = spans.job_stages(r.trace) or [("no staged spans", 0.0)]
        print(f"  {r.job.label}: " + " | ".join(f"{k} {v:.4g}" for k, v in rows))
    print("self time by span (first traced pass):")
    table = spans.self_time_table([r.trace for r in traced.runs if r.trace])
    for name, s in table[:12]:
        print(f"  {name:44s} {s:10.4f} s  {100 * s / traced.wall:5.1f}% of pass wall")
    print("diagnostics the CLI computes but does not report:")
    for r in traced.runs:
        if r.trace is None:
            continue
        for name, _, _, _, a in r.trace["spans"]:
            if a is None:
                continue
            if name == "spectral.choose_oscillator_scale":
                print(f"  {r.job.label}: omega = {a['omega']:.10g}")
            elif name == "spectral.eigensolve":
                print(f"  {r.job.label}: levels = {a['levels']}, "
                      f"complete_below = {a['complete_below']:.8g}")
            elif name == "spectral.mellin_derivative_at_zero":
                print(f"  {r.job.label}: fit_condition = {a['fit_condition']:.4g}, "
                      f"fit_residual = {a['fit_residual']:.4g}, exponents = {a['exponents']}")
            elif name == "spectral.renormalize_and_torsion":
                print(f"  {r.job.label}: fit_unstable = {a['fit_unstable']}")
            elif name == "index_integral.compute_index":
                print(f"  {r.job.label}: {a['method']} t = {a['t']:g} budget = {a['budget']} "
                      f"stderr = {a['stderr']:.4g}")
        nodes = [a["nodes"] for name, *_, a in r.trace["spans"]
                 if name == "index_integral.hermgauss" and a]
        if nodes and "quadrature" in r.job.args:
            print(f"  {r.job.label}: quadrature nodes used = {max(nodes)} "
                  f"(rules {sorted(set(nodes), reverse=True)})")


def result_line(correct: bool, runs: List[JobRun], metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": sum(bool(r.outcome.gate) for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


# -- main -----------------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["layer_map"] = json.loads((HERE / "layer_map.json").read_text())
    return spec


def check_names(spec: dict, printed: dict, kind: str) -> List[str]:
    """Differences between the metrics a run prints and those BENCHMARK.json names."""
    declared = [m["name"] for m in spec[kind]]
    problems = [f"{kind}: printed but not declared: {n}" for n in printed if n not in declared]
    problems += [f"{kind}: declared but not printed: {n}" for n in declared if n not in printed]
    if kind == "per_layer":
        mapped = set(spec["layer_map"])
        problems += [f"layer_map.json lacks {n}" for n in declared if n not in mapped]
        problems += [f"layer_map.json maps undeclared {n}" for n in mapped if n not in declared]
    return problems


def self_check(runner: Runner, spec: dict) -> int:
    """Two traced and two counting passes on one seed; count metrics must repeat."""
    base = runner.run_pass()
    a = per_layer([base], [runner.run_pass("--spans")], runner.run_pass("--count"))
    b = per_layer([base], [runner.run_pass("--spans")], runner.run_pass("--count"))
    problems = [f"{n} differs between traced passes: {a[n]} vs {b[n]}"
                for n in COUNT_METRICS if a[n] != b[n]]
    problems += check_names(spec, end_to_end([base]), "end_to_end")
    problems += check_names(spec, a, "per_layer")
    for n in COUNT_METRICS:
        print(f"  {n:44s} {_fmt(a[n]):>14s} {_fmt(b[n]):>14s}")
    for p in problems:
        print("self-check: " + p)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src" / "singspect" / "cli.py"
    if not src.is_file() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"perfbench: run from a source checkout ({src} is missing)\n")
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    runner = Runner(tmp=tmp, env=env,
                    deadline=time.monotonic() + 170.0,
                    jobs=jobs_mod.workload_jobs(args.workload, args.seed))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        runner.helper = Helper(jobs_mod.oracle_requests(runner.jobs), env)
        runner.warm_up()
        if args.self_check:
            return self_check(runner, spec)
        return measure(runner, args, spec, units)
    finally:
        if runner.helper is not None:
            runner.helper.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def measure(runner: Runner, args, spec: dict, units: dict) -> int:
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("manifest " + json.dumps(manifest(args, runner.jobs, runner.helper.versions),
                                  sort_keys=True))
    untraced: List[Pass] = []
    traced: List[Pass] = []
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < args.seconds:
        untraced.append(runner.run_pass())
        if args.trace:
            traced.append(runner.run_pass("--spans"))
    counted = runner.run_pass("--count") if args.trace else None
    all_passes = untraced + traced + ([counted] if counted else [])
    runs = [r for p in all_passes for r in p.runs]

    mismatched = []
    for p in traced + ([counted] if counted else []):
        for r, base in zip(p.runs, untraced[0].runs):
            if _strip_timing(r.report) != _strip_timing(base.report):
                mismatched.append(r.job.label)
    correct = not mismatched and not any(r.outcome.gate for r in runs)

    print(f"{len(untraced)} untraced passes of {len(runner.jobs)} jobs"
          + (f", {len(traced)} traced, 1 counting" if args.trace else ""))
    print_jobs(untraced)
    print("samples " + json.dumps({
        "job_wall_s": {j.label: [p.runs[i].wall for p in untraced]
                       for i, j in enumerate(runner.jobs)},
        "job_calibration_s": {j.label: [p.runs[i].calibration for p in untraced]
                              for i, j in enumerate(runner.jobs)},
    }))
    notes = {k: f"-> {', '.join(v)}" for k, v in spec["layer_map"].items()}
    e2e = end_to_end(untraced)
    print_metrics("end-to-end (tracing off; times in reference seconds):", e2e, units,
                  {"job_tail_s": f"p90 over the medians of {len(runner.jobs)} jobs, "
                                 f"each over {len(untraced)} passes",
                   "setup_s": "median per job: child wall - report timing.wall_clock_s"})
    oracle = oracle_metrics(untraced)
    print_metrics("oracle checks:", oracle, units, notes)
    failures: dict = {}
    for r in runs:
        tail = r.stderr.strip().splitlines()[-1][:200] if r.code and r.stderr.strip() else ""
        for why in [w + (f" [stderr: {tail}]" if tail else "") for w in r.outcome.gate]:
            failures[(r.job.label, why)] = failures.get((r.job.label, why), 0) + 1
        for why in r.outcome.error_bar:
            failures[(r.job.label, why)] = failures.get((r.job.label, why), 0) + 1
    for label in mismatched:
        key = (label, "traced report differs from the untraced one")
        failures[key] = failures.get(key, 0) + 1
    for (label, why), count in failures.items():
        print(f"  failed {count}x: {label}: {why}")

    if args.trace:
        layers = per_layer(untraced, traced, counted)
        print_metrics("per-layer (traced passes, measured seconds; '->' names the "
                      "end-to-end metric and workload it should move):", layers, units, notes)
        print_diagnostics(traced[0])
        metrics, kind = layers, "per_layer"
    else:
        metrics, kind = e2e, "end_to_end"
    problems = check_names(spec, metrics, kind)
    if problems:
        sys.stderr.write("perfbench: " + "; ".join(problems) + "\n")
        return 2
    print(result_line(correct, runs, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
