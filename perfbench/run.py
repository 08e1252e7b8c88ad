"""Benchmark of grkoszul through its public entry point `grkoszul.cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: resolve_q, resolve_fp, kl_a3 and selftest (see workloads.py);
BENCHMARK.json times resolve_q and selftest, and BASELINE.md gives the
reasons and the baseline figures.

One process, one client, closed loop: operations run one at a time, rounds
repeat until the next round would end past S seconds (at least one round
runs).  Every report is checked; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  A selftest criterion
that runs over its own wall-time budget but computes its passing report is
printed as `over budget`, not counted as failed.

--trace 0 reports the end-to-end metrics:
  wall_s        median over rounds of the mean operation time in the round;
                an operation is timed from the call to the report written
  setup_s       median over several fresh interpreters of the time from
                process launch until grkoszul is imported and the workload
                inputs are written
  peak_rss_mib  peak resident memory of this process
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds, per round, plus the tracing overhead.  The
spans of the last traced round are written as JSON lines to
.bench_work/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

# Per-layer metrics besides <layer>.self_s and <layer>.calls.
CALL_COUNTS = (
    "exactlin.echelon", "exactlin.solve", "exactlin.rank_kernel", "exactlin.row_space",
    "exactlin.reduce_vector", "rep_homology.radical_series", "rep_homology.hom_space",
    "rep_homology.minimal_resolution", "rep_homology.ext_groups",
    "alcove.hyperplane_length", "alcove.compose",
)
SELF_TIMES = (
    "exactlin.echelon", "exactlin.solve", "rep_homology.radical_series",
    "rep_homology.sub_rep", "rep_homology.projective_cover", "alcove.ideal_closure",
    "alcove.bounds_report", "klpoly.coxeter_enumerate", "klpoly.kl_and_inverse_tables",
    "klpoly.verify_inversion", "klpoly.lcf_character", "algebra_core.build_algebra",
    "algebra_core.gr_algebra", "qha_engine.standard_modules", "qha_engine.pipeline_checks",
)
COUNTERS = ("exactlin.echelon.cells", "exactlin.matrix.entries_built")
REPEATED = ("rep_homology.minimal_resolution", "rep_homology.ext_groups")


def clean_environment() -> dict[str, str]:
    """Drop every GRKOSZUL_* variable (cache dir, tracing) from this process
    and return the environment for child processes."""
    for key in [k for k in os.environ if k.startswith("GRKOSZUL_")]:
        del os.environ[key]
    return dict(os.environ)


def import_program():
    if not (ROOT / "src" / "grkoszul" / "cli.py").is_file():
        print("error: %s holds no grkoszul sources" % (ROOT / "src"), file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from grkoszul.cli import main

    return main


def cache_files() -> set[Path]:
    """KL table cache files (kl_<digest>.json and its .tmp) in the checkout."""
    out = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__")]
        out.update(Path(dirpath, name) for name in filenames
                   if name.startswith("kl_") and name.endswith((".json", ".tmp")))
    return out


class SetupProbes:
    """Launch-to-ready times of fresh interpreters, spread evenly over the
    run so that their median covers the same stretch of time as the
    operations."""

    def __init__(self, args, env, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
                     "--workload", args.workload, "--seed", str(args.seed)]
        self.env = env
        self.seconds = seconds
        self.started = time.perf_counter()
        self.times: list[float] = []

    def _probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("setup probe failed with exit code %s" % child.returncode)
        self.times.append(elapsed)

    def catch_up(self) -> None:
        """Run the probes that are due by now."""
        share = (time.perf_counter() - self.started) / self.seconds
        while len(self.times) < min(SETUP_PROBES, 1 + int(SETUP_PROBES * share)):
            self._probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.times)


def probe(args) -> int:
    """Child side of SetupProbes."""
    clean_environment()
    import_program()
    workdir = WORK / ("probe-%d" % os.getpid())
    try:
        workloads.build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


class Runner:
    """Runs rounds of one workload and checks every report."""

    def __init__(self, cli_main, ops):
        self.cli_main = cli_main
        self.ops = ops
        self.attempted = 0
        self.errors: list[str] = []
        self.overruns: list[str] = []
        self.first_reports: dict[int, str] = {}

    def run_op(self, index: int, op) -> float:
        op.out.unlink(missing_ok=True)
        gc.collect()
        error = None
        start = time.perf_counter()
        try:
            code = self.cli_main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # any escape from main is a failed operation
            error = traceback.format_exc(limit=3).strip().replace("\n", " | ")
        elapsed = time.perf_counter() - start
        self.attempted += 1
        text = op.out.read_text() if op.out.exists() else ""
        if error is None:
            error = op.check(code, text)
        body, overruns = workloads.without_budget_overruns(text)
        self.overruns += overruns
        if error is None:
            first = self.first_reports.setdefault(index, body)
            if body != first:
                error = "report differs from the first round's"
        if error is not None:
            self.errors.append("%s: %s" % (" ".join(op.argv[:3]), error))
        return elapsed

    def run_round(self, on_op_start=None) -> float:
        """Mean operation time of one pass over the operations."""
        total = 0.0
        for index, op in enumerate(self.ops):
            if on_op_start is not None:
                on_op_start()
            total += self.run_op(index, op)
        return total / len(self.ops)


def keep_going(started: float, seconds: float, round_times: list[float], n_ops: int) -> bool:
    """True if one more round is expected to end within the time budget."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(round_times) * n_ops <= seconds


def layer_metrics(tr: tracing.Tracer, rounds: int, overhead: float) -> dict:
    calls, self_s = tr.calls, tr.self_s
    metrics = {}

    def put(key, total, unit):
        metrics[key] = {"value": total / rounds, "unit": unit}

    for layer in tracing.LAYERS:
        prefix = layer + "."
        put(layer + ".self_s", sum(v for k, v in self_s.items() if k.startswith(prefix)), "s")
        put(layer + ".calls", sum(v for k, v in calls.items() if k.startswith(prefix)), "count")
    for name in CALL_COUNTS:
        put(name + ".calls", calls[name], "count")
    for name in SELF_TIMES:
        put(name + ".self_s", self_s[name], "s")
    for name in COUNTERS:
        put(name, tr.counters[name], "count")
    for name in REPEATED:
        ratio = tr.counters[name + ".repeats"] / calls[name] if calls[name] else 0.0
        metrics[name + ".repeat_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    env = clean_environment()
    cli_main = import_program()
    before = cache_files()
    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        runner = Runner(cli_main, workloads.build(args.workload, args.seed, workdir))
        n_ops = len(runner.ops)
        started = time.perf_counter()
        plain: list[float] = []
        traced: list[float] = []
        tr = tracing.Tracer()
        probes = None if args.trace else SetupProbes(args, env, args.seconds)
        while True:
            plain.append(runner.run_round(on_op_start=probes and probes.catch_up))
            if args.trace:
                tr.install()
                try:
                    traced.append(runner.run_round(on_op_start=tr.reset_seen))
                finally:
                    tr.uninstall()
                last_spans = tr.end_round()
            if not keep_going(started, args.seconds, plain + traced, n_ops * (1 + args.trace)):
                break
        setup_s = probes and probes.median()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    appeared = sorted(str(p.relative_to(ROOT)) for p in cache_files() - before)
    if appeared:
        print("failed: KL cache files appeared: %s" % ", ".join(appeared))

    wall_s = statistics.median(plain)
    if args.trace:
        overhead = statistics.median(traced) / wall_s - 1
        metrics = layer_metrics(tr, len(traced), overhead)
        WORK.mkdir(exist_ok=True)
        tracing.write_jsonl(last_spans, WORK / ("trace-%s.jsonl" % args.workload))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    failed = len(runner.errors)
    for error in runner.errors:
        print("failed: " + error)
    for overrun in runner.overruns:
        print("over budget: " + overrun)
    print("workload=%s seed=%d ops_per_round=%d failed_frac=%s budget_overruns=%d"
          % (args.workload, args.seed, n_ops, failed / runner.attempted, len(runner.overruns)))
    print("round_s untraced: %s" % " ".join("%.4f" % (t * n_ops) for t in plain))
    if traced:
        print("round_s traced: %s" % " ".join("%.4f" % (t * n_ops) for t in traced))
    for name, metric in metrics.items():
        print("%s = %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": failed == 0 and not appeared, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
