"""Checks of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import tracer as tracing
import workloads


@pytest.fixture(scope="module")
def cli_main():
    run.clean_environment()
    return run.import_program()


def _counts(tr: tracing.Tracer) -> Counter:
    tr.end_round()
    return tr.calls + tr.counters


@pytest.mark.parametrize("name", ["resolve_fp", "selftest"])
def test_tracing_keeps_reports_and_counts_repeat(cli_main, tmp_path, name):
    runner = run.Runner(cli_main, workloads.build(name, 3, tmp_path))
    runner.run_round()
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            runner.run_round(on_op_start=tr.reset_seen)
        finally:
            tr.uninstall()
        counts.append(_counts(tr))
    # Runner fails an operation whose report differs from the untraced round's.
    assert runner.errors == []
    assert runner.attempted == 3 * len(runner.ops)
    assert counts[0] == counts[1]
    assert counts[0]["exactlin.echelon"] > 0


def test_selftest_check_separates_budget_overruns(cli_main, tmp_path):
    [op] = [op for op in workloads.build("selftest", 1, tmp_path) if op.argv[2] == "1"]
    assert cli_main(op.argv) == 0
    text = op.out.read_text()
    assert op.check(0, text) is None
    over = text.replace("criterion.1=pass", "criterion.1=fail").replace(
        "selftest=pass", "criterion.1.detail.10=runtime_budget_exceeded=1.20s limit=1s\n"
        "selftest=fail")
    assert workloads.without_budget_overruns(over) == (
        text, ["criterion.1.detail.10=runtime_budget_exceeded=1.20s limit=1s"])
    assert op.check(4, over) is None
    assert op.check(0, over) is not None
    wrong = over.replace("koszul=true", "koszul=false")
    assert op.check(4, wrong) is not None
    assert op.check(4, text.replace("criterion.1=pass", "criterion.1=fail")) is not None


def test_uninstall_restores_every_binding(cli_main):
    from grkoszul import exactlin, rep_homology

    before = (exactlin.row_space, rep_homology.row_space, exactlin.MatrixExact.__init__)
    tr = tracing.Tracer()
    tr.install()
    assert rep_homology.row_space is exactlin.row_space is not before[0]
    tr.uninstall()
    assert (exactlin.row_space, rep_homology.row_space, exactlin.MatrixExact.__init__) == before


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        workloads.build("resolve_q", seed, tmp_path / sub)
        return [(tmp_path / sub / f).read_text() for f in ("cube.qalg", "simple.qrep")]

    assert files(7, "a") == files(7, "b")
    assert any(files(s, "s%d" % s) != files(7, "a") for s in range(8))


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = set(run.layer_metrics(tracing.Tracer(), 1, 0.0))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kl_a3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
