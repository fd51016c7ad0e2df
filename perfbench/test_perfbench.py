"""Self-test of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py

It is not part of the unit suite (``tests/``): the parallelism check and
the two traced runs per workload take about two minutes on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


PER_LAYER = [
    m["name"]
    for m in json.loads((bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]
]


def _run_bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=bench.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, 0, "a.root", 1, 0.0, 10.0),
        Span(2, 1, "b.x", 2, 1.0, 5.0),  # children on two threads overlap
        Span(3, 1, "b.y", 3, 4.0, 6.0),
        Span(4, 2, "c.z", 2, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0}


def test_tracer_wraps_and_restores_every_binding():
    bench.import_program()
    from gaplab import ensembles, experiments, kernels

    originals = (
        kernels.quad_forms,
        experiments.sample_haar_unitary,
        experiments.EXPERIMENTS["gap_distribution"].runner,
        ensembles.RandomStream.generator,
        ensembles.GAP_SAMPLERS["GAP_def1"],
    )
    tracer = Tracer()
    with tracer:
        wrapped = (
            kernels.quad_forms,
            experiments.sample_haar_unitary,
            experiments.EXPERIMENTS["gap_distribution"].runner,
            ensembles.RandomStream.generator,
            ensembles.GAP_SAMPLERS["GAP_def1"],
        )
        assert all(w is not o for w, o in zip(wrapped, originals))
        experiments.sample_haar_unitary(ensembles.RandomStream(0, 0), 4)
    names = [s.name for s in tracer.spans]
    assert names.count("ensembles.sample_haar_unitary") == 1
    assert "ensembles.RandomStream.generator" in names
    assert "ensembles._rng_of" in names
    restored = (
        kernels.quad_forms,
        experiments.sample_haar_unitary,
        experiments.EXPERIMENTS["gap_distribution"].runner,
        ensembles.RandomStream.generator,
        ensembles.GAP_SAMPLERS["GAP_def1"],
    )
    assert all(r is o for r, o in zip(restored, originals))


def test_gapdist_par2_payload_equals_serial():
    bench.import_program()
    from gaplab import runner

    bench.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=bench.OUT))
    try:
        digests = []
        for parallelism in (2, 1):
            paths = bench.write_configs("gapdist_par2", 0, work, parallelism)
            op = bench.run_op(runner, paths, work)
            assert op.problems == []
            digests.append(op.digest)
        assert digests[0] == digests[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("workload", ["cdm_trials", "short_four"])
def test_computed_counts_repeat_across_runs(workload):
    counts = []
    for _ in range(2):
        proc = _run_bench(
            "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert list(result["metrics"]) == PER_LAYER
        counts.append(
            {
                k: m["value"]
                for k, m in result["metrics"].items()
                if m["unit"] in bench.EXACT_UNITS
            }
        )
    assert counts[0] == counts[1]
    named = [
        "ensembles.sample_haar_unitary.flops_computed",
        "kernels.quad_forms.bytes_computed",
        "ensembles.RandomStream.generator.calls",
        "runner.bytes_written",
    ]
    if workload == "short_four":
        named += [
            "ensembles.sample_complex_gaussian.normals",
            "kernels.sum_outer.bytes_computed",
        ]
    else:
        named += ["kernels.conditional_dms.bytes_computed"]
    assert all(counts[0][k] > 0 for k in named)


def test_checkout_without_program_fails_without_result():
    bench.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=bench.OUT))
    try:
        shutil.copytree(
            HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__")
        )
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [
                sys.executable,
                str(bare / HERE.name / "run.py"),
                "--workload", "cdm_trials", "--seconds", "1", "--trace", "0",
            ],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
