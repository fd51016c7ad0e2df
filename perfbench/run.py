"""End-to-end benchmark of ``gaplab run``: timed and traced modes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cdm_trials --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each workload is a fixed set of reference configs from ``configs/``; the
seed becomes the ``seed`` of every generated config, and the program sees
only those configs, loaded with ``gaplab.runner.load_run_config`` and run
with ``gaplab.runner.execute_run``.  One operation is one execution of the
whole workload.  Reports go to a temporary directory under
``.perfbench_out/``, which also receives a results file with the
environment and, in traced mode, the spans.

``--trace 0`` prints the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` alternates untraced and traced operations
and prints the per-layer metrics.  Every operation passes the correctness
gate or counts as failed: the report validates against the program's
schema, every check passes, and the deterministic payload (the ``report``
section plus ``trials.tsv``) has the same SHA-256 in every operation of the
run, traced or not.  The last line of standard output is one JSON object;
the exit code is 0 only if no operation failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"

# cdm_trials runs this many trials for each of its three traced-factor
# dimensions: one operation then takes about 3 s on a 2-core x86 host, so
# a 25 s run holds several.
CDM_TRIALS = 300
# Fresh interpreters per run for setup_s; the median is reported.
SETUP_STARTS = 3


@dataclass(frozen=True)
class Workload:
    """Reference experiments run in sequence; why each was chosen is in
    README.md next to this file."""

    experiments: tuple[str, ...]
    parallelism: int
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    "cdm_trials": Workload(
        ("conditional_dm_concentration",),
        1,
        {"conditional_dm_concentration": {"n_trials": CDM_TRIALS}},
    ),
    "gapdist_par2": Workload(("gap_distribution",), 2),
    "short_four": Workload(
        (
            "gap_definition_equivalence",
            "unitary_covariance",
            "canonical_typicality",
            "gaussian_surrogate",
        ),
        1,
    ),
}

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import gaplab
from gaplab import runner
for path in sys.argv[1:]:
    runner.load_run_config(path)
elapsed = time.perf_counter() - t0
print(gaplab.__file__)
print(repr(elapsed))
"""


class LayoutError(RuntimeError):
    """The checkout lacks the program; no result can be produced."""


# ---------------------------------------------------------------------------
# environment


def _openblas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    from gaplab import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_using_numba": getattr(kernels, "USING_NUMBA", None),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# program under test


def import_program():
    """Import gaplab from this checkout's src/, never from elsewhere."""
    if not (SRC / "gaplab" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise LayoutError(f"no gaplab sources and configs under {ROOT}")
    sys.path.insert(0, str(SRC))
    import gaplab

    if Path(gaplab.__file__).resolve().parent != SRC / "gaplab":
        raise LayoutError(f"imported gaplab from {gaplab.__file__}")
    return gaplab


def write_configs(
    name: str, seed: int, work_dir: Path, parallelism: int | None = None
) -> list[Path]:
    """The workload's reference configs with the run seed and parallelism
    (the workload's own unless given)."""
    import yaml

    workload = WORKLOADS[name]
    paths = []
    for experiment in workload.experiments:
        raw = yaml.safe_load((CONFIGS / f"{experiment}.yaml").read_text())
        if raw.get("experiment") != experiment:
            raise LayoutError(f"configs/{experiment}.yaml names another experiment")
        raw["seed"] = seed
        raw["parallelism"] = parallelism or workload.parallelism
        raw.pop("out_dir", None)
        raw["config"] = {
            **(raw.get("config") or {}),
            **workload.overrides.get(experiment, {}),
        }
        path = work_dir / f"{experiment}.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=True))
        paths.append(path)
    return paths


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Seconds to import gaplab and load the configs, in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(SETUP_STARTS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *map(str, config_paths)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        where, elapsed = out.stdout.split()[-2:]
        if Path(where).resolve().parent != SRC / "gaplab":
            raise LayoutError(f"setup child imported gaplab from {where}")
        times.append(float(elapsed))
    return times


@dataclass
class Op:
    """One execution of a workload and what the gate found."""

    seconds: float = 0.0
    traced: bool = False
    digest: str = ""
    bytes_written: int = 0
    cpu_s: float = 0.0
    nivcsw: int = 0
    statistics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def _payload_check(paths: dict, schema: dict, digest) -> tuple[int, dict, list]:
    """Gate one report directory; feeds its payload into the digest."""
    import jsonschema

    problems = []
    envelope = json.loads(Path(paths["report"]).read_text())
    try:
        jsonschema.validate(envelope, schema)
    except jsonschema.ValidationError as exc:
        problems.append(f"schema: {exc.message}")
    report = envelope.get("report", {})
    failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if not report.get("overall_pass") or failing:
        problems.append(f"{report.get('experiment')}: FAIL {failing}")
    trials = Path(paths["trials"]).read_bytes()
    if trials.count(b"\n") != report.get("trial_row_count", -1) + 1:
        problems.append(f"{report.get('experiment')}: trials.tsv row count")
    digest.update(json.dumps(report, sort_keys=True, separators=(",", ":")).encode())
    digest.update(trials)
    # report.json is left out: its volatile footer (timestamps, wall time)
    # changes length from run to run, and this count must repeat exactly.
    written = len(trials) + os.path.getsize(paths["summary"])
    return written, report.get("statistics", {}), problems


def run_op(runner, config_paths, out_root: Path, tracer=None) -> Op:
    """Load and execute every config of the workload, then gate the output.

    Only the execute_run calls are timed.  With a tracer, the whole
    operation (config loading included) runs with the tracer installed.
    """
    op = Op(traced=tracer is not None)
    op_dir = Path(tempfile.mkdtemp(prefix="op-", dir=out_root))
    digest = hashlib.sha256()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    try:
        if tracer is not None:
            tracer.install()
        try:
            run_configs = [runner.load_run_config(str(p)) for p in config_paths]
            results = []
            for rc in run_configs:
                t0 = time.perf_counter()
                results.append(runner.execute_run(rc, str(op_dir)))
                op.seconds += time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        op.cpu_s = (usage1.ru_utime + usage1.ru_stime) - (
            usage0.ru_utime + usage0.ru_stime
        )
        op.nivcsw = usage1.ru_nivcsw - usage0.ru_nivcsw
        for _, paths in results:
            written, stats, problems = _payload_check(
                paths, runner.REPORT_SCHEMA, digest
            )
            op.bytes_written += written
            op.statistics.update(stats)
            op.problems.extend(problems)
        op.digest = digest.hexdigest()
    except Exception:  # the gate records any failure of the program
        op.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    if tracer is not None:
        op.spans = tracer.spans
    return op


def gate(ops: list[Op]) -> int:
    """Mark payload mismatches; return the number of failed operations."""
    digests = [op.digest for op in ops if op.digest]
    reference = statistics.mode(digests) if digests else None
    for op in ops:
        if op.digest and op.digest != reference:
            op.problems.append("payload differs from the other operations")
    return sum(1 for op in ops if op.problems)


# ---------------------------------------------------------------------------
# metrics


def timing(values: list[float], unit: str) -> dict:
    """Median plus the highest percentile with at least ten samples above."""
    ordered = sorted(values)
    out = {"value": statistics.median(ordered), "unit": unit, "samples": len(ordered)}
    if len(ordered) >= 11:
        out["tail_pct"] = 100.0 * (len(ordered) - 10) / len(ordered)
        out["tail"] = ordered[len(ordered) - 11]
    return out


def span_metrics(op: Op) -> dict:
    """Per-layer metrics of one traced operation, as {name: (value, unit)}."""
    from tracer import percentile, summarize

    by_name, layer_self = summarize(op.spans)  # zeros for names never seen

    def calls(name):
        return by_name[name].calls

    def secs(name):
        return by_name[name].seconds

    def work(name):
        return by_name[name].work

    trial_ms = [d * 1e3 for d in by_name["experiments.trial"].durations]
    scheduled = [s for s in op.spans if s.name == "parallel.run_trials"]
    capacity = sum(s.duration * s.work for s in scheduled)
    busy = sum(trial_ms) / 1e3
    acceptance = [
        v for k, v in op.statistics.items() if k.startswith("oracle_acceptance_rate[")
    ]
    m = {
        "runner.self_s": (layer_self["runner"], "s"),
        "runner.load_run_config.s": (secs("runner.load_run_config"), "s"),
        "runner.report_envelope.s": (secs("runner.report_envelope"), "s"),
        "runner.write_report.s": (secs("runner._write_report"), "s"),
        "runner.bytes_written": (op.bytes_written, "B"),
        "experiments.self_s": (layer_self["experiments"], "s"),
        "experiments.trial.calls": (len(trial_ms), "count"),
        "experiments.trial.p50_ms": (percentile(trial_ms, 50), "ms"),
        "experiments.trial.p99_ms": (percentile(trial_ms, 99), "ms"),
        "experiments.ks_pvalue.s": (secs("experiments.ks_pvalue"), "s"),
        "experiments.heredity_check.s": (secs("experiments.heredity_check"), "s"),
        "parallel.self_s": (layer_self["parallel"], "s"),
        "parallel.run_trials.s": (secs("parallel.run_trials"), "s"),
        "parallel.trials_per_s": (
            len(trial_ms) / secs("parallel.run_trials") if scheduled else 0.0,
            "1/s",
        ),
        "parallel.busy_fraction": (busy / capacity if capacity else 0.0, "fraction"),
        "parallel.idle_s": (capacity - busy if capacity else 0.0, "s"),
        "ensembles.self_s": (layer_self["ensembles"], "s"),
        "ensembles.sample_haar_unitary.calls": (
            calls("ensembles.sample_haar_unitary"),
            "count",
        ),
        "ensembles.sample_haar_unitary.s": (secs("ensembles.sample_haar_unitary"), "s"),
        "ensembles.sample_haar_unitary.flops_computed": (
            work("ensembles.sample_haar_unitary"),
            "flop",
        ),
        "ensembles.RandomStream.generator.calls": (
            calls("ensembles.RandomStream.generator"),
            "count",
        ),
        "ensembles.sample_complex_gaussian.s": (
            secs("ensembles.sample_complex_gaussian"),
            "s",
        ),
        "ensembles.sample_complex_gaussian.normals": (
            work("ensembles.sample_complex_gaussian"),
            "count",
        ),
        "ensembles.oracle_acceptance_rate": (
            statistics.fmean(acceptance) if acceptance else 0.0,
            "fraction",
        ),
        "kernels.self_s": (layer_self["kernels"], "s"),
    }
    for kernel in ("conditional_dms", "quad_forms", "sum_outer"):
        name = f"kernels.{kernel}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
        m[f"{name}.bytes_computed"] = (work(name), "B")
    m.update(
        {
            "thermal.self_s": (layer_self["thermal"], "s"),
            "thermal.match_beta.s": (secs("thermal.match_beta"), "s"),
            "hilbert.self_s": (layer_self["hilbert"], "s"),
            "hilbert.trace_distance.calls": (calls("hilbert.trace_distance"), "count"),
            "conditional.self_s": (layer_self["conditional"], "s"),
            "conditional.calls": (
                sum(st.calls for n, st in by_name.items() if n.startswith("conditional.")),
                "count",
            ),
            "trace.spans": (len(op.spans), "count"),
        }
    )
    return m


def process_metrics(untraced: list[Op], traced: list[Op]) -> dict:
    """Process counters of the untraced operations, and the cost of tracing."""
    cpu = statistics.median(o.cpu_s for o in untraced)
    wall = statistics.median(o.seconds for o in untraced)
    return {
        "process.cpu_s": (cpu, "s"),
        "process.cpu_util": (cpu / wall if wall else 0.0, "fraction"),
        "process.nivcsw": (statistics.median(o.nivcsw for o in untraced), "switches"),
        "trace.overhead_s": (statistics.median(o.seconds for o in traced) - wall, "s"),
    }


# Units of counts computed from shapes or calls: these must repeat exactly.
EXACT_UNITS = ("count", "B", "flop")


def combine_traced(per_op: list[dict]) -> tuple[dict, list[str]]:
    """Median of measured values across traced operations; exact counts
    must agree, which is reported as a problem when they do not."""
    combined, problems = {}, []
    for name, (value, unit) in per_op[0].items():
        values = [m[name][0] for m in per_op]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"computed count {name} varies: {values}")
            combined[name] = (value, unit)
        else:
            combined[name] = (statistics.median(values), unit)
    return combined, problems


# ---------------------------------------------------------------------------
# entry points


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    gaplab = import_program()
    from gaplab import runner

    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        config_paths = write_configs(name, seed, scratch)
        env = environment()
        if not trace:
            setup = measure_setup(config_paths)
        start = time.perf_counter()
        timed: list[Op] = []
        traced: list[Op] = []
        while True:
            timed.append(run_op(runner, config_paths, scratch))
            if trace:
                traced.append(run_op(runner, config_paths, scratch, Tracer()))
            if time.perf_counter() - start >= seconds:
                break
        ops = timed + traced
        extra_problems: list[str] = []
        if trace:
            layer, extra_problems = combine_traced([span_metrics(op) for op in traced])
            layer.update(process_metrics(timed, traced))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            _write_spans(name, seed, traced)
        else:
            metrics = {
                "run_s": timing([op.seconds for op in timed], "s"),
                "setup_s": timing(setup, "s"),
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
            }
        failed = gate(ops)
        if extra_problems:
            failed = max(failed, 1)
        problems = [p for op in ops for p in op.problems] + extra_problems
        result = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "gaplab": gaplab.__file__,
            "environment": env,
            "metrics": metrics,
            "ops": [
                {
                    "seconds": op.seconds,
                    "traced": op.traced,
                    "digest": op.digest,
                    "problems": op.problems,
                }
                for op in ops
            ],
            "problems": problems,
            "attempted": len(ops),
            "failed": failed,
        }
        (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True)
        )
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _write_spans(name: str, seed: int, traced: list[Op]) -> None:
    path = OUT / f"{name}-seed{seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for index, op in enumerate(traced):
            for s in op.spans:
                fh.write(json.dumps({"op": index, **dataclasses.asdict(s)}) + "\n")


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for problem in result["problems"]:
        print(f"  gate: {problem}")
    for key, m in result["metrics"].items():
        line = f"  {key:<46} {m['value']:>14.6g} {m['unit']}"
        if m["unit"] in EXACT_UNITS:
            line += "  (computed)"
        if "samples" in m:
            line += f"  (median of {m['samples']}"
            if "tail" in m:
                line += f"; p{m['tail_pct']:.0f} {m['tail']:.6g} {m['unit']}"
            line += ")"
        print(line)
    print(f"  {'runs_failed / runs_attempted':<46} {result['failed']} / {result['attempted']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    code, summary = 0, {}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        try:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):  # the run printed no result
            summary[name] = None
        code = code or proc.returncode
    print(json.dumps(summary, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except LayoutError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print_result(result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
