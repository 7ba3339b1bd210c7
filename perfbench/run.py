"""Benchmark of the irslab CLI experiments, end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload beam-plane --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after the other, each in a
fresh process, and ends with one JSON line that prefixes each metric with
its workload.

The run drives ``irslab.cli.main(argv)`` in this process, one op at a time
(closed loop, one client, no threads of its own), over the workload's fixed
op list built from the seed (see workloads.py). After one untimed warm-up op
it repeats the op list in passes until ``--seconds`` of measured time are
used, and checks every output (see check.py). With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs untraced passes for half
the time and traced passes for the other half, and reports the per-module
metrics (see spans.py). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record, with machine facts, is written
to ``.perfbench-work/<workload>-seed<n>-trace<t>/result.json``, and the
spans of a traced run next to it.

Exit status: 0 when a result was printed, 2 when the checkout has no irslab
sources to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import check, spans, workloads  # noqa: E402

SETUP_SAMPLES = 36  # half before the timed passes, half after, so that slow drift averages out
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import irslab.cli; print(repr(time.perf_counter() - t))"
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup(count: int) -> list[float]:
    """Import time of irslab.cli in `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def machine_facts() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Runner:
    """Runs ops through irslab.cli.main and checks what they wrote."""

    def __init__(self, cli, checker):
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}

    def call(self, argv) -> int:
        try:
            return self.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return -1

    def _fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")
        print(f"perfbench: FAILED {what}: {why}", file=sys.stderr)

    def verify(self, op, code: int) -> None:
        """Count the op and check its output; byte-identical repeats of a checked output pass."""
        self.attempted += 1
        what = f"op {op.index} ({' '.join(op.argv)})"
        if code != 0:
            self._fail(what, f"exit status {code}")
            return
        try:
            digest = hashlib.sha256(Path(op.out).read_bytes()).hexdigest()
            if self.digests.get(op.index) != digest:
                self.checker.check(op)
                self.digests[op.index] = digest
        except Exception as exc:  # any malformed output fails the op, never the run
            self._fail(what, f"{type(exc).__name__}: {exc}")

    def run_pass(self, ops, recorder=None, index=0) -> tuple[float, list[float]]:
        """Run the op list once; returns the pass wall time and each op's latency."""
        for op in ops:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(op.out)
        latencies, codes = [], []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            for op in ops:
                if recorder is not None:
                    recorder.op = (index, op.index)
                t = time.perf_counter()
                codes.append(self.call(op.argv))
                latencies.append(time.perf_counter() - t)
            wall = time.perf_counter() - start
        for op, code in zip(ops, codes):
            self.verify(op, code)
        return wall, latencies

    def run_for(self, ops, budget: float, recorder=None, first_index=0):
        """Whole passes while the next one is expected to fit in `budget` seconds (at least one)."""
        walls, latencies, sizes = [], [], []
        while not walls or sum(walls) + walls[-1] <= budget:
            wall, lat = self.run_pass(ops, recorder, first_index + len(walls))
            walls.append(wall)
            latencies += lat
            sizes.append(sum(Path(op.out).stat().st_size for op in ops
                             if op.writes_table and Path(op.out).exists()))
        return walls, latencies, sizes


def end_to_end(setup, walls, latencies) -> tuple[dict, dict]:
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(latencies)
    beyond = sum(x > percentile(latencies, 90) for x in latencies)
    notes = {
        "setup_s": f"median of {len(setup)} fresh-interpreter imports",
        "wall_s": f"median of {len(walls)} passes",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10: indicative only)"),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def per_layer(rec, traced, untraced, sizes, checker) -> tuple[dict, dict]:
    """Per-pass medians over the traced passes, numbered from 1."""
    passes = range(1, len(traced) + 1)
    calls = {p: dict.fromkeys(spans.LAYERS, 0) for p in passes}
    own = {p: dict.fromkeys(spans.LAYERS, 0.0) for p in passes}
    serialize = dict.fromkeys(passes, 0.0)
    for (name, layer, _, _, _, op), self_s in zip(rec.spans, rec.self_times()):
        calls[op[0]][layer] += 1
        own[op[0]][layer] += self_s
        if name in spans.SERIALIZERS or name.startswith("experiments.run_"):
            serialize[op[0]] += self_s  # a runner's own time is its row building

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (med(calls[p][layer] for p in passes), "count")
        metrics[f"{layer}.self_s"] = (med(own[p][layer] for p in passes), "s")
    counts = [rec.counts[p] for p in passes]
    distances = sum(c["channel.element_distances"] for c in counts)
    repeated = sum(c["channel.repeated_distances"] for c in counts)
    metrics.update({
        "metrics.phasor_evals": (med(c["metrics.phasor_evals"] for c in counts), "count"),
        "metrics.bytes_computed": (max(c["metrics.bytes_computed"] for c in counts), "bytes"),
        "channel.redundant_frac": (repeated / distances if distances else 0.0, "ratio"),
        "experiments.serialize_s": (med(serialize.values()), "s"),
        "experiments.bytes_out": (med(sizes), "bytes"),
        "metrics.max_gain_err": (checker.max_gain_err, "abs"),
        "trace.wall_s": (med(traced), "s"),
        "trace.overhead_s": (med(traced) - med(untraced), "s"),
    })
    notes = {
        "channel.redundant_frac": f"{repeated:.0f} of {distances:.0f} element_distances calls "
                                  "repeat an endpoint of their op",
        "trace.overhead_s": f"median of {len(traced)} traced minus median of {len(untraced)} untraced passes",
    }
    return metrics, notes


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True,
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Every workload in a fresh process, so that setup_s and peak_rss_mb are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        *report, last = done.stdout.splitlines() or [""]
        print("\n".join(report))
        if done.returncode != 0:
            return done.returncode
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "irslab" / "cli.py").is_file() or not (ROOT / "scenarios" / "default.scn").is_file():
        print(f"perfbench: no irslab sources under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    if not args.trace:
        setup = measure_setup(1 + SETUP_SAMPLES // 2)[1:]  # the first one writes the bytecode

    sys.path.insert(0, str(SRC))
    import irslab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "irslab":
        print(f"perfbench: imported irslab from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    load = workloads.generate(args.workload, args.seed, ROOT, workdir)
    runner = Runner(cli, check.Checker(args.seed))

    # Reference beamformers for the oracle: untimed, but counted and checked like any op.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for scn in load.scenarios:
            for design in workloads.DESIGNS:
                out = workdir / f"ref-{scn.name}-{design}.json"
                op = workloads.make_op(-1 - runner.attempted, "export-config", scn, out, designs=(design,))
                runner.verify(op, runner.call(op.argv))
    runner.run_pass(load.ops[:1])  # warm-up

    if args.trace:
        untraced, _, _ = runner.run_for(load.ops, args.seconds / 2)
        rec = spans.SpanRecorder()
        rec.install()
        try:
            traced, _, sizes = runner.run_for(load.ops, args.seconds / 2, rec, first_index=1)
        finally:
            rec.uninstall()
        rec.dump(workdir / "spans.json")
        metrics, notes = per_layer(rec, traced, untraced, sizes, runner.checker)
    else:
        walls, latencies, _ = runner.run_for(load.ops, args.seconds)
        setup += measure_setup(SETUP_SAMPLES // 2)
        metrics, notes = end_to_end(setup, walls, latencies)

    failed = len(runner.failures)
    summary = {
        "workload": load.name,
        "why": load.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(load.ops),
        "asymmetric_ghz_share": load.asymmetric_share,
        "scenarios": [s.path for s in load.scenarios],
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "machine": machine_facts(),
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k, "")} for k, (v, u) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"perfbench workload={load.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {load.why}")
    print(f"  machine: {json.dumps(summary['machine'])}")
    print(f"  ops: {len(load.ops)} per pass over {len(load.scenarios)} scenarios; "
          f"asymmetric GHz share of beam-pattern ops {load.asymmetric_share:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<26} {summary['failed_frac']:>16.6g} ratio  {failed} of {runner.attempted} ops")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
