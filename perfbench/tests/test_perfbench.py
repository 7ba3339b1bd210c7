"""Tests of the benchmark's own parts: the generator, the checker and the span recorder.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import irslab.cli as cli  # noqa: E402
import irslab.metrics  # noqa: E402
from irslab.scenario import load_scenario  # noqa: E402

from perfbench import check, spans, workloads  # noqa: E402
from perfbench.run import Runner, per_layer  # noqa: E402

TINY = {
    "bs.x_m": 0.4, "bs.y_m": 0.6, "bs.z_m": -0.5,
    "user.x_m": 2.0, "user.y_m": -1.5, "user.z_m": -0.9,
    "irs.n_y": 10, "irs.n_z": 10, "partition.k_y": 2, "partition.k_z": 2,
    "grid.subcarriers": 8, "plane.points_x": 5, "plane.points_y": 4,
    "sweep.t_req_ps": (0.0, 2.5, 10.0), "sweep.partition_sizes": (1, 2, 5, 10),
    "rate.p_bs_dbm": (30.0, 60.0),
}
COMMANDS = (
    ("gain-profile", "csv"), ("beam-pattern", "csv"), ("td-count-sweep", "csv"),
    ("delay-range-sweep", "csv"), ("rate-sweep", "json"), ("export-config", "json"),
)


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text("".join(f"{k} = {workloads.render_value(v)}\n" for k, v in TINY.items()))
    return workloads.ScenarioFile("tiny", str(path), {**workloads.DEFAULTS, **TINY})


def tiny_ops(scenario, outdir):
    ops = []
    for command, fmt in COMMANDS:
        freqs = ("f1", "fc", "304.25") if command == "beam-pattern" else ()
        designs = ("dldd",) if command in ("beam-pattern", "export-config") else workloads.DESIGNS
        out = Path(outdir) / f"{command}.{fmt}"
        ops.append(workloads.make_op(len(ops), command, scenario, out, fmt=fmt,
                                     designs=designs, frequencies=freqs))
    return ops


def runner_with_references(scenario, outdir) -> Runner:
    runner = Runner(cli, check.Checker(seed=0))
    for design in workloads.DESIGNS:
        op = workloads.make_op(-1, "export-config", scenario, Path(outdir) / f"ref-{design}.json",
                               designs=(design,))
        runner.verify(op, runner.call(op.argv))
    assert runner.failures == []
    return runner


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_text()
            for p in sorted(directory.rglob("*.scn"))}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, name):
    a = workloads.generate(name, 7, ROOT, tmp_path / "a")
    b = workloads.generate(name, 7, ROOT, tmp_path / "b")
    c = workloads.generate(name, 8, ROOT, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")

    def argv(load, base):
        return [[arg.replace(str(base), "<dir>") for arg in op.argv] for op in load.ops]

    assert argv(a, tmp_path / "a") == argv(b, tmp_path / "b")
    assert [s.values for s in a.scenarios] == [s.values for s in b.scenarios]
    assert [s.name for s in a.scenarios[:2]] == ["default", "mirrored-y"]


@pytest.mark.parametrize("seed", range(6))
def test_generated_scenarios_are_valid(tmp_path, seed):
    for name in workloads.WORKLOADS:
        load = workloads.generate(name, seed, ROOT, tmp_path / name)
        for scn in load.scenarios:
            v = scn.values
            n_y, n_z = v["irs.n_y"], v["irs.n_z"]
            assert n_y % v["partition.k_y"] == 0 and n_z % v["partition.k_z"] == 0
            assert n_y // v["partition.k_y"] == n_z // v["partition.k_z"]
            assert all(n_y % k == 0 and n_z % k == 0 for k in v["sweep.partition_sizes"])
            if scn.name.startswith("variant"):
                assert v["user.x_m"] > 0 and v["bs.x_m"] > 0
            loaded = load_scenario(scn.path)  # irslab accepts the file and resolves the same values
            assert loaded.values["user.x_m"] == v["user.x_m"]
            assert loaded.values["grid.subcarriers"] == v["grid.subcarriers"]
        if name == "beam-plane":
            assert load.asymmetric_share == pytest.approx(1 / 3)


def _corrupt(path: str) -> None:
    """Move the last value of a result (or the first exported phase) by a relative 1e-6."""
    p = Path(path)
    if p.suffix == ".json":
        data = json.loads(p.read_text())
        if "rows" in data:
            data["rows"][-1][-1] = data["rows"][-1][-1] * (1 + 1e-6) + 1e-7
        else:
            data["phases_rad"][0] = data["phases_rad"][0] * (1 + 1e-6) + 1e-7
        p.write_text(json.dumps(data, indent=2))
        return
    lines = p.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[last].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6) + 1e-7)
    lines[last] = ",".join(fields)
    p.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[c for c, _ in COMMANDS])
def test_checker_rejects_a_corrupted_output(tmp_path, tiny, index):
    runner = runner_with_references(tiny, tmp_path)
    op = tiny_ops(tiny, tmp_path)[index]
    assert runner.call(op.argv) == 0
    runner.checker.check(op)
    _corrupt(op.out)
    with pytest.raises(check.CheckError):
        runner.checker.check(op)


def test_an_op_with_a_nonzero_exit_status_fails(tmp_path, tiny):
    runner = runner_with_references(tiny, tmp_path)
    good = tiny_ops(tiny, tmp_path)[0]
    bad = workloads.make_op(1, "gain-profile", workloads.ScenarioFile("missing", str(tmp_path / "no.scn"),
                                                                     tiny.values), tmp_path / "bad.csv")
    runner.run_pass([good, bad])
    assert runner.attempted == 3 + 2
    assert len(runner.failures) == 1 and "exit status 1" in runner.failures[0]


def test_layer_self_times_sum_to_at_most_the_traced_wall_time(tmp_path, tiny):
    runner = runner_with_references(tiny, tmp_path)
    ops = tiny_ops(tiny, tmp_path)
    original = irslab.metrics.gain_profile
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert irslab.metrics.gain_profile is not original
        walls, _, sizes = runner.run_for(ops, 0.0, rec, first_index=1)  # exactly one pass
    finally:
        rec.uninstall()
    assert irslab.metrics.gain_profile is original
    assert runner.failures == []
    assert {span[1] for span in rec.spans} == set(spans.LAYERS)
    assert min(rec.self_times()) > -1e-9

    metrics, _ = per_layer(rec, walls, walls, sizes, runner.checker)
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert 0.0 < layer_self <= metrics["trace.wall_s"][0]
    assert metrics["cli.calls"][0] >= len(ops)
    n = TINY["irs.n_y"] * TINY["irs.n_z"]
    # gain-profile and rate-sweep: 3 designs x N x M each; beam-pattern: N x 3 x (20 points + 1)
    assert metrics["metrics.phasor_evals"][0] >= 2 * 3 * n * TINY["grid.subcarriers"] + n * 3 * 21
    assert 0.0 < metrics["channel.redundant_frac"][0] < 1.0
    assert metrics["experiments.bytes_out"][0] > 0
