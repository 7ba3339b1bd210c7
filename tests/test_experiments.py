import gc
import io
import json
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irslab import __version__, channel, cli, experiments, geometry
from irslab.channel import element_distances
from irslab.cli import main
from irslab.experiments import (
    DESIGN_NAMES,
    ResultTable,
    _write_json,
    export_config,
    run_beam_pattern,
    run_delay_range_sweep,
    run_gain_profile,
    run_rate_sweep,
    run_td_count_sweep,
)
from irslab.geometry import (
    DegenerateGeometryError,
    PanelPlaneWarning,
    element_position,
    panel_distances,
)
from irslab.scenario import ScenarioError, parse_scenario

SMALL = """
irs.n_y = 20
irs.n_z = 20
partition.k_y = 4
partition.k_z = 4
grid.subcarriers = 16
bs.x_m = 0.4
bs.y_m = 0.6
bs.z_m = -0.5
user.x_m = 2.0
user.y_m = -1.5
user.z_m = -0.9
plane.x_min_m = 1.5
plane.x_max_m = 2.5
plane.y_min_m = -2.0
plane.y_max_m = -1.0
plane.points_x = 11
plane.points_y = 11
sweep.partition_sizes = 1,2,4,5
sweep.t_req_ps = 0,2,5
rate.p_bs_dbm = 20,40
"""


@pytest.fixture(scope="module")
def small_scenario():
    return parse_scenario(SMALL)


def csv_bytes(table) -> str:
    buf = io.StringIO()
    table.to_csv(buf)
    return buf.getvalue()


def data_section(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


class TestGainProfileRunner:
    def test_columns_and_shape(self, small_scenario):
        table = run_gain_profile(small_scenario)
        assert table.columns == (
            "subcarrier_index",
            "frequency_ghz",
            "gain_narrowband",
            "gain_dldd",
            "gain_per_element",
        )
        assert len(table.column("subcarrier_index")) == 16

    def test_per_element_column_is_unity(self, small_scenario):
        table = run_gain_profile(small_scenario)
        assert np.all(np.abs(table.column("gain_per_element") - 1.0) < 1e-9)

    def test_design_subset(self, small_scenario):
        table = run_gain_profile(small_scenario, designs=("dldd",))
        assert table.columns == ("subcarrier_index", "frequency_ghz", "gain_dldd")

    def test_unknown_design_rejected(self, small_scenario):
        with pytest.raises(ScenarioError, match="unknown design"):
            run_gain_profile(small_scenario, designs=("phased-array",))


class TestBeamPatternRunner:
    def test_long_format_and_peaks(self, small_scenario):
        table = run_beam_pattern(small_scenario, design="per-element")
        assert table.columns == ("frequency_ghz", "x_m", "y_m", "gain")
        assert len(table.column("gain")) == 3 * 11 * 11
        peaks = [c for c in table.comments if c.startswith("peak:")]
        assert len(peaks) == 3

    def test_per_element_peaks_at_user(self, small_scenario):
        table = run_beam_pattern(small_scenario, design="per-element")
        for comment in table.comments:
            fields = dict(part.split("=") for part in comment.split()[1:])
            assert float(fields["x_m"]) == pytest.approx(2.0, abs=0.051)
            assert float(fields["y_m"]) == pytest.approx(-1.5, abs=0.051)
            assert float(fields["gain"]) > 0.95

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_frequency_rejected(self, small_scenario, token):
        with pytest.raises(ScenarioError, match="finite"):
            run_beam_pattern(small_scenario, frequencies=["fc", token])

    @pytest.mark.parametrize("token", ["-300", "0", "-0.0"])
    def test_nonpositive_frequency_rejected(self, small_scenario, token):
        with pytest.raises(ScenarioError, match="above 0 GHz"):
            run_beam_pattern(small_scenario, frequencies=["fc", token])

    def test_explicit_frequency_tokens(self, small_scenario):
        table = run_beam_pattern(small_scenario, design="narrowband", frequencies=["fc"])
        assert len(table.column("gain")) == 11 * 11
        grid = small_scenario.grid
        assert table.column("frequency_ghz")[0] == pytest.approx(grid.f_c / 1e9)

    def test_bad_token(self, small_scenario):
        with pytest.raises(ScenarioError, match="frequency token"):
            run_beam_pattern(small_scenario, frequencies=["fQ"])

    @pytest.mark.parametrize("tokens", [
        ["fc", "fc"], ["f1", "fM", "f1"], ["fc", "300"], ["300", "3e2"], [300.0, "fc"],
    ])
    def test_repeated_frequency_rejected(self, small_scenario, tokens):
        with pytest.raises(ScenarioError, match="repeats"):
            run_beam_pattern(small_scenario, frequencies=tokens)

    def test_token_order_is_free(self, small_scenario):
        grid = small_scenario.grid
        up = run_beam_pattern(small_scenario, frequencies=["f1", "fc", "fM"])
        down = run_beam_pattern(small_scenario, frequencies=["fM", "fc", "f1"])
        block = 11 * 11
        assert [down.column("frequency_ghz")[i * block] for i in range(3)] == [
            grid.frequencies[-1] / 1e9, grid.f_c / 1e9, grid.frequencies[0] / 1e9
        ]
        for name in up.columns:
            for i in range(3):
                assert (down.column(name)[i * block:(i + 1) * block].tolist()
                        == up.column(name)[(2 - i) * block:(3 - i) * block].tolist())
        assert down.comments == up.comments[::-1]


class TestTdCountSweep:
    def test_module_counts(self, small_scenario):
        table = run_td_count_sweep(small_scenario)
        assert table.columns == ("k_t", "edge_gain")
        assert table.column("k_t").tolist() == [0, 3, 15, 24]

    def test_gain_improves_with_modules(self, small_scenario):
        table = run_td_count_sweep(small_scenario)
        gains = table.column("edge_gain")
        assert gains[-1] > gains[0]
        assert np.all((gains >= 0) & (gains <= 1 + 1e-9))


class TestDelayRangeSweep:
    def test_zero_cap_equals_narrowband_edge(self, small_scenario):
        table = run_delay_range_sweep(small_scenario)
        profile = run_gain_profile(small_scenario, designs=("narrowband",))
        nb_edge = min(profile.column("gain_narrowband")[0], profile.column("gain_narrowband")[-1])
        assert table.column("t_req_ps")[0] == 0.0
        # per-element exactly, dldd up to model error
        assert table.column("edge_gain_per_element")[0] == pytest.approx(nb_edge, abs=1e-9)
        assert table.column("edge_gain_dldd")[0] == pytest.approx(nb_edge, abs=5e-3)

    def test_large_cap_releases_clamp(self, small_scenario):
        # per-element delays here are ~6 ns, so 100 ns releases everything
        table = run_delay_range_sweep(
            parse_scenario(SMALL.replace("sweep.t_req_ps = 0,2,5", "sweep.t_req_ps = 0,100000"))
        )
        profile = run_gain_profile(small_scenario, designs=("dldd", "per-element"))
        dldd_edge = min(profile.column("gain_dldd")[0], profile.column("gain_dldd")[-1])
        assert table.column("edge_gain_dldd")[-1] == pytest.approx(dldd_edge, abs=1e-12)
        assert table.column("edge_gain_per_element")[-1] == pytest.approx(1.0, abs=1e-9)


@pytest.fixture
def position_tables(monkeypatch):
    """Records every element-distance computation of a scene: both endpoints' element
    distances come from one `panel_distances` call, so counting calls counts them."""
    tables = []

    def counting(layout, *args, **kwargs):
        tables.append(layout)
        return panel_distances(layout, *args, **kwargs)

    for module in (geometry, channel):  # channel too, should it import the helper again
        monkeypatch.setattr(module, "panel_distances", counting, raising=False)
    return tables


class TestSweepDistances:
    @pytest.mark.parametrize("run", [run_td_count_sweep, run_delay_range_sweep])
    def test_computed_once_per_endpoint(self, position_tables, run):
        scenario = parse_scenario(SMALL)  # not the shared fixture: no runner has used it yet
        run(scenario)
        assert len(position_tables) == 1
        assert sorted(scenario.scene.element_distances) == ["bs", "user"]


class TestSceneDistances:
    def test_each_endpoint_computed_once(self, position_tables):
        """Every runner and design on one Scenario reads its scene's distances."""
        scenario = parse_scenario(SMALL)  # not the shared fixture: no runner has used it yet
        run_gain_profile(scenario)
        run_rate_sweep(scenario)
        run_td_count_sweep(scenario)
        run_delay_range_sweep(scenario)
        for name in DESIGN_NAMES:
            run_beam_pattern(scenario, design=name)
            export_config(scenario, name)
        assert len(position_tables) == 1

    @pytest.mark.parametrize("endpoint", ["bs", "user"])
    def test_distances_are_read_only(self, small_scenario, endpoint):
        r = element_distances(small_scenario.scene, endpoint)
        before = r.copy()
        with pytest.raises(ValueError, match="read-only"):
            r[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            r *= 2.0
        np.testing.assert_array_equal(element_distances(small_scenario.scene, endpoint), before)

    @pytest.mark.filterwarnings("ignore::irslab.beamforming.SignConsistencyWarning")
    def test_degenerate_check_is_per_endpoint(self):
        """A user on a panel element fails only what needs the user's distances."""
        layout = parse_scenario(SMALL).scene.layout
        p = element_position(layout, 1, 1)
        scenario = parse_scenario(SMALL.replace("user.x_m = 2.0", f"user.x_m = {p.x!r}")
                                  .replace("user.y_m = -1.5", f"user.y_m = {p.y!r}")
                                  .replace("user.z_m = -0.9", f"user.z_m = {p.z!r}"))
        table = run_beam_pattern(scenario, design="dldd")  # BS distances only
        assert np.all(np.isfinite(table.column("gain")))
        with pytest.raises(DegenerateGeometryError, match="user coincides"):
            run_gain_profile(scenario, designs=("dldd",))


class TestRateSweep:
    def test_columns_and_dominance(self, small_scenario):
        table = run_rate_sweep(small_scenario)
        assert table.columns == (
            "p_bs_dbm",
            "rate_narrowband",
            "rate_dldd",
            "rate_per_element",
        )
        nb, dldd, pe = (table.column(name) for name in table.columns[1:])
        assert np.all(pe >= dldd - 1e-12)
        assert np.all(dldd >= nb - 1e-12)

    def test_rates_grow_with_power(self, small_scenario):
        table = run_rate_sweep(small_scenario)
        nb = table.column("rate_narrowband")
        assert np.all(np.diff(nb) > 0)


@pytest.mark.parametrize("run", [run_gain_profile, run_rate_sweep])
@pytest.mark.parametrize("designs", [("dldd", "dldd"), ("narrowband", "dldd", "narrowband")])
def test_repeated_design_rejected(small_scenario, run, designs):
    # a repeated design would name two columns alike
    with pytest.raises(ScenarioError, match="more than once"):
        run(small_scenario, designs=designs)


def test_documented_columns_match_the_runners(small_scenario):
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    table = text.split("| experiment | columns |\n", 1)[1].split("\n\n", 1)[0]
    suffixes = [name.replace("-", "_") for name in DESIGN_NAMES]
    documented = {}
    for row in table.splitlines()[1:]:
        experiment, columns = [cell.strip() for cell in row.strip("|").split("|")]
        names = re.search(r"`([^`]*)`", columns).group(1).split(", ")
        documented[experiment.strip("`")] = tuple(
            expanded
            for name in names
            for expanded in (
                [name.replace("<design>...", s) for s in suffixes] if "<design>" in name else [name]
            )
        )
    runners = {
        "gain-profile": run_gain_profile,
        "beam-pattern": run_beam_pattern,
        "td-count-sweep": run_td_count_sweep,
        "delay-range-sweep": run_delay_range_sweep,
        "rate-sweep": run_rate_sweep,
    }
    assert {name: run(small_scenario).columns for name, run in runners.items()} == documented


class TestDeterminismAndProvenance:
    def test_byte_identical_rerun(self, small_scenario):
        a = csv_bytes(run_gain_profile(small_scenario))
        b = csv_bytes(run_gain_profile(small_scenario))
        assert a == b

    def test_header_carries_provenance(self, small_scenario):
        text = csv_bytes(run_td_count_sweep(small_scenario))
        lines = text.splitlines()
        assert lines[0] == "# experiment: td-count-sweep"
        assert lines[1].startswith("# scenario-hash: ")
        assert lines[2].startswith("# version: irslab ")

    def test_hash_tracks_scenario_mutation(self, small_scenario):
        mutated = parse_scenario(SMALL + "rate.noise_dbm_hz = -170\n")
        a = run_td_count_sweep(small_scenario)
        b = run_td_count_sweep(mutated)
        assert a.scenario_hash != b.scenario_hash

    def test_json_mirror(self, small_scenario):
        table = run_td_count_sweep(small_scenario)
        buf = io.StringIO()
        table.to_json(buf)
        blob = json.loads(buf.getvalue())
        assert blob["experiment"] == "td-count-sweep"
        assert blob["columns"] == ["k_t", "edge_gain"]
        assert len(blob["rows"]) == len(table.column("k_t"))


class TestExportConfig:
    def test_dldd_export(self, small_scenario):
        blob = export_config(small_scenario, "dldd")
        assert blob["design"] == "dldd"
        assert blob["partition"] == {"k_y": 4, "k_z": 4, "s": 5}
        assert len(blob["phases_rad"]) == 400
        assert blob["delay_network"]["type"] == "dldd"
        json.dumps(blob)  # serializable

    def test_narrowband_export(self, small_scenario):
        blob = export_config(small_scenario, "narrowband")
        assert blob["delay_network"] == {"type": "none"}


class TestCli:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        p = tmp_path / "small.scn"
        p.write_text(SMALL)
        return p

    def test_gain_profile_roundtrip(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "gp.csv"
        rc = main(["gain-profile", "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        text = out.read_text()
        assert text.startswith("# experiment: gain-profile\n")
        assert "subcarrier_index,frequency_ghz" in text
        assert f"wrote {out}" in capsys.readouterr().out

    def test_cli_reruns_are_byte_identical(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["rate-sweep", "--scenario", str(scenario_file), "--out", str(out1)]) == 0
        assert main(["rate-sweep", "--scenario", str(scenario_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, scenario_file, tmp_path):
        out = tmp_path / "tc.json"
        rc = main([
            "td-count-sweep", "--scenario", str(scenario_file),
            "--out", str(out), "--format", "json",
        ])
        assert rc == 0
        assert json.loads(out.read_text())["experiment"] == "td-count-sweep"

    def test_export_config_cli(self, scenario_file, tmp_path):
        out = tmp_path / "cfg.json"
        rc = main([
            "export-config", "--scenario", str(scenario_file),
            "--design", "per-element", "--out", str(out),
        ])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["design"] == "per-element"
        assert "scenario_hash" in blob

    def test_invalid_scenario_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("partition.k_y = 7\n")
        rc = main(["gain-profile", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "divisible" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path, capsys):
        rc = main(["gain-profile", "--scenario", str(tmp_path / "none.scn")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_scenario_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.scn"
        bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
        assert main(["gain-profile", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read scenario file {bad}: ")

    def test_bad_design_usage_error(self, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["gain-profile", "--scenario", str(scenario_file), "--designs", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, designs", [
        ("gain-profile", "dldd,dldd"),
        ("rate-sweep", "narrowband,narrowband"),
        ("rate-sweep", "dldd,per-element,dldd"),
    ])
    def test_duplicate_designs_usage_error(self, scenario_file, tmp_path, capsys,
                                           command, designs):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(scenario_file), "--designs", designs,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "at most once" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_scenario_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "nan.scn"
        bad.write_text(SMALL + "grid.bandwidth_ghz = nan\n")
        out = tmp_path / "x.csv"
        assert main(["gain-profile", "--scenario", str(bad), "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_frequencies_exit_nonzero(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        rc = main([
            "beam-pattern", "--scenario", str(scenario_file),
            "--frequencies", "nan,inf", "--out", str(out),
        ])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frequencies", [",", " , ", ""])
    def test_empty_frequencies_usage_error(self, scenario_file, tmp_path, capsys, frequencies):
        out = tmp_path / "bp.csv"
        with pytest.raises(SystemExit) as exc:
            main(["beam-pattern", "--scenario", str(scenario_file),
                  "--frequencies", frequencies, "--out", str(out)])
        assert exc.value.code == 2
        assert "at least one frequency" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frequencies", ["fc,fc", "fc,300", "fM,f1,fM"])
    def test_repeated_frequencies_exit_nonzero(self, scenario_file, tmp_path, capsys,
                                               frequencies):
        out = tmp_path / "bp.csv"
        rc = main(["beam-pattern", "--scenario", str(scenario_file),
                   "--frequencies", frequencies, "--out", str(out)])
        assert rc == 1
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_frequencies_exit_nonzero(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        rc = main([
            "beam-pattern", "--scenario", str(scenario_file),
            "--frequencies=-300,0", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_band_below_zero_hz_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "low.scn"
        bad.write_text("grid.f_c_ghz = 10\ngrid.bandwidth_ghz = 30\n")
        out = tmp_path / "x.csv"
        assert main(["gain-profile", "--scenario", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: lowest subcarrier")
        assert not out.exists()

    @pytest.mark.parametrize("line", ["rate.p_bs_dbm = 30,4000", "rate.noise_dbm_hz = 4000"])
    def test_dbm_beyond_float_range_exits_nonzero(self, tmp_path, capsys, line):
        # 10**((dbm - 30)/10) overflows a float above ~3112.5 dBm
        bad = tmp_path / "loud.scn"
        bad.write_text(SMALL.replace("rate.p_bs_dbm = 20,40", line))
        out = tmp_path / "x.csv"
        assert main(["rate-sweep", "--scenario", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line.split()[0]}: 4000 dBm") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gain-profile", "rate-sweep"])
    @pytest.mark.parametrize("line", ["rate.p_bs_dbm = 30,-4000", "rate.noise_dbm_hz = -4000"])
    def test_dbm_rounding_to_zero_watts_exits_nonzero(self, tmp_path, capsys, line, command):
        # 10**((dbm - 30)/10) rounds to 0.0 below ~-3206 dBm
        bad = tmp_path / "quiet.scn"
        bad.write_text(SMALL.replace("rate.p_bs_dbm = 20,40", line))
        out = tmp_path / "x.csv"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line.split()[0]}: -4000 dBm") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gain-profile", "rate-sweep", "delay-range-sweep"])
    def test_scenario_resolved_once_per_run(self, tmp_path, command):
        # default.scn puts the BS at x = 0, which warns each time the file is loaded
        scn = Path(__file__).resolve().parent.parent / "scenarios" / "default.scn"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--scenario", str(scn), "--out", str(tmp_path / "x.csv")]) == 0
        assert [w.category for w in caught].count(PanelPlaneWarning) == 1

    def test_panel_plane_warning_names_the_file_and_key(self, tmp_path):
        scn = Path(__file__).resolve().parent.parent / "scenarios" / "default.scn"
        with pytest.warns(PanelPlaneWarning, match=f"^{re.escape(str(scn))}: bs.x_m: BS lies"):
            assert main(["gain-profile", "--scenario", str(scn), "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("command", ["gain-profile", "export-config"])
    def test_unwritable_out_exits_nonzero(self, scenario_file, tmp_path, capsys, command):
        out = tmp_path / "missing" / "dir" / "x.csv"
        rc = main([command, "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_failed_allocation_exits_nonzero(self, scenario_file, tmp_path, capsys,
                                             monkeypatch):
        # NumPy's failed allocation is a MemoryError subclass; none is made for real here,
        # since whether a huge request fails at once depends on the machine
        message = "Unable to allocate 74.5 GiB for an array with shape (10000000000,)"

        def failing(sc, args):
            raise MemoryError(message)

        monkeypatch.setitem(cli.COMMANDS, "gain-profile", ("fails", failing))
        out = tmp_path / "gp.csv"
        assert main(["gain-profile", "--scenario", str(scenario_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_export_config_has_no_format_option(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "export-config", "--scenario", str(scenario_file),
                "--format", "csv", "--out", str(tmp_path / "cfg.csv"),
            ])
        assert exc.value.code == 2

    def test_beam_pattern_cli(self, scenario_file, tmp_path):
        out = tmp_path / "bp.csv"
        rc = main([
            "beam-pattern", "--scenario", str(scenario_file),
            "--design", "dldd", "--frequencies", "fc", "--out", str(out),
        ])
        assert rc == 0
        assert "# peak:" in out.read_text()

    def test_runs_in_one_process_get_independent_arguments(self, scenario_file, tmp_path,
                                                          monkeypatch):
        seen = []

        def record(scenario, designs):
            seen.append(designs)
            return run_gain_profile(scenario, designs)

        monkeypatch.setattr(cli, "run_gain_profile", record)
        for extra in (["--designs", "dldd"], []):
            argv = ["gain-profile", "--scenario", str(scenario_file), *extra]
            assert main([*argv, "--out", str(tmp_path / "gp.csv")]) == 0
        assert [list(d) for d in seen] == [["dldd"], list(DESIGN_NAMES)]
        assert cli.build_parser() is cli.build_parser()

    def test_td_count_sweep_on_non_square_panel_names_the_key(self, tmp_path, capsys):
        # sizes that divide both axes load, but no k x k partition of 100x50 is square
        scn = tmp_path / "wide.scn"
        scn.write_text("irs.n_y = 100\nirs.n_z = 50\npartition.k_y = 10\npartition.k_z = 5\n"
                       "sweep.partition_sizes = 1,2,5,10,25,50\n")
        assert main(["gain-profile", "--scenario", str(scn), "--out", str(tmp_path / "gp.csv")]) == 0
        out = tmp_path / "tc.csv"
        assert main(["td-count-sweep", "--scenario", str(scn), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep.partition_sizes: ") and "irs.n_y == irs.n_z" in err
        assert not out.exists()


BLOCK = experiments._BLOCK_ROWS
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               sys.float_info.max, -sys.float_info.max]
INT64 = np.iinfo(np.int64)
MIB = 1 << 20


def _old_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def old_writers(table: ResultTable) -> tuple[str, str]:
    """CSV and JSON as the row-tuple table wrote them: the reference for the column writers."""
    rows = list(zip(*(table.column(name) for name in table.columns)))
    csv = io.StringIO()
    csv.write(f"# experiment: {table.experiment}\n")
    csv.write(f"# scenario-hash: {table.scenario_hash}\n")
    csv.write(f"# version: irslab {__version__}\n")
    csv.write(",".join(table.columns) + "\n")
    for row in rows:
        csv.write(",".join(_old_cell(v) for v in row) + "\n")
    for comment in table.comments:
        csv.write(f"# {comment}\n")
    js = io.StringIO()
    json.dump(
        {
            "experiment": table.experiment,
            "scenario_hash": table.scenario_hash,
            "version": __version__,
            "comments": list(table.comments),
            "columns": list(table.columns),
            "rows": [list(map(float, row)) for row in rows],
        },
        js,
        indent=2,
    )
    js.write("\n")
    return csv.getvalue(), js.getvalue()


FLOATS = st.sampled_from(FLOAT_EDGES + [np.nan, np.inf, -np.inf]) | st.floats()


@st.composite
def repeated(draw, n: int) -> np.ndarray:
    """A beam-pattern-like column: a few values, 0.0 and -0.0 among them, each repeated
    in runs, so that a writer block holds each value many times."""
    pool = np.array([0.0, -0.0, *draw(st.lists(FLOATS, max_size=3))])
    pool = pool[draw(st.permutations(range(pool.size)))]
    run = draw(st.sampled_from([1, 2, 41, BLOCK - 1, BLOCK + 3]))
    return np.resize(np.repeat(pool, run), n)


@st.composite
def tables(draw):
    """Tables of int64 and float64 columns with row counts around the writers' block size:
    NaN and +-inf included (JSON writes NaN and Infinity where CSV writes nan and inf),
    and beam-like columns of a few repeated values."""
    n = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    kinds = {
        "int64": arrays(np.int64, n, elements=st.integers(int(INT64.min), int(INT64.max))),
        "float64": arrays(np.float64, n, elements=FLOATS),
        "repeated": repeated(n),
    }
    names = draw(st.lists(st.sampled_from(list(kinds)), min_size=1, max_size=4))
    data = {f"c{i}": draw(kinds[name]) for i, name in enumerate(names)}
    return ResultTable("beam-pattern", "0" * 64, data, ("peak: gain=1.0 ix=0",))


EDGE_TABLE = ResultTable("rate-sweep", "f" * 64, {
    "i": np.resize(np.array([0, 1, -1, INT64.min, INT64.max]), 2 * BLOCK + 1),
    "f": np.resize(np.array(FLOAT_EDGES), 2 * BLOCK + 1),
})
# 3 frequencies over a 41 x 61 plane whose x and y axes cross 0.0 and -0.0, and
# gains with NaN and +-inf, as the writers would see a beam pattern if any
BEAM_ROWS = 3 * 41 * 61
BEAM_TABLE = ResultTable("beam-pattern", "e" * 64, {
    "frequency_ghz": np.repeat([285.0, 300.0, 315.0], 41 * 61),
    "x_m": np.tile(np.repeat(np.linspace(-1.0, 1.0, 41), 61), 3) * np.resize([1.0, -1.0], BEAM_ROWS),
    "y_m": np.tile(np.resize([0.0, -0.0, 0.5], 61), 3 * 41),
    "gain": np.resize([0.25, np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0], BEAM_ROWS),
}, ("peak: frequency_ghz=300.0 x_m=0.0 y_m=-0.0 gain=1.0 ix=20 iy=1",))


class TestWriters:
    @settings(max_examples=30, deadline=None)
    @given(table=tables())
    @example(table=EDGE_TABLE)
    @example(table=BEAM_TABLE)
    def test_match_the_row_writer(self, table):
        csv, js = io.StringIO(), io.StringIO()
        table.to_csv(csv)
        table.to_json(js)
        assert (csv.getvalue(), js.getvalue()) == old_writers(table)

    def test_unknown_column_is_a_key_error(self):
        with pytest.raises(KeyError):
            EDGE_TABLE.column("gain")

    def test_column_is_a_copy(self):
        EDGE_TABLE.column("f")[:] = 1.0
        assert EDGE_TABLE.column("f")[1] == -0.0 and np.signbit(EDGE_TABLE.column("f")[1])

    def test_large_beam_pattern_holds_only_its_columns(self, small_scenario):
        """A 101x101 plane table (30,603 rows, ~7.5 writer blocks) keeps its column bytes,
        and writing it adds a bounded block."""

        class Sink:
            def write(self, text: str) -> int:
                return len(text)

        big = parse_scenario(SMALL.replace("points_x = 11", "points_x = 101")
                             .replace("points_y = 11", "points_y = 101"))
        run_beam_pattern(small_scenario)  # builds the kernel's cached tables outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = run_beam_pattern(big)
            retained = tracemalloc.get_traced_memory()[0] - base
            added = []
            for write in (table.to_csv, table.to_json):
                tracemalloc.reset_peak()
                write(Sink())
                added.append(tracemalloc.get_traced_memory()[1] - base - retained)
        finally:
            tracemalloc.stop()
        column_bytes = 4 * 3 * 101 * 101 * 8
        assert sum(table.column(name).nbytes for name in table.columns) == column_bytes
        assert retained <= column_bytes + MIB
        assert max(added) <= MIB


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

json_scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.sampled_from(["\u00e9\u4e2d\U0001f600", '"quoted" \\ /', "\x00\x1f\t\n\r\x7f\u2028"])
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, float("nan"),
                       float("inf"), float("-inf")])
    | st.floats()
)
json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(st.floats(), max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(json_keys, inner, max_size=5)),
    max_leaves=30,
)


def dumped(obj) -> str:
    """The text of `json.dump(obj, fh, indent=2)` and the newline that ends the document."""
    buf = io.StringIO()
    json.dump(obj, buf, indent=2)
    buf.write("\n")
    return buf.getvalue()


def written(obj) -> str:
    buf = io.StringIO()
    _write_json(obj, buf)
    return buf.getvalue()


def _small_plane(text: str) -> str:
    """A scenario text with its evaluation plane cut to 5 x 5 points."""
    kept = [line for line in text.splitlines() if not line.startswith("plane.points_")]
    return "\n".join(kept + ["plane.points_x = 5", "plane.points_y = 5"]) + "\n"


class TestJsonWriter:
    """`_write_json` writes the bytes of `json.dump(obj, fh, indent=2)` and a newline."""

    @settings(max_examples=300, deadline=None)
    @given(obj=json_values)
    @example(obj={})
    @example(obj=[[], {}, (), [[]], {"": {}}])
    @example(obj=[1.0, float("nan"), 2.0])
    @example(obj={1.5: [True, False, None], -0.0: 1, float("inf"): (5e-324,)})
    def test_matches_json_dump(self, obj):
        assert written(obj) == dumped(obj)

    @pytest.mark.parametrize("bad", [{(1, 2): 3}, [np.int64(1)], {"a": {1, 2}}])
    def test_rejects_what_json_rejects(self, bad):
        with pytest.raises(TypeError):
            dumped(bad)
        with pytest.raises(TypeError):
            written(bad)

    def test_float_subclasses_write_as_floats(self):
        obj = {"x": [np.float64(0.1), np.float64(np.nan), 2.0], "y": [np.float64(-0.0)]}
        assert written(obj) == dumped(obj)

    @pytest.mark.parametrize("name", ["default.scn", "mirrored-y.scn"])
    def test_bundled_exports_and_tables(self, name):
        scenario = parse_scenario(_small_plane((SCENARIO_DIR / name).read_text()))
        for design in DESIGN_NAMES:
            config = export_config(scenario, design)
            assert written(config) == dumped(config)
        tables = [run_gain_profile(scenario), run_rate_sweep(scenario),
                  run_td_count_sweep(scenario), run_delay_range_sweep(scenario),
                  run_beam_pattern(scenario)]
        for table in tables:
            buf = io.StringIO()
            table.to_json(buf)
            assert buf.getvalue() == old_writers(table)[1]


@pytest.mark.parametrize("data", [
    {"a": np.zeros(2), "b": np.zeros(3)},
    {"a": np.zeros((2, 2))},
], ids=["ragged", "2-d"])
def test_input_checks(data):
    with pytest.raises(ValueError, match="columns must be 1-D arrays of one length"):
        ResultTable("gain-profile", "0" * 64, data)
