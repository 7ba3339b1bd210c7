import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from irslab import experiments
from irslab.channel import element_distances
from irslab.cli import main
from irslab.experiments import (
    export_config,
    run_beam_pattern,
    run_delay_range_sweep,
    run_gain_profile,
    run_rate_sweep,
    run_td_count_sweep,
)
from irslab.geometry import PanelPlaneWarning
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
        assert len(table.rows) == 16

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
        assert len(table.rows) == 3 * 11 * 11
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
        assert len(table.rows) == 11 * 11
        grid = small_scenario.grid
        assert table.rows[0][0] == pytest.approx(grid.f_c / 1e9)

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
        assert [down.rows[i * block][0] for i in range(3)] == [
            grid.frequencies[-1] / 1e9, grid.f_c / 1e9, grid.frequencies[0] / 1e9
        ]
        for i in range(3):
            assert down.rows[i * block:(i + 1) * block] == up.rows[(2 - i) * block:(3 - i) * block]
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
        row0 = table.rows[0]
        assert row0[0] == 0.0
        assert row0[2] == pytest.approx(nb_edge, abs=1e-9)  # per-element exactly
        assert row0[1] == pytest.approx(nb_edge, abs=5e-3)  # dldd up to model error

    def test_large_cap_releases_clamp(self, small_scenario):
        # per-element delays here are ~6 ns, so 100 ns releases everything
        table = run_delay_range_sweep(
            parse_scenario(SMALL.replace("sweep.t_req_ps = 0,2,5", "sweep.t_req_ps = 0,100000"))
        )
        profile = run_gain_profile(small_scenario, designs=("dldd", "per-element"))
        dldd_edge = min(profile.column("gain_dldd")[0], profile.column("gain_dldd")[-1])
        assert table.rows[-1][1] == pytest.approx(dldd_edge, abs=1e-12)
        assert table.rows[-1][2] == pytest.approx(1.0, abs=1e-9)


class TestSweepDistances:
    @pytest.mark.parametrize("run", [run_td_count_sweep, run_delay_range_sweep])
    def test_computed_once_per_endpoint(self, small_scenario, monkeypatch, run):
        calls = []

        def counting(scene, endpoint):
            calls.append(endpoint)
            return element_distances(scene, endpoint)

        monkeypatch.setattr(experiments, "element_distances", counting)
        run(small_scenario)
        assert sorted(calls) == ["bs", "user"]


class TestRateSweep:
    def test_columns_and_dominance(self, small_scenario):
        table = run_rate_sweep(small_scenario)
        assert table.columns == (
            "p_bs_dbm",
            "rate_narrowband",
            "rate_dldd",
            "rate_per_element",
        )
        for row in table.rows:
            _, nb, dldd, pe = row
            assert pe >= dldd - 1e-12
            assert dldd >= nb - 1e-12

    def test_rates_grow_with_power(self, small_scenario):
        table = run_rate_sweep(small_scenario)
        nb = table.column("rate_narrowband")
        assert np.all(np.diff(nb) > 0)


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
        assert len(blob["rows"]) == len(table.rows)


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
        # default.scn puts the BS at x = 0, which warns each time its scene is built
        scn = Path(__file__).resolve().parent.parent / "scenarios" / "default.scn"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--scenario", str(scn), "--out", str(tmp_path / "x.csv")]) == 0
        assert [w.category for w in caught].count(PanelPlaneWarning) == 1

    @pytest.mark.parametrize("command", ["gain-profile", "export-config"])
    def test_unwritable_out_exits_nonzero(self, scenario_file, tmp_path, capsys, command):
        out = tmp_path / "missing" / "dir" / "x.csv"
        rc = main([command, "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
