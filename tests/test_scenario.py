import math
import re
import warnings
from pathlib import Path

import pytest

from irslab.cli import main
from irslab.geometry import SPEED_OF_LIGHT, PanelPlaneWarning
from irslab.scenario import (
    Scenario,
    ScenarioError,
    default_scenario,
    load_scenario,
    parse_scenario,
    scenario_keys,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


class TestDefaults:
    def test_empty_text_gives_default_scenario(self):
        sc = parse_scenario("")
        assert sc.values["irs.n_y"] == 100
        assert sc.values["irs.n_z"] == 100
        assert sc.values["partition.k_y"] == 10
        assert sc.values["grid.f_c_ghz"] == 300.0
        assert sc.values["grid.bandwidth_ghz"] == 30.0
        assert sc.values["grid.subcarriers"] == 128
        v = sc.values
        assert v["bs.x_m"] == 0.0 and v["bs.y_m"] == 1.5 and v["bs.z_m"] == -1.5
        assert v["user.x_m"] == 2.0 and v["user.y_m"] == -4.0 and v["user.z_m"] == -2.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.scn"
        p.write_text("")
        sc = load_scenario(p)
        assert sc.values == default_scenario().values

    def test_missing_spacing_defaults_to_half_wavelength(self):
        sc = parse_scenario("")
        expected = SPEED_OF_LIGHT / 300e9 / 2
        assert sc.scene.layout.d == pytest.approx(expected, rel=1e-15)
        assert sc.scene.layout.d == pytest.approx(0.49965e-3, abs=1e-8)

    def test_half_wavelength_follows_center_frequency(self):
        sc = parse_scenario("grid.f_c_ghz = 150\n")
        assert sc.scene.layout.d == pytest.approx(SPEED_OF_LIGHT / 150e9 / 2, rel=1e-15)

    def test_explicit_spacing_honored(self):
        sc = parse_scenario("irs.d_m = 0.0005\n")
        assert sc.scene.layout.d == 0.0005

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ngrid.subcarriers = 64\nrate.noise_dbm_hz = -170  # trailing comment\n"
        sc = parse_scenario(text)
        assert sc.values["grid.subcarriers"] == 64
        assert sc.values["rate.noise_dbm_hz"] == -170.0


class TestValidation:
    def test_partition_must_divide(self):
        with pytest.raises(ScenarioError, match="divisible"):
            parse_scenario("partition.k_y = 7\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match=r"<string>:2: unknown key 'irs.nx'"):
            parse_scenario("irs.n_y = 100\nirs.nx = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("irs.n_y = 10\nirs.n_y = 20\n")

    def test_malformed_line(self):
        with pytest.raises(ScenarioError, match="expected 'key = value'"):
            parse_scenario("this is not a key value pair\n")

    def test_bad_number_reports_key(self):
        with pytest.raises(ScenarioError, match="grid.f_c_ghz"):
            parse_scenario("grid.f_c_ghz = threehundred\n")

    def test_too_few_subcarriers(self):
        with pytest.raises(ScenarioError, match="subcarriers"):
            parse_scenario("grid.subcarriers = 1\n")

    def test_partition_sizes_must_divide(self):
        with pytest.raises(ScenarioError, match="partition_sizes"):
            parse_scenario("sweep.partition_sizes = 1,3\n")

    def test_empty_partition_sizes_rejected(self):
        with pytest.raises(ScenarioError, match="partition_sizes must not be empty"):
            parse_scenario("sweep.partition_sizes =\n")

    def test_band_reaching_zero_hz_rejected(self):
        with pytest.raises(ScenarioError, match="lowest subcarrier"):
            parse_scenario("grid.f_c_ghz = 10\ngrid.bandwidth_ghz = 30\n")

    @pytest.mark.parametrize("ghz", ["0", "-0.0", "-300"])
    def test_non_positive_center_frequency_named(self, ghz):
        # checked before the half-wavelength spacing divides by it
        message = f"grid.f_c_ghz must be above 0 GHz, got {float(ghz)!r}"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(f"grid.f_c_ghz = {ghz}\n")

    @pytest.mark.parametrize("ghz", ["0", "-0.0", "-300"])
    def test_non_positive_center_frequency_is_one_cli_error(self, tmp_path, capsys, ghz):
        scn = tmp_path / "bad.scn"
        scn.write_text(f"grid.f_c_ghz = {ghz}\n")
        assert main(["gain-profile", "--scenario", str(scn), "--out", str(tmp_path / "g.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: grid.f_c_ghz must be above 0 GHz, got {float(ghz)!r}"]

    def test_negative_t_req_rejected(self):
        with pytest.raises(ScenarioError, match="t_req"):
            parse_scenario("sweep.t_req_ps = 0,-1\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.scn")

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        bad = tmp_path / "latin1.scn"
        bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ScenarioError, match=f"^cannot read scenario file {re.escape(str(bad))}: "
                                                "'utf-8' codec can't decode byte 0xe9"):
            load_scenario(bad)

    def test_non_square_subsurface_rejected(self):
        with pytest.raises(ScenarioError, match="square"):
            parse_scenario("irs.n_z = 50\n")

    @pytest.mark.parametrize(
        "line", ["grid.bandwidth_ghz = nan", "bs.x_m = inf", "rate.p_bs_dbm = 30,-inf"]
    )
    def test_non_finite_number_rejected(self, line):
        with pytest.raises(ScenarioError, match="finite"):
            parse_scenario(line + "\n")

    @pytest.mark.parametrize("line", ["rate.p_bs_dbm = 30,-4000", "rate.noise_dbm_hz = -4000"])
    def test_dbm_rounding_to_zero_watts_rejected(self, line):
        # 10**((dbm - 30)/10) rounds to 0.0 below ~-3206 dBm
        with pytest.raises(ScenarioError, match=f"{line.split()[0]}: -4000 dBm is too small"):
            parse_scenario(line + "\n")

    # finite GHz values whose Hz, or whose half-wavelength spacing, overflow a float; each
    # used to blame a derived quantity ("element spacing d", "bandwidth must be positive")
    @pytest.mark.parametrize("line, message", [
        ("grid.f_c_ghz = 1e300", "grid.f_c_ghz: 1e+300 GHz is too large to express in Hz"),
        ("grid.f_c_ghz = 1e-310", "grid.f_c_ghz: 1e-310 GHz is too small to express its "
                                  "half-wavelength spacing in meters"),
        ("grid.bandwidth_ghz = 1e300",
         "grid.bandwidth_ghz: 1e+300 GHz is too large to express in Hz"),
    ])
    def test_overflowing_ghz_values_are_named_by_key(self, line, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(line + "\n")


class TestPanelPlaneWarning:
    @pytest.mark.parametrize("text, keys", [
        ("bs.x_m = 0", ["bs.x_m"]),
        ("bs.x_m = 1\nuser.x_m = 0", ["user.x_m"]),
        ("user.x_m = 0", ["bs.x_m", "user.x_m"]),
    ])
    def test_names_the_source_and_the_key(self, text, keys):
        with pytest.warns(PanelPlaneWarning) as caught:
            parse_scenario(text, source="grazing.scn")
        assert [str(w.message).split(": ")[:2] for w in caught] == [["grazing.scn", k] for k in keys]
        assert [w.message.endpoint for w in caught] == [k.split(".")[0] for k in keys]

    def test_warns_once_per_file_under_the_default_filters(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.resetwarnings()  # Python's default: each warning once per location
            for _ in range(3):
                load_scenario(SCENARIOS / "default.scn")
        assert [w.category for w in caught] == [PanelPlaneWarning]

    def test_points_at_the_caller(self):
        with pytest.warns(PanelPlaneWarning) as caught:
            parse_scenario("", source="<defaults>")
        assert [w.filename for w in caught] == [__file__]


class TestResolvedObjects:
    def test_scene_and_grid(self):
        sc = default_scenario()
        scene = sc.scene
        assert scene.layout.n_elements == 10000
        assert scene.partition.s == 10
        grid = sc.grid
        assert grid.f_c == 300e9
        assert grid.m_count == 128

    def test_plane_sits_at_user_height(self):
        sc = parse_scenario("user.z_m = -1.25\n")
        assert sc.plane.z == -1.25

    def test_unit_conversions(self):
        sc = parse_scenario(
            "grid.f_c_ghz = 100\nsweep.t_req_ps = 5,10\nrate.noise_dbm_hz = -170\n"
        )
        assert sc.grid.f_c == 100e9
        assert sc.t_req_seconds == (5e-12, 10e-12)
        assert sc.noise_density == pytest.approx(10 ** ((-170 - 30) / 10))

    def test_power_list(self):
        sc = parse_scenario("rate.p_bs_dbm = 10, 20, 30\n")
        assert sc.p_bs_dbm == (10.0, 20.0, 30.0)


class TestDigest:
    def test_stable_for_identical_input(self):
        a = parse_scenario("user.y_m = -3.5\ngrid.subcarriers = 32\n")
        b = parse_scenario("user.y_m = -3.5\ngrid.subcarriers = 32\n")
        assert a.digest == b.digest

    def test_changes_on_mutation(self):
        a = default_scenario()
        b = parse_scenario("user.y_m = -3.9\n")
        assert a.digest != b.digest

    def test_explicit_default_matches_implicit(self):
        assert parse_scenario("grid.f_c_ghz = 300\n").digest == default_scenario().digest

    @pytest.mark.parametrize(
        "path, digest",
        [
            (None, "ee1bae40691eb84a8ba46c9b76bf5a296453d0d1c204c7511eb7b848d8cb3020"),
            (SCENARIOS / "default.scn",
             "ee1bae40691eb84a8ba46c9b76bf5a296453d0d1c204c7511eb7b848d8cb3020"),
            (SCENARIOS / "mirrored-y.scn",
             "a8676edf466903434c12b410d359bba15552ca95e1fcebee5b14e8a1afa7ffdf"),
        ],
    )
    def test_bundled_digests_pinned(self, path, digest):
        # the `# scenario-hash:` header of every output; golden digests skip it
        assert load_scenario(path).digest == digest


def test_all_documented_keys_parse_round_trip():
    # every key accepts its own default when rendered back as text
    sc = default_scenario()
    for key in scenario_keys():
        value = sc.values[key]
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = str(value)
        again = parse_scenario(f"{key} = {rendered}\n")
        assert again.values[key] == value


def test_scenario_is_mapping_like():
    sc = default_scenario()
    assert isinstance(sc, Scenario)
    assert sc.values["rate.noise_dbm_hz"] == -174.0
    assert math.isclose(sc.noise_density, 3.981071705534969e-21, rel_tol=1e-12)


def test_formats_doc_key_table_names_every_key():
    text = (ROOT / "docs" / "formats.md").read_text()
    table = text.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    documented = [
        name
        for row in table.splitlines()
        for name in re.findall(r"`([a-z_]+\.[a-z_]+)`", row.split("|")[1])
    ]
    assert sorted(documented) == sorted(scenario_keys())


@pytest.mark.parametrize("text, fragment", [
    ("irs.n_y = 1.5\n", "<string>:1: irs.n_y: expected an integer, got '1.5'"),
    ("sweep.t_req_ps =\n", "sweep.t_req_ps must not be empty"),
    ("rate.p_bs_dbm = ,\n", "rate.p_bs_dbm must not be empty"),
], ids=["bad-integer", "empty-t-req", "empty-p-bs"])
def test_input_checks(text, fragment):
    with pytest.raises(ScenarioError, match=re.escape(fragment)):
        parse_scenario(text)
