"""Golden outputs on the bundled scenarios.

Each CLI experiment runs on ``scenarios/default.scn`` and
``scenarios/mirrored-y.scn``. The data sections (every line that does not
start with ``#``) of ``gain-profile``, ``rate-sweep`` and a 21x21-point
``beam-pattern`` are pinned by SHA-256 digest, so they must stay byte
identical. ``export-config`` is pinned the same way, minus its version line,
and so are the ``--format json`` outputs of ``gain-profile``, ``rate-sweep``
and the 21x21-point ``beam-pattern``, which also pins the ``# peak:``
comments.
The ``td-count-sweep`` and ``delay-range-sweep`` edge gains are pinned by
value to an absolute 1e-13: they are reductions whose last bits depend on the
summation layout.

A change that alters any of these outputs on purpose updates the values here
and records the measured drift in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from irslab.cli import main
from irslab.experiments import DESIGN_NAMES

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = ("default.scn", "mirrored-y.scn")
SWEEP_TOL = 1e-13

GOLDEN_DIGESTS = {
    "default.scn": {
        "gain-profile": "ecad1a9609adfbb97b4c42e10969a4ff2ada25fa539aece87982534d3aa74f64",
        "rate-sweep": "5c2b7a1e216596f6917c2996392774d6a98212eb87f46821c566de81b762d3e2",
        "export-config/narrowband": "a8524d65bd26d412269782f05b2956ab3bf5c0976724bf1b2e3e6a319c3828a1",
        "beam-pattern/narrowband": "e7e8b5522da507dc21b0b33adb9f897818ae9b1320543ea5c2ba1d01474b2792",
        "export-config/dldd": "e4b961a4f1babacf952fdffde9bc7b4357f9789715a39f9fa285b2dd7baa2759",
        "beam-pattern/dldd": "0c86f91e55d725614a6b1540c340b09b08f36632023af1fe6244975b97c0f778",
        "export-config/per-element": "02fe6f97794f5634bf2745b6f6bd45a33dfc18e45fc381f6ac8eb7ca20f66d89",
        "beam-pattern/per-element": "a86df87c2a04c4cccc8b4c7702559fc501d2b0a00b13df82f2e0f46baef0134c",
    },
    "mirrored-y.scn": {
        "gain-profile": "6184a0119350d639ba9abab372a5c8500eb5fbc14d5eccb21815b01035774992",
        "rate-sweep": "0791ddbf3b6ca061a33c4accd0124a233fac6ae87ad8fcc82254eeccba52aaf7",
        "export-config/narrowband": "f34f804356024b2fb68cdb881aca15ba70b69fdc7c99d8d925528f9deb2bf062",
        "beam-pattern/narrowband": "878cc3dab334e1c8cc0814f08ea93c64747ff47b58c32b613a52391950f96b58",
        "export-config/dldd": "b08c381a7af93a0587cf1a0c4792a93b74c3ced7a9c68282d02558b8a071acfe",
        "beam-pattern/dldd": "07f31364c02ac9e7aed580ed42ff0e81f146bd1ce9c7df51df2c140d7e76cca3",
        "export-config/per-element": "4fcc929199f6670e9be952a8d8e2bc277134ae6c1087eb4afc0e479059a616d6",
        "beam-pattern/per-element": "787002f81e282c743677b04525a87ad887ce61e740b7a0cbb004ec9c7fb2a11a",
    },
}

GOLDEN_JSON_DIGESTS = {
    "default.scn": {
        "gain-profile": "6b2c59542bb3960c5c0e49f14d3648e68f47e001f77a0ff779ef510d3b788ba5",
        "rate-sweep": "27c9274c46b63ff0becb8443ce5a73ee196eccc590a1ca6b19b20dc80e8b2fb6",
        "beam-pattern/narrowband": "1a001fa086f060debeedc300804edfe4ff14d1f19c3a1026098acfcb432ef7dd",
        "beam-pattern/dldd": "3095fe3887dd678bb26a1bb20f9fe7c5cd31c881b981ab5ec88ac7737f2fe817",
        "beam-pattern/per-element": "396eb5a375ce717bc8adc59f062c6b66a84dae54f637b5f1ee1bf43d7a419ad9",
    },
    "mirrored-y.scn": {
        "gain-profile": "39016c36e29dc464a30bca06fe05a62c218b1c57df48289488043ed5180f63bc",
        "rate-sweep": "78c2f55ef1d9bc1caacfed4d8802b059b246eb46ba298d063ae8edd3eb52565e",
        "beam-pattern/narrowband": "84fad53caee03cf48f8349ab881c172baee38162bc1cc5c4a3f26cbb829f13d0",
        "beam-pattern/dldd": "630b77c6825ccd2d29729b5fd5a02de6b2f88fba7e925924ca56a4e35706048d",
        "beam-pattern/per-element": "5c8ccebe05c764e0baebacd6d68dff17e574b839682968c4ee9e8621f7bd3f0a",
    },
}

GOLDEN_SWEEPS = {
    "default.scn": {
        "td-count-sweep": [
            [0.0, 0.03235304523108354],
            [3.0, 0.04681200795464116],
            [15.0, 0.055162692489601296],
            [24.0, 0.282513542729854],
            [99.0, 0.7759204193687966],
            [399.0, 0.9424608154945364],
            [624.0, 0.9637889515170703],
            [2499.0, 0.9926908439072873],
        ],
        "delay-range-sweep": [
            [0.0, 0.016911696159644937, 0.01691309779171118],
            [1.0, 0.04054106070058775, 0.01691309779171306],
            [2.0, 0.06175371818086842, 0.016913097791703757],
            [3.0, 0.06695478145198666, 0.016913097791706768],
            [4.0, 0.04858289410797574, 0.016913097791708485],
            [5.0, 0.013589722384187132, 0.01691309779171144],
            [6.0, 0.02938288784443244, 0.01691309779170057],
            [7.0, 0.07107528982588793, 0.016913097791712763],
            [8.0, 0.10048477846194252, 0.01691309779169779],
            [9.0, 0.11023615358366491, 0.016913097791710314],
            [10.0, 0.0963380972068638, 0.016913097791718994],
            [11.0, 0.05925817007936578, 0.016913097791700617],
            [12.0, 0.004279917585434886, 0.01691309779171485],
            [13.0, 0.05929048669762618, 0.016913097791717773],
            [14.0, 0.11889711353560314, 0.016913097791712656],
            [15.0, 0.161210005821399, 0.01691309779169996],
            [16.0, 0.17406137363281263, 0.01691309779170836],
            [17.0, 0.1486585441576345, 0.01691309779171133],
            [18.0, 0.08132806832092505, 0.016913097791714536],
            [19.0, 0.025751740331356278, 0.016913097791717208],
            [20.0, 0.16356444434060288, 0.01691309779170224],
        ],
    },
    "mirrored-y.scn": {
        "td-count-sweep": [
            [0.0, 0.2973975884422684],
            [3.0, 0.7643384239003576],
            [15.0, 0.9373031367709825],
            [24.0, 0.9596154733832823],
            [99.0, 0.989882398308914],
            [399.0, 0.9975413517210465],
            [624.0, 0.9984629026972323],
            [2499.0, 0.9996924626451686],
        ],
        "delay-range-sweep": [
            [0.0, 0.27547519994048214, 0.2754827468645883],
            [1.0, 0.5000496708714796, 0.27548274686460084],
            [2.0, 0.7012651814782057, 0.27548274686460134],
            [3.0, 0.8553593984390419, 0.2754827468646209],
            [4.0, 0.9556854339409083, 0.27548274686458923],
            [5.0, 0.9898581419547474, 0.27548274686460206],
            [6.0, 0.989882398308914, 0.2754827468646115],
            [7.0, 0.989882398308914, 0.2754827468645918],
            [8.0, 0.989882398308914, 0.27548274686460783],
            [9.0, 0.989882398308914, 0.27548274686458524],
            [10.0, 0.989882398308914, 0.2754827468646051],
            [11.0, 0.989882398308914, 0.2754827468646034],
            [12.0, 0.989882398308914, 0.2754827468646232],
            [13.0, 0.989882398308914, 0.2754827468645952],
            [14.0, 0.989882398308914, 0.2754827468646117],
            [15.0, 0.989882398308914, 0.2754827468646065],
            [16.0, 0.989882398308914, 0.27548274686461416],
            [17.0, 0.989882398308914, 0.2754827468646161],
            [18.0, 0.989882398308914, 0.2754827468645826],
            [19.0, 0.989882398308914, 0.2754827468646119],
            [20.0, 0.989882398308914, 0.2754827468646098],
        ],
    },
}


def _small_plane_scenario(name: str, tmp_path: Path) -> Path:
    """The bundled scenario with its evaluation plane cut to 21 x 21 points."""
    lines = [
        line
        for line in (SCENARIO_DIR / name).read_text().splitlines()
        if not line.startswith("plane.points_")
    ]
    path = tmp_path / f"small-plane-{name}"
    path.write_text("\n".join(lines + ["plane.points_x = 21", "plane.points_y = 21"]) + "\n")
    return path


def _run(tmp_path: Path, argv: list) -> str:
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _data_digest(text: str, skip: str = "#") -> str:
    kept = [line for line in text.splitlines() if not line.lstrip().startswith(skip)]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def _outputs(name: str, tmp_path: Path) -> dict:
    """Digest per pinned output of one bundled scenario."""
    scn = str(SCENARIO_DIR / name)
    small = str(_small_plane_scenario(name, tmp_path))
    out = {
        "gain-profile": _data_digest(_run(tmp_path, ["gain-profile", "--scenario", scn])),
        "rate-sweep": _data_digest(_run(tmp_path, ["rate-sweep", "--scenario", scn])),
    }
    for design in DESIGN_NAMES:
        text = _run(tmp_path, ["export-config", "--scenario", scn, "--design", design])
        out[f"export-config/{design}"] = _data_digest(text, skip='"version"')
        text = _run(tmp_path, ["beam-pattern", "--scenario", small, "--design", design])
        out[f"beam-pattern/{design}"] = _data_digest(text)
    return out


def _json_outputs(name: str, tmp_path: Path) -> dict:
    """Digest per pinned ``--format json`` output of one bundled scenario, minus its version line."""
    scn = str(SCENARIO_DIR / name)
    small = str(_small_plane_scenario(name, tmp_path))
    runs = {command: [command, "--scenario", scn] for command in ("gain-profile", "rate-sweep")}
    for design in DESIGN_NAMES:
        runs[f"beam-pattern/{design}"] = ["beam-pattern", "--scenario", small, "--design", design]
    return {
        key: _data_digest(_run(tmp_path, [*argv, "--format", "json"]), skip='"version"')
        for key, argv in runs.items()
    }


def _sweep_rows(tmp_path: Path, command: str, scn: str) -> list:
    lines = _run(tmp_path, [command, "--scenario", scn]).splitlines()
    return [
        [float(cell) for cell in line.split(",")]
        for line in lines[4:]
        if not line.startswith("#")
    ]


@pytest.mark.parametrize("name", SCENARIOS)
def test_data_sections_are_byte_identical(name, tmp_path):
    assert _outputs(name, tmp_path) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_json_outputs_are_byte_identical(name, tmp_path):
    assert _json_outputs(name, tmp_path) == GOLDEN_JSON_DIGESTS[name]


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("command", ("td-count-sweep", "delay-range-sweep"))
def test_sweeps_match_pinned_values(name, command, tmp_path):
    rows = _sweep_rows(tmp_path, command, str(SCENARIO_DIR / name))
    expected = GOLDEN_SWEEPS[name][command]
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert row == pytest.approx(want, rel=0, abs=SWEEP_TOL)
