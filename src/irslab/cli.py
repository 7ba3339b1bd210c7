"""Command-line front end for the experiment runners.

Subcommands mirror the runners: gain-profile, beam-pattern, td-count-sweep,
delay-range-sweep, rate-sweep, plus export-config for the beamformer JSON.
Exit status is 0 on success, 1 on scenario/validation errors, an unwritable
output path or a failed allocation, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from .experiments import (
    DESIGN_NAMES,
    FREQUENCY_TOKENS,
    ResultTable,
    _write_json,
    export_config,
    run_beam_pattern,
    run_delay_range_sweep,
    run_gain_profile,
    run_rate_sweep,
    run_td_count_sweep,
)
from .scenario import load_scenario


def _tokens_arg(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _designs_arg(text: str) -> list[str]:
    names = _tokens_arg(text)
    for name in names:
        if name not in DESIGN_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown design {name!r}; choose from {', '.join(DESIGN_NAMES)}"
            )
    if not names or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError("name at least one design, each at most once")
    return names


def _frequencies_arg(text: str) -> list[str]:
    tokens = _tokens_arg(text)
    if not tokens:
        raise argparse.ArgumentTypeError("name at least one frequency")
    return tokens


# subcommand -> (help, runner(scenario, args) returning a ResultTable or a JSON-ready dict)
COMMANDS = {
    "gain-profile": ("array gain per subcarrier per design",
                     lambda sc, args: run_gain_profile(sc, designs=args.designs)),
    "beam-pattern": ("gain over the evaluation plane",
                     lambda sc, args: run_beam_pattern(sc, design=args.design,
                                                       frequencies=args.frequencies)),
    "td-count-sweep": ("edge gain vs number of delay modules",
                       lambda sc, args: run_td_count_sweep(sc)),
    "delay-range-sweep": ("edge gain vs module delay cap",
                          lambda sc, args: run_delay_range_sweep(sc)),
    "rate-sweep": ("mean rate vs BS transmit power",
                   lambda sc, args: run_rate_sweep(sc, designs=args.designs)),
    "export-config": ("beamformer configuration as JSON",
                      lambda sc, args: export_config(sc, args.design)),
}


@functools.cache  # one parser per process: building it costs ~1.2 ms
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser. Its defaults are tuples, so no run can change another's."""
    parser = argparse.ArgumentParser(
        prog="irslab",
        description="Wideband near-field IRS beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, help=text) for name, (text, _) in COMMANDS.items()}
    for name, p in subs.items():
        p.add_argument("--scenario", metavar="PATH", default=None,
                       help="scenario file (omit for the built-in defaults)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output path (default: <experiment>.<format>, or "
                       "beamformer-config.json for export-config)")
        if name == "export-config":
            p.set_defaults(format="json")
        else:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    for name in ("gain-profile", "rate-sweep"):
        subs[name].add_argument("--designs", type=_designs_arg, default=DESIGN_NAMES)
    subs["beam-pattern"].add_argument("--design", choices=DESIGN_NAMES, default="narrowband")
    subs["beam-pattern"].add_argument("--frequencies", type=_frequencies_arg,
                                      default=FREQUENCY_TOKENS,
                                      help="comma list of f1/fc/fM tokens or GHz values")
    subs["export-config"].add_argument("--design", choices=DESIGN_NAMES, default="dldd")
    return parser


def _write(result, out: Optional[str], fmt: str) -> Path:
    """Write a result table as CSV or JSON, or an exported configuration as JSON."""
    if isinstance(result, ResultTable):
        path = Path(out or f"{result.experiment}.{fmt}")
        write = result.to_csv if fmt == "csv" else result.to_json
    else:
        path = Path(out or "beamformer-config.json")
        write = functools.partial(_write_json, result)
    with path.open("w", newline="") as fh:
        write(fh)
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _, runner = COMMANDS[args.command]
    try:
        path = _write(runner(load_scenario(args.scenario), args), args.out, args.format)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
