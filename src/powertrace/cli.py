"""Command-line entry point.

    powertrace <suite> [--config PATH] [--out DIR] [--seed INT]
               [suite flags: --k --eps --qubits --rank --shots --runs --q --c]

Each subparser is built from the suite's registry entry and registers only
the shared flags whose config key that suite reads; ``powertrace <suite>
-h`` lists them and the key each one sets. Any other flag, a config-file
key the suite does not read, a ``suite`` key naming another suite, a
value of the wrong kind, a seed that is not a non-negative integer, an
integer key (count, k, rank, order) that is fractional or below its least
value, or an empty list exits 2.

Each suite writes records.json, table.csv, and summary.json under
out/<suite>/<config-hash>/ and exits 0 when its aggregate pass condition
holds, 1 when it does not, and 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import PowertraceError, ValidationError
from .suites import SUITES, load_config_file, resolve_config, run_suite_config, suite_entry


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


# shared flag -> (parser, usual config key, help); a suite's registry entry
# may send a flag to another key, and a suite is given only the flags
# whose key it reads
_FLAGS = {
    "k": (_int_list, "k_values", "comma-separated k values"),
    "eps": (float, "eps", "target additive accuracy"),
    "qubits": (int, "qubits", "system qubit count"),
    "rank": (int, "rank", "state rank"),
    "shots": (_int_list, "shots_list", "comma-separated shot counts"),
    "runs": (int, "runs", "number of records to run"),
    "q": (float, "q_values", "weight parameter for the reduction suite"),
    "c": (float, "c", "bias constant for the discrimination suite"),
}


def _suite_flags(suite: str) -> dict[str, str]:
    """The shared flags ``suite`` reads, each mapped to the key it sets."""
    entry = suite_entry(suite)
    keys = {flag: entry.flag_keys.get(flag, key) for flag, (_, key, _) in _FLAGS.items()}
    return {flag: key for flag, key in keys.items() if key in entry.defaults}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertrace",
        description="Trace-power estimation experiments with exact self-validation.",
    )
    sub = parser.add_subparsers(dest="suite", required=True, metavar="|".join(SUITES))
    for suite in SUITES:
        # no abbreviations: "--c" must not be read as "--config" by a suite without --c
        sp = sub.add_parser(suite, help=f"run the {suite} suite", allow_abbrev=False)
        sp.add_argument("--config", help="flat JSON config file")
        sp.add_argument("--out", default="out", help="output directory root (default: out)")
        sp.add_argument("--seed", type=int, help="master RNG seed override")
        for flag, key in _suite_flags(suite).items():
            kind, _, text = _FLAGS[flag]
            sp.add_argument(f"--{flag}", type=kind, help=f"{text} (sets {key})")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The config keys the given flags set. A value takes the shape of the
    key's default: a list flag sets a scalar key to its first entry, and a
    scalar flag sets a list key to a one-entry list."""
    defaults = suite_entry(args.suite).defaults
    over = {"seed": args.seed}
    for flag, key in _suite_flags(args.suite).items():
        value = getattr(args, flag)
        if value is not None:
            if isinstance(defaults[key], list) != isinstance(value, list):
                value = [value] if isinstance(defaults[key], list) else value[0]
            over[key] = value
    return over


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    suite = args.suite
    try:
        file_cfg = load_config_file(args.config) if args.config else None
        cfg = resolve_config(suite, file_cfg, _overrides_from_args(args))
        code = run_suite_config(suite, cfg, out_root=args.out)
    except ValidationError as exc:
        print(f"powertrace: {exc}", file=sys.stderr)
        return 2
    except PowertraceError as exc:
        print(f"powertrace: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
