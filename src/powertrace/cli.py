"""Command-line entry point.

    powertrace <suite> [--config PATH] [--out DIR]
               [suite flags: --k --eps --qubits --rank --shots --runs --c --seed]

Each subparser is built from the suite's registry entry and registers only
the shared flags whose config key that suite reads; ``powertrace <suite>
-h`` lists them and the key each one sets. ``main`` builds only the named
suite's subparser; help, no suite or an unknown one build all six. Any
other flag, a config-file key the suite does not read, a ``suite`` key
naming another suite, a value of the wrong kind, a non-finite number, an
integer key (count, k, rank, order, seed) that is fractional or below its
least value, an empty list, or a list flag of several values for a scalar
key exits 2.

Each suite writes records.json, table.csv, and summary.json under
out/<suite>/<config-hash>/. Its runner returns the records, ungated
statistics and gates (a measured value and the bound it must meet), and
the run exits 0 when every gate is ok, and 1 only when a gate fails, after
naming each failed gate with its value and bound on stderr. It exits 2 on a
configuration error or an --out that cannot be written, and 3 when the run
refuses or cannot finish its work (a construction beyond the qubit cap, a
failed construction or an estimate it cannot post-process), naming the
cause on stderr.
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
    "c": (float, "c", "bias constant for the discrimination suite"),
    "seed": (int, "seed", "master RNG seed"),
}


def _suite_flags(suite: str) -> dict[str, str]:
    """The shared flags ``suite`` reads, each mapped to the key it sets."""
    entry = suite_entry(suite)
    keys = {flag: entry.flag_keys.get(flag, key) for flag, (_, key, _) in _FLAGS.items()}
    return {flag: key for flag, key in keys.items() if key in entry.defaults}


def build_parser(suites: tuple = SUITES) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertrace",
        description="Trace-power estimation experiments with exact self-validation.",
    )
    sub = parser.add_subparsers(dest="suite", required=True, metavar="|".join(SUITES))
    for suite in suites:
        # no abbreviations: "--c" must not be read as "--config" by a suite without --c
        sp = sub.add_parser(suite, help=f"run the {suite} suite", allow_abbrev=False)
        sp.add_argument("--config", help="flat JSON config file")
        sp.add_argument("--out", default="out", help="output directory root (default: out)")
        for flag, key in _suite_flags(suite).items():
            kind, _, text = _FLAGS[flag]
            sp.add_argument(f"--{flag}", type=kind, help=f"{text} (sets {key})")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The config keys the given flags set. A one-value list flag sets a
    scalar key to that value; a list flag of several values for a scalar
    key raises ValidationError."""
    defaults = suite_entry(args.suite).defaults
    over = {}
    for flag, key in _suite_flags(args.suite).items():
        value = getattr(args, flag)
        if value is not None:
            if isinstance(value, list) and not isinstance(defaults[key], list):
                if len(value) > 1:
                    raise ValidationError(f"--{flag} sets {key!r}, which takes one value, got {value!r}")
                value = value[0]
            over[key] = value
    return over


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv  # a named suite is parsed by its own subparser alone
    args = build_parser(argv[:1] if argv[:1] and argv[0] in SUITES else SUITES).parse_args(argv)
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
        return 3
    except OSError as exc:  # the output step, after every record has run
        print(f"powertrace: cannot write output under {args.out}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
