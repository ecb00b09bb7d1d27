"""Command-line interface.

Subcommands: ``single`` (one benchmark-process trial), ``montecarlo``
(randomized-model study), ``estimate`` (user data from a one-column CSV).
Options mirror the experiment configuration; a JSON config file can set
what the command's own flags set, with explicit flags taking precedence.

Exit codes: 0 success, 1 usage error, 2 data error, 3 excessive trial
failures (more than 10% of Monte Carlo records failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import KmaxentError
from .estimators import Method
from .harness import ExperimentConfig, estimate_file, run_monte_carlo, run_single_trial

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
# config-file types a field accepts besides its default's: an int where a
# float is expected, and a path where the default is None
_ALSO_ACCEPTED = {float: (int,), type(None): (str,)}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with configuration values")
    parser.add_argument(
        "--methods",
        help="comma-separated subset of: me,me-di,me-tc,pem-di,pem-tc",
    )
    parser.add_argument("--out", dest="output_path", help="output directory")
    parser.add_argument("--n", type=int, help="model order for the kernel methods")
    parser.add_argument("--grid-size", type=int, help="frequency grid size")
    parser.add_argument("--low-order", type=int, help="preliminary AR order")


def _add_simulation(parser: argparse.ArgumentParser) -> None:
    """Flags of the commands that simulate their series: ``single`` and ``montecarlo``."""
    _add_common(parser)
    parser.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    parser.add_argument("-N", "--n-samples", type=int, dest="N", help="series length")
    parser.add_argument("--burn-in", type=int, help="simulation burn-in samples")
    parser.add_argument(
        "--timings",
        action="store_const",
        const=True,
        dest="include_timings",
        help="add a wall-time column to records.csv (not byte-reproducible)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="kmaxent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    single = sub.add_parser("single", help="one seeded trial on the benchmark process")
    _add_simulation(single)

    monte = sub.add_parser("montecarlo", help="randomized-model Monte Carlo study")
    _add_simulation(monte)
    monte.add_argument("--runs", type=int, help="number of Monte Carlo runs")
    monte.add_argument("--pole-modulus", type=float, help="pole modulus of the random models")
    monte.add_argument("--zero-modulus", type=float, help="zero modulus of the random models")
    monte.add_argument("--max-phase-gap", type=float, help="max zero-pole phase gap")
    monte.add_argument("--pairs", type=int, help="conjugate zero/pole pairs per model")

    est = sub.add_parser("estimate", help="estimate the spectrum of a data file")
    est.add_argument("input", help="one-column CSV of samples (optional header 'y')")
    _add_common(est)

    return parser


def _parse_methods(raw, parser: _Parser) -> tuple[Method, ...]:
    """Methods from the comma-separated flag value or a config file's string or list."""
    tokens = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        parser.error(f"methods must be a string or a list of strings, got {raw!r}")
    names = [token.strip() for token in tokens if token.strip()]
    if not names:
        parser.error("at least one method name is required")
    try:
        return tuple(Method(name) for name in names)
    except ValueError:
        valid = ", ".join(m.value for m in Method)
        parser.error(f"unknown method in {raw!r}; valid methods: {valid}")
        raise AssertionError("unreachable")


def _load_config(args: argparse.Namespace, parser: _Parser) -> ExperimentConfig:
    # the configuration fields this command has flags for
    keys = _DEFAULTS.keys() & vars(args).keys()
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot load config file: {exc}")
        if not isinstance(loaded, dict):
            parser.error("config file must hold a JSON object")
        unknown = set(loaded) - keys
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            expected = (type(_DEFAULTS[key]),) + _ALSO_ACCEPTED.get(type(_DEFAULTS[key]), ())
            if key != "methods" and type(value) not in expected:
                names = " or ".join(t.__name__ for t in expected)
                parser.error(f"config key {key!r} must be {names}, got {value!r}")
        values.update(loaded)
    if "methods" in values:
        values["methods"] = _parse_methods(values["methods"], parser)
    for key in keys - {"methods"}:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.methods is not None:
        values["methods"] = _parse_methods(args.methods, parser)
    if args.command == "estimate":
        # estimate_file checks n and low_order against the file's sample count
        values["N"] = sys.maxsize
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args, parser)
    except KmaxentError as exc:
        print(f"kmaxent: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "single":
            records = run_single_trial(cfg)
            for r in records:
                status = "ok" if r.error is None else f"failed: {r.error}"
                print(f"{r.method.value}: {status}")
            return 0
        if args.command == "montecarlo":
            records, summary = run_monte_carlo(cfg)
            print(json.dumps(summary["methods"], sort_keys=True, indent=2))
            failed = summary["failed_records"]
            if failed > 0.10 * summary["total_records"]:
                print(f"kmaxent: {failed} of {summary['total_records']} records failed",
                      file=sys.stderr)
                return 3
            return 0
        document = estimate_file(cfg, args.input)
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    except KmaxentError as exc:
        print(f"kmaxent: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
