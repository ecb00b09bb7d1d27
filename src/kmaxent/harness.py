"""Experiment harness: seeded single-trial, Monte Carlo, and file estimation.

Each trial derives its PRNG streams as SeedSequence([master_seed, run_index,
stream]) with stream 0 for the random model and stream 1 for the data, so any
subset of runs is reproducible independently of execution order. All emitted
files are deterministic for a fixed configuration and master seed: floats are
written with full round-trip precision and JSON keys are sorted. Per-record
wall times are collected but only written when explicitly requested, to keep
the default output byte-stable.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
import urllib.parse
import warnings
from array import array
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .covariance import TimeSeries
from .errors import DataParseError, InvalidDataError, InvalidOrderError, KmaxentError
from .estimators import EstimateResult, Method, me_bic
from .hyperopt import run_pem_pipeline, run_pipeline
from .kernels import KernelFamily
from .simulate import (
    ArmaModel,
    SpectrumModel,
    benchmark_arma,
    eval_spectrum,
    frequency_grid,
    generate,
    random_arma,
    spectrum_error,
)

METHOD_ORDER = (Method.ME, Method.ME_DI, Method.ME_TC, Method.PEM_DI, Method.PEM_TC)

RECORD_COLUMNS = (
    "run",
    "method",
    "reconstruction_error",
    "df",
    "lambda",
    "beta",
    "min_phase",
    "max_root_modulus",
    "chosen_n",
    "error",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by the harness entry points."""

    methods: tuple[Method, ...] = METHOD_ORDER
    N: int = 500
    n: int = 50
    runs: int = 100
    master_seed: int = 0
    pole_modulus: float = 0.98
    zero_modulus: float = 0.85
    pairs: int = 3
    max_phase_gap: float = 0.06
    grid_size: int = 2048
    burn_in: int = 2000
    low_order: int = 4
    include_timings: bool = False
    output_path: str | None = None

    def __post_init__(self):
        methods = tuple(Method(m) for m in self.methods)
        if not methods:
            raise InvalidDataError("at least one method must be requested")
        ordered = tuple(m for m in METHOD_ORDER if m in methods)
        object.__setattr__(self, "methods", ordered)
        if not 1 <= self.n < self.N:
            raise InvalidOrderError(f"n must be >= 1 and < N, got n={self.n}, N={self.N}")
        if not 0 <= self.low_order < self.N:
            raise InvalidOrderError(
                f"low_order must be >= 0 and < N, got low_order={self.low_order}, N={self.N}"
            )
        if self.runs < 1:
            raise InvalidDataError(f"runs must be >= 1, got {self.runs}")
        if self.master_seed < 0:
            raise InvalidDataError(f"master_seed must be >= 0, got {self.master_seed}")

    def to_dict(self) -> dict:
        """Every field that shapes the results; timings and the output path do not."""
        values = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("include_timings", "output_path")
        }
        values["methods"] = [m.value for m in self.methods]
        return values


@dataclass(frozen=True)
class TrialRecord:
    """One (run, method) outcome; metric fields are None when the fit failed.

    The fields follow ``RECORD_COLUMNS``, with the wall time last, so a
    record is written as its field tuple.
    """

    run_index: int
    method: Method
    reconstruction_error: float | None = None
    df: float | None = None
    lam: float | None = None
    beta: float | None = None
    min_phase_verified: bool | None = None
    max_root_modulus: float | None = None
    chosen_n: int | None = None
    error: str | None = None
    wall_time_ms: float | None = None


def trial_seed(master_seed: int, run_index: int, stream: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed derivation (documented mixing function)."""
    return np.random.SeedSequence([master_seed, run_index, stream])


def fit_method(method: Method, y: TimeSeries, cfg: ExperimentConfig) -> EstimateResult:
    """Run one estimator on one series.

    ``me`` is Yule-Walker at the BIC order, with df = chosen order + 1. Any
    other tag reads ``<route>-<family>``: route ``me`` runs
    :func:`run_pipeline` and ``pem`` :func:`run_pem_pipeline`, with kernel
    family ``di`` or ``tc``. Every result carries the root check that
    :class:`EstimateResult` runs when it is built.
    """
    if method is Method.ME:
        b_hat, chosen = me_bic(y, cfg.n)
        return EstimateResult(b_hat, None, float(chosen + 1), Method.ME, chosen_n=chosen)
    route, family = method.value.split("-")
    pipeline = run_pipeline if route == "me" else run_pem_pipeline
    return pipeline(y, cfg.n, KernelFamily(family), cfg.low_order)


def _outcome(result: EstimateResult) -> dict:
    """The fit's fields that records and ``result.json`` share, in
    ``RECORD_COLUMNS`` order; lambda and beta are None for ``me``."""
    eta = result.eta_hat
    return {
        "df": result.df,
        "lambda": None if eta is None else eta.lam,
        "beta": None if eta is None else eta.beta,
        "min_phase": result.min_phase_verified,
        "max_root_modulus": result.max_root_modulus,
        "chosen_n": result.chosen_n,
    }


def _fits(y: TimeSeries, cfg: ExperimentConfig):
    """Fit each of ``cfg.methods`` to ``y``, in canonical order.

    Yields ``(method, result, spectrum, elapsed_ms, error)``: the fit, its
    spectrum on the grid and the wall time of the fit alone, with error None;
    or, when the fit raised a KmaxentError, None for those and its message.
    """
    for method in cfg.methods:
        start = time.perf_counter()
        try:
            result = fit_method(method, y, cfg)
        except KmaxentError as exc:
            yield method, None, None, None, str(exc)
            continue
        elapsed_ms = (time.perf_counter() - start) * 1e3
        spectrum = eval_spectrum(SpectrumModel(result.b_hat), cfg.grid_size)
        yield method, result, spectrum, elapsed_ms, None


def _run_trial(
    run_index: int, model: ArmaModel, cfg: ExperimentConfig
) -> tuple[list[TrialRecord], dict[str, np.ndarray]]:
    """Simulate the trial's series from ``model``, fit every method and
    score it against the true spectrum.

    Returns the records and the spectra on the grid: ``truth``, evaluated
    once for the trial, then one column per successful method.
    """
    y = generate(model, cfg.N, trial_seed(cfg.master_seed, run_index, 1), cfg.burn_in)
    truth = eval_spectrum(SpectrumModel(model), cfg.grid_size)
    records: list[TrialRecord] = []
    spectra = {"truth": truth}
    for method, result, spectrum, elapsed_ms, error in _fits(y, cfg):
        if error is not None:
            records.append(TrialRecord(run_index, method, error=error))
            continue
        spectra[method.value] = spectrum
        recon = spectrum_error(spectrum, truth)
        outcome = _outcome(result).values()
        records.append(TrialRecord(run_index, method, recon, *outcome, wall_time_ms=elapsed_ms))
    return records, spectra


def run_single_trial(cfg: ExperimentConfig) -> list[TrialRecord]:
    """One seeded dataset from the fixed benchmark process, all methods.

    Writes ``spectra.csv`` (theta, true spectrum, one column per successful
    method) and ``records.csv`` under ``cfg.output_path`` when it is set, and
    returns the records.
    """
    records, spectra = _run_trial(0, benchmark_arma(), cfg)
    if cfg.output_path is not None:
        out = Path(cfg.output_path)
        out.mkdir(parents=True, exist_ok=True)
        _write_spectra(out / "spectra.csv", cfg.grid_size, spectra)
        write_records(out / "records.csv", records, cfg.include_timings)
    return records


def run_monte_carlo(cfg: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Randomized-model study: ``cfg.runs`` independent seeded trials.

    Per-trial failures are recorded with an error tag and the summary is
    computed over the successes. Writes ``records.csv`` and ``summary.json``
    under ``cfg.output_path`` when set.
    """
    records: list[TrialRecord] = []
    for run_index in range(1, cfg.runs + 1):
        model = random_arma(
            trial_seed(cfg.master_seed, run_index, 0),
            pole_modulus=cfg.pole_modulus,
            zero_modulus=cfg.zero_modulus,
            pairs=cfg.pairs,
            max_phase_gap=cfg.max_phase_gap,
        )
        trial_records, _ = _run_trial(run_index, model, cfg)
        records.extend(trial_records)
    summary = summarize(records, cfg)
    if cfg.output_path is not None:
        out = Path(cfg.output_path)
        out.mkdir(parents=True, exist_ok=True)
        write_records(out / "records.csv", records, cfg.include_timings)
        _write_json(out / "summary.json", summary)
    return records, summary


def summarize(records: list[TrialRecord], cfg: ExperimentConfig) -> dict:
    """Boxplot-ready per-method statistics of the reconstruction error.

    Quartiles use numpy's default (linear-interpolation) percentiles;
    ``outliers`` counts points outside [q1 - 1.5 iqr, q3 + 1.5 iqr].
    """
    methods: dict[str, dict] = {}
    for method in cfg.methods:
        errors = np.array(
            [
                r.reconstruction_error
                for r in records
                if r.method is method and r.error is None
            ]
        )
        failures = sum(1 for r in records if r.method is method and r.error is not None)
        stats: dict = {"count": int(errors.size), "failures": failures}
        if errors.size:
            q1, q2, q3 = (float(np.percentile(errors, q)) for q in (25, 50, 75))
            iqr = q3 - q1
            stats.update(
                {
                    "min": float(np.min(errors)),
                    "q1": q1,
                    "median": q2,
                    "q3": q3,
                    "max": float(np.max(errors)),
                    "outliers": int(
                        np.sum((errors < q1 - 1.5 * iqr) | (errors > q3 + 1.5 * iqr))
                    ),
                }
            )
        methods[method.value] = stats
    failed = sum(1 for r in records if r.error is not None)
    return {
        "config": cfg.to_dict(),
        "methods": methods,
        "total_records": len(records),
        "failed_records": failed,
    }


def estimate_file(cfg: ExperimentConfig, input_path: str | os.PathLike) -> dict:
    """Run the requested methods on a one-column CSV of samples.

    The file is read as UTF-8 and holds one value per CSV record; one
    byte-order mark at its start is ignored. Whitespace around a value and
    empty cells are ignored, so ``1.0,`` is one value, and blank rows are
    skipped. Row 1 may be the header ``y`` (any case).
    Any other non-numeric row, a record with more than one non-empty cell,
    or a file that is not UTF-8 is a ``DataParseError``; rows are numbered
    per CSV record, so a quoted field spanning lines is one row. The bulk of
    a regular file is read by numpy's C text reader; a row it does not take
    sends the whole file through this row rule, so values, messages and row
    numbers do not depend on the route. A pipe is read once, by the row
    rule. Writes ``result.json`` and ``spectrum.csv`` under
    ``cfg.output_path`` when set; returns the result document.
    """
    y = TimeSeries(_read_sample_column(input_path))
    adjusted = replace(cfg, N=y.n_samples)
    methods: dict[str, dict] = {}
    spectra: dict[str, np.ndarray] = {}
    for method, result, spectrum, _, error in _fits(y, adjusted):
        if error is not None:
            methods[method.value] = {"error": error}
            continue
        coefficients = [float(c) for c in result.b_hat.coeffs]
        methods[method.value] = {"coefficients": coefficients, **_outcome(result), "error": None}
        spectra[method.value] = spectrum
    document = {"n_samples": y.n_samples, "n": cfg.n, "methods": methods}
    if cfg.output_path is not None:
        out = Path(cfg.output_path)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "result.json", document)
        _write_spectra(out / "spectrum.csv", adjusted.grid_size, spectra)
    return document


def _read_sample_column(path: str | os.PathLike) -> np.ndarray:
    # numpy's C reader takes the bulk of the file. Whatever it does not
    # take, and whatever it would read differently, goes back to the row
    # rule from row 1, so values, messages and row numbers are the row
    # rule's: both routes convert a number with PyOS_string_to_double.
    path = os.fsdecode(path)
    values = _read_in_bulk(path)
    return _read_rows(path) if values is None else values


# np.loadtxt opens a path string with np.lib._datasource.open, which
# decompresses these suffixes and fetches "scheme://netloc" strings as URLs.
_DATASOURCE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_in_bulk(path: str) -> np.ndarray | None:
    """The samples, or None when the row rule must read the file.

    The file is read as UTF-8 with one byte-order mark dropped. Row 1 is
    peeked at only to skip the header ``y``; every other row goes to one
    ``np.loadtxt``. A row that loadtxt rejects or warns about, a second
    column and a file without values all return None. loadtxt gets the
    path, not the open file: from a file object it reads line by line at
    Python speed. So the file is opened twice, and only a regular file
    reads the same both times: a pipe or FIFO loses what the first open
    buffered, so it is left to the row rule, unopened.
    Whitespace separates loadtxt's cells, so a row of whitespace is a blank
    row to it as to the row rule, and a quote or a comma fails its
    conversion. So does a value that float() alone takes, such as ``1_0``;
    the row rule then reads it, to the same value.
    """
    url = urllib.parse.urlparse(path)
    if path.lower().endswith(_DATASOURCE_SUFFIXES) or (url.scheme and url.netloc):
        return None
    if not os.path.isfile(path):
        return None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = fh.readline().strip().lower() == "y"
    except (OSError, UnicodeDecodeError):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(
                path, skiprows=int(header), dtype=float, comments=None, delimiter=None,
                quotechar=None, ndmin=2, encoding="utf-8-sig",
            )
    except (ValueError, Warning):
        return None
    if values.shape[1] != 1 or values.size == 0:
        return None
    return values[:, 0]


def _read_rows(path: str) -> np.ndarray:
    """The row rule that ``estimate_file`` documents, one line at a time."""
    # A line holding neither a comma nor a quote is one CSV record with one
    # cell, and float() strips the same whitespace as str.strip(), so
    # float(line) is the row rule's value. Other lines go through the row
    # rule; a quoted field pulls its continuation lines from the file, so
    # `i` counts CSV records. float() rejects a byte-order mark, so a file
    # that starts with one always reaches the row rule on row 1.
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                try:
                    values.append(float(line))
                    continue
                except ValueError:
                    pass
                if i == 1 and line.startswith("\ufeff"):
                    line = line[1:]
                try:
                    row = next(csv.reader(itertools.chain([line], fh)))
                except csv.Error as exc:
                    raise DataParseError(f"row {i}: {exc}") from None
                cells = [c.strip() for c in row if c.strip() != ""]
                if not cells:
                    continue
                if len(cells) > 1:
                    raise DataParseError(f"row {i}: expected a single column, got {len(cells)}")
                if i == 1 and cells[0].lower() == "y":
                    continue
                try:
                    values.append(float(cells[0]))
                except ValueError:
                    raise DataParseError(f"row {i}: non-numeric value {cells[0]!r}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataParseError(f"cannot read '{path}': {exc}") from exc
    if not values:
        raise DataParseError(f"no samples found in '{path}'")
    return np.array(values)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Method):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_records(path, records: list[TrialRecord], include_timings: bool = False) -> None:
    """Emit trial records as CSV in canonical (run, method) order."""
    columns = RECORD_COLUMNS + (("wall_time_ms",) if include_timings else ())
    ordered = sorted(records, key=lambda r: (r.run_index, METHOD_ORDER.index(r.method)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in astuple(r)[: len(columns)]] for r in ordered)


def _write_json(path, document: dict) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_spectra(path, grid_size: int, columns: dict[str, np.ndarray]) -> None:
    # each column is formatted once, with the repr that _fmt gives a float
    names = list(columns)
    cells = [frequency_grid(grid_size)] + [columns[c] for c in names]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta"] + names)
        writer.writerows(zip(*(map(repr, column.tolist()) for column in cells)))
