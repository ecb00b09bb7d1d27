"""kmaxent benchmark: end-to-end metrics per workload, per-layer metrics from a
traced run.

Run from the repository root:

    python3 bench/run.py --workload mc-paper --seed 1 --seconds 45 --trace 0

Every workload runs in this one process as a closed loop: the next unit of
work starts only after the previous one has finished, and ``--seconds`` counts
the timed units only (input preparation and output checks between units do
not count). One untimed unit runs first. OpenBLAS runs on one thread (see
below). Inputs come from ``--seed`` only; the package receives the generated
series, the CSV path or the master seed.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median over fresh processes of importing kmaxent plus one
  warm-up fit per method (``setup_probe.py``);
- ``series_per_s``: series fully processed per timed second, with all
  methods, error scoring and output files;
- ``fit_ms.<method>.p50``: median time of a ``harness.fit_method`` call until
  it returns an estimate or raises ``KmaxentError``;
- ``fit_ms.tail``: pooled kernel-method fits at the workload's ``tail_pct``,
  a failed fit counting as beyond any limit (if the percentile lands on one,
  the value is the whole window); the count beyond it is printed;
- ``fit_ok_share``: fits that returned an estimate passing every check, over
  fits attempted (``failed_fit_share`` is one minus it and is printed);
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` prints the per-layer metrics: every unit runs twice on the same
inputs, first untraced and then traced, which gives the tracing overhead on
identical work. The spans of the traced runs are written to
``.bench_out/trace-<workload>-<seed>.jsonl`` when the run ends. Counts and
shares (evaluations, calls, failures) come from the first ``count_units``
traced units, so they repeat exactly for a seed; times come from every traced
unit. A layer a workload does not call reports 0.

``--smoke`` runs a fixed number of units at tiny sizes instead of a timed
window (``bench/test_bench.py`` uses it).

``BENCHMARK.json`` lists mc-paper and long-estimate. flat-white runs the same
way and its smoke run is tested, but it is not in that list: on a shared
2-vCPU machine the spread of its latency medians over ten runs (IQR over
median, up to 0.38 for ``fit_ms.me.p50``) was above the largest bound the
list allows (0.25).

The last line of stdout is the JSON result ``{"correct", "attempted",
"failed", "metrics"}``. ``attempted`` counts input series and ``failed`` the
series whose outputs failed a check or raised an error that is not a
``KmaxentError``; a ``KmaxentError`` from a fit is an outcome the package
documents and counts against ``fit_ok_share`` instead. Lines before it start
with ``#`` and are for people: each metric with its unit, the environment,
failures and reconstruction errors per method and, in traced runs, the stage
split.
"""

from __future__ import annotations

import os

# OpenBLAS is pinned to one thread before numpy loads. At its default of one
# thread per core, every small solve of a fit waits for a second thread; on a
# 2-vCPU machine shared with other tenants that made single pem-di fits take
# either 40-60 ms or 95-135 ms at random, and the median of a run moved by 30%
# between runs. The environment block reports the pin.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import csv
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import setup_probe
import tracing
from tracing import END, INFO, NAME, PARENT, SERIES, START

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("covariance", "kernels", "estimators", "diagnostics", "hyperopt", "simulate", "harness")
METHODS = ("me", "me-di", "me-tc", "pem-di", "pem-tc")
KERNEL_METHODS = METHODS[1:]
MIN_PHASE_METHODS = ("me-di", "me-tc")
SETUP_SAMPLES = 3
# the series length and order of the paper's experiments, and the smoke sizes
PAPER = {"N": 500, "n": 50, "grid": 2048, "long_N": 1_000_000}
SMOKE = {"N": 120, "n": 10, "grid": 256, "long_N": 3_000}


@dataclass
class Fit:
    """One harness.fit_method call; ``result`` is None when it raised KmaxentError."""

    method: str
    ms: float
    result: object = None
    recon: float | None = None
    problem: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None and self.problem is None


@dataclass
class Unit:
    """One unit of work: its timed duration, series, fits and check outcome."""

    elapsed: float
    series: int
    fits: list[Fit]
    failed_series: int = 0
    problems: list[str] = field(default_factory=list)
    traced_elapsed: float | None = None
    spans_end: int = 0


class FitClock:
    """Times every ``harness.fit_method`` call; the only hook of untraced runs."""

    def __init__(self, harness, kmaxent_error):
        self.fits: list[Fit] = []
        original = harness.fit_method

        def timed(method, y, cfg):
            start = time.perf_counter()
            try:
                result = original(method, y, cfg)
            except kmaxent_error:
                self.fits.append(Fit(str(method.value), (time.perf_counter() - start) * 1e3))
                raise
            self.fits.append(Fit(str(method.value), (time.perf_counter() - start) * 1e3, result))
            return result

        harness.fit_method = timed


def check_fit(fit: Fit) -> None:
    """Correctness checks of one successful fit; a failure is recorded, not raised."""
    if fit.result is None:
        return
    coeffs = np.asarray(fit.result.b_hat.coeffs, dtype=float)
    if not np.all(np.isfinite(coeffs)):
        fit.problem = "non-finite coefficients"
    elif fit.recon is None or not math.isfinite(fit.recon) or fit.recon < 0:
        fit.problem = f"reconstruction error {fit.recon!r}"
    elif fit.method in MIN_PHASE_METHODS:
        modulus = float(np.max(np.abs(np.roots(coeffs)))) if coeffs.size > 1 else 0.0
        if not (fit.result.min_phase_verified and modulus < 1.0):
            fit.problem = f"not minimum phase (max root modulus {modulus!r})"


class Workload:
    """A closed-loop workload; ``run`` is the timed part of one unit."""

    name = ""
    why = ""
    series_per_unit = 1
    tail_pct = 90
    count_units = 1

    def __init__(self, pkg, seed: int, sizes: dict, workdir: Path):
        self.pkg, self.seed, self.sizes, self.workdir = pkg, seed, sizes, workdir
        self.harness, self.simulate = pkg["harness"], pkg["simulate"]

    def config(self, **kw):
        return self.harness.ExperimentConfig(
            N=self.sizes["N"], n=self.sizes["n"], grid_size=self.sizes["grid"], **kw
        )

    def prepare(self, k: int) -> None:
        """Untimed input preparation for unit ``k``."""

    def run(self, k: int):
        raise NotImplementedError

    def check(self, payload, fits: list[Fit]) -> list[str]:
        """Fill ``recon`` and run the checks; returns output-level problems."""
        raise NotImplementedError

    def label(self, spans, first: int, k: int) -> None:
        """Refine the series ids of the spans of traced unit ``k``."""


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class MonteCarlo(Workload):
    name = "mc-paper"
    why = (
        "the paper's Monte Carlo study (random 3-pair ARMA, N=500, n=50, five methods, "
        "grid 2048) as users run it; hyperparameter search dominates"
    )
    tail_pct = 95
    count_units = 2

    def __init__(self, pkg, seed, sizes, workdir):
        super().__init__(pkg, seed, sizes, workdir)
        self.series_per_unit = 2 if sizes is SMOKE else 5

    def run(self, k):
        master = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        cfg = self.config(
            runs=self.series_per_unit, master_seed=master, output_path=str(self.workdir / f"mc{k}")
        )
        start = time.perf_counter()
        records, summary = self.harness.run_monte_carlo(cfg)
        return time.perf_counter() - start, (cfg, records, summary)

    def check(self, payload, fits):
        cfg, records, summary = payload
        out = Path(cfg.output_path)
        problems = []
        if len(records) != len(fits) or len(records) != cfg.runs * len(cfg.methods):
            problems.append(f"{len(records)} records for {len(fits)} fits")
        for fit, rec in zip(fits, records):
            if rec.method.value != fit.method or (rec.error is None) != (fit.result is not None):
                problems.append(f"record {rec.run_index}/{rec.method.value} does not match its fit")
            fit.recon = rec.reconstruction_error
            check_fit(fit)
            if fit.result is not None and rec.min_phase_verified != fit.result.min_phase_verified:
                fit.problem = "records.csv min_phase differs from the fit"
        rows = _read_csv(out / "records.csv")
        if tuple(rows[0]) != self.harness.RECORD_COLUMNS or len(rows) != len(records) + 1:
            problems.append("records.csv has the wrong header or row count")
        else:
            col = rows[0].index("reconstruction_error")
            written = [float(r[col]) if r[col] else None for r in rows[1:]]
            if written != [r.reconstruction_error for r in records]:
                problems.append("records.csv reconstruction errors differ from the records")
        with open(out / "summary.json") as fh:
            if json.load(fh) != json.loads(json.dumps(summary)):
                problems.append("summary.json differs from the returned summary")
        shutil.rmtree(out)
        return problems

    def label(self, spans, first, k):
        # run_monte_carlo starts each trial with a model draw
        trial = 0
        for s in spans[first:]:
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            if s[NAME] == "simulate.random_arma" and parent == "harness.run_monte_carlo":
                trial += 1
            s[SERIES] = f"{k}.{trial}"


class LongEstimate(Workload):
    name = "long-estimate"
    why = (
        "estimate_file on a 10^6-sample CSV of the benchmark ARMA: CSV parse, lags and the "
        "PEM design dominate and search cost does not grow with N"
    )
    tail_pct = 60
    count_units = 1

    def __init__(self, pkg, seed, sizes, workdir):
        super().__init__(pkg, seed, sizes, workdir)
        self.model = self.simulate.benchmark_arma()
        self.truth = self.simulate.SpectrumModel(self.model)
        self.csv = None

    def prepare(self, k):
        # fit latencies depend on the data, so units cycle through three
        # series instead of repeating one; writing a 10^6-sample CSV takes
        # about a second, so each is written once
        series = k % 3
        self.csv = self.workdir / f"long{series}.csv"
        if self.csv.exists():
            return
        y = self.simulate.generate(self.model, self.sizes["long_N"], np.random.SeedSequence([self.seed, series]))
        with open(self.csv, "w") as fh:
            fh.write("y\n")
            fh.write("\n".join(map(repr, y.samples.tolist())))
            fh.write("\n")

    def run(self, k):
        cfg = self.config(output_path=str(self.workdir / f"est{k}"))
        polynomial = self.pkg["estimators"].PredictorPolynomial
        start = time.perf_counter()
        doc = self.harness.estimate_file(cfg, str(self.csv))
        recon = {
            m: self.simulate.reconstruction_error(
                self.simulate.SpectrumModel(polynomial(np.array(entry["coefficients"]))),
                self.truth,
                cfg.grid_size,
            )
            for m, entry in doc["methods"].items()
            if entry.get("error") is None
        }
        return time.perf_counter() - start, (cfg, doc, recon)

    def check(self, payload, fits):
        cfg, doc, recon = payload
        out = Path(cfg.output_path)
        problems = []
        if [f.method for f in fits] != list(doc["methods"]):
            problems.append("result.json methods differ from the fits")
        for fit in fits:
            entry = doc["methods"].get(fit.method, {})
            fit.recon = recon.get(fit.method)
            check_fit(fit)
            if fit.result is not None and entry.get("coefficients") != fit.result.b_hat.coeffs.tolist():
                fit.problem = "result.json coefficients differ from the fit"
        with open(out / "result.json") as fh:
            if json.load(fh) != json.loads(json.dumps(doc)):
                problems.append("result.json differs from the returned document")
        rows = _read_csv(out / "spectrum.csv")
        values = np.array(rows[1:], dtype=float)
        if rows[0] != ["theta"] + [f.method for f in fits if f.result is not None] or values.shape[0] != cfg.grid_size:
            problems.append("spectrum.csv has the wrong columns or row count")
        elif not (np.all(np.isfinite(values)) and np.all(values[:, 1:] > 0)):
            problems.append("spectrum.csv holds non-finite or non-positive values")
        shutil.rmtree(out)
        return problems


class FlatWhite(Workload):
    name = "flat-white"
    why = (
        "unit white noise at N=500 (consecutive seeds, flat truth): a flat likelihood "
        "doubles refinement and me-tc fails on most seeds"
    )
    tail_pct = 75
    count_units = 8

    def __init__(self, pkg, seed, sizes, workdir):
        super().__init__(pkg, seed, sizes, workdir)
        white = self.simulate.ArmaModel(zeros=(), poles=(), gain=1.0)
        self.white, self.truth = white, self.simulate.SpectrumModel(white)
        self.cfg = self.config()

    def run(self, k):
        harness, simulate = self.harness, self.simulate
        out = self.workdir / f"white{k}"
        out.mkdir()
        start = time.perf_counter()
        y = simulate.generate(self.white, self.cfg.N, self.seed * 100_000 + k)
        records = []
        for method in self.cfg.methods:
            try:
                result = harness.fit_method(method, y, self.cfg)
            except self.pkg["errors"].KmaxentError as exc:
                records.append(harness.TrialRecord(k, method, error=str(exc)))
                continue
            eta = result.eta_hat
            records.append(
                harness.TrialRecord(
                    k,
                    method,
                    reconstruction_error=simulate.reconstruction_error(
                        simulate.SpectrumModel(result.b_hat), self.truth, self.cfg.grid_size
                    ),
                    df=result.df,
                    lam=eta.lam if eta is not None else None,
                    beta=eta.beta if eta is not None else None,
                    min_phase_verified=result.min_phase_verified,
                    max_root_modulus=result.max_root_modulus,
                    chosen_n=result.chosen_n,
                )
            )
        harness.write_records(out / "records.csv", records)
        return time.perf_counter() - start, (out, records)

    def check(self, payload, fits):
        out, records = payload
        problems = []
        for fit, rec in zip(fits, records):
            fit.recon = rec.reconstruction_error
            check_fit(fit)
        if len(_read_csv(out / "records.csv")) != len(records) + 1 or len(fits) != len(records):
            problems.append("records.csv row count differs from the fits")
        shutil.rmtree(out)
        return problems


WORKLOADS = {w.name: w for w in (MonteCarlo, LongEstimate, FlatWhite)}


def load_package() -> dict:
    if not (SRC / "kmaxent" / "__init__.py").is_file():
        raise SystemExit(f"bench: no kmaxent sources at {SRC.relative_to(ROOT)}/kmaxent")
    sys.path.insert(0, str(SRC))
    import importlib

    pkg = {name: importlib.import_module(f"kmaxent.{name}") for name in LAYERS + ("errors",)}
    if Path(pkg["harness"].__file__).resolve().parent != SRC / "kmaxent":
        raise SystemExit("bench: kmaxent was imported from outside this checkout")
    return pkg


def _blas_threads() -> dict:
    """Thread count in effect for each bundled OpenBLAS, read from the library."""
    import ctypes
    import glob

    import scipy

    threads = {}
    for mod in (np, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[mod.__name__] = fn()
                    break
    return threads


def environment() -> dict:
    import platform

    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_pins": {k: os.environ[k] for k in pins if k in os.environ},
        "git_sha": sha,
    }


def measure_setup(sizes: dict, samples: int) -> float:
    """Median seconds of import plus warm-up fits, each in a fresh process."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC), str(sizes["N"]), str(sizes["n"])],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_unit(workload: Workload, clock: FitClock, k: int) -> tuple[float, list[Fit], list[str], object]:
    clock.fits = []
    start = time.perf_counter()
    try:
        elapsed, payload = workload.run(k)
    except Exception:  # a crash of the package is reported, and the run goes on
        return time.perf_counter() - start, clock.fits, [traceback.format_exc()], None
    fits = clock.fits
    return elapsed, fits, workload.check(payload, fits), payload


def measure(workload: Workload, clock: FitClock, seconds: float, tracer, smoke: bool) -> list[Unit]:
    units: list[Unit] = []
    min_units = workload.count_units if (smoke or tracer is not None) else 1
    # one untimed unit first: the first calls on large arrays in a fresh
    # process pay for page faults that later calls do not
    workload.prepare(0)
    run_unit(workload, clock, 0)
    spent = 0.0  # timed seconds; preparation and checks between units do not count
    k = 0
    while k < min_units or (not smoke and spent < seconds):
        workload.prepare(k)
        elapsed, fits, problems, _ = run_unit(workload, clock, k)
        unit = Unit(elapsed, workload.series_per_unit, fits, problems=problems)
        if tracer is not None:
            # the traced repeat supplies the fits; keep what the untraced one found
            unit.problems += [f"{f.method}: {f.problem}" for f in fits if f.problem]
            first = len(tracer.spans)
            tracer.series = str(k)
            tracer.install()
            try:
                unit.traced_elapsed, unit.fits, traced_problems, _ = run_unit(workload, clock, k)
            finally:
                tracer.uninstall()
            unit.problems += traced_problems
            workload.label(tracer.spans, first, k)
            unit.spans_end = len(tracer.spans)
        # every series runs the five methods in order, so fit i belongs to series i // 5
        bad = {i // len(METHODS) for i, f in enumerate(unit.fits) if f.problem}
        unit.failed_series = unit.series if unit.problems else len(bad)
        spent += unit.elapsed + (unit.traced_elapsed or 0.0)
        units.append(unit)
        k += 1
    return units


def percentile_nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: Workload, units: list[Unit], setup_s: float, seconds: float, notes: list[str]) -> dict:
    fits = [f for u in units for f in u.fits]
    window_ms = 1e3 * max(seconds, sum(u.elapsed for u in units))
    metrics = {"setup_s": (setup_s, "s")}
    metrics["series_per_s"] = (sum(u.series for u in units) / sum(u.elapsed for u in units), "1/s")
    for m in METHODS:
        # time to return, with an estimate or a KmaxentError: on flat-white most
        # me-tc fits fail, and the few successes alone give an unsteady median
        times = [f.ms for f in fits if f.method == m]
        metrics[f"fit_ms.{m}.p50"] = (statistics.median(times), "ms")
    pooled = [f.ms if f.ok else math.inf for f in fits if f.method in KERNEL_METHODS]
    tail, beyond = percentile_nearest_rank(pooled, workload.tail_pct)
    metrics["fit_ms.tail"] = (tail if math.isfinite(tail) else window_ms, "ms")
    notes.append(f"fit_ms.tail is p{workload.tail_pct} of {len(pooled)} kernel-method fits, {beyond} beyond it")
    metrics["fit_ok_share"] = (sum(f.ok for f in fits) / len(fits), "share")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for m in METHODS:
        tried = [f for f in fits if f.method == m]
        errors = [f.recon for f in tried if f.ok]
        median = statistics.median(errors) if errors else None
        notes.append(f"{m}: {len(tried) - len(errors)} of {len(tried)} fits failed, median reconstruction error {median!r}")
    notes.append(f"failed_fit_share = {sum(not f.ok for f in fits)} / {len(fits)}")
    return metrics


def _mean(values, scale=1.0) -> float:
    values = list(values)
    return scale * sum(values) / len(values) if values else 0.0


STAGE_OF = {
    "covariance.estimate_lags": "lags",
    "covariance.build_toeplitz": "toeplitz",
    "covariance.cholesky": "cholesky",
    "estimators.preliminary_b0": "preliminary_b0",
    "estimators.me_bic": "me_bic",
    "estimators.build_whittle_design": "whittle_design",
    "estimators.kernel_me": "coefficient_solve",
    "estimators.kernel_pem": "coefficient_solve",
    "estimators.check_min_phase": "root_check",
    "hyperopt.optimize_hyperparameters": "search_loop",
    "hyperopt.run_pipeline": "pipeline_other",
    "hyperopt.run_pem_pipeline": "pem_design",
    "simulate.eval_spectrum": "spectrum_error",
    "simulate.reconstruction_error": "spectrum_error",
    "simulate.generate": "generate",
    "simulate.random_arma": "generate",
}
WRITES = ("harness.write_records", "harness._write_spectra")
ENTRIES = ("harness.run_monte_carlo", "harness.estimate_file")


def layer_metrics(workload: Workload, units: list[Unit], spans) -> dict:
    own = tracing.self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        children[s[PARENT]].append(i)
    counted = units[: workload.count_units]
    bound = counted[-1].spans_end
    c_series = sum(u.series for u in counted)
    series = sum(u.series for u in units)

    def counted_spans(name):
        return [i for i in by_name[name] if i < bound]

    def route(i):
        parent = spans[spans[i][PARENT]][NAME] if i >= 0 and spans[i][PARENT] >= 0 else ""
        return {"hyperopt.run_pipeline": "me", "hyperopt.run_pem_pipeline": "pem"}.get(parent)

    search = by_name["hyperopt.optimize_hyperparameters"]
    evals = by_name[tracing.EVALUATE]
    c_pipelines = counted_spans("hyperopt.run_pipeline") + counted_spans("hyperopt.run_pem_pipeline")
    kernel_spans = [i for i, s in enumerate(spans) if s[NAME].startswith("kernels.")]
    c_search = [
        spans[i][INFO] for i in counted_spans("hyperopt.optimize_hyperparameters") if "grid" in spans[i][INFO]
    ]
    c_chol = [spans[i][INFO] for i in counted_spans("covariance.cholesky") if "jitter" in spans[i][INFO]]
    c_fits = [f for u in counted for f in u.fits]
    pipelines = len(by_name["hyperopt.run_pipeline"]) + len(by_name["hyperopt.run_pem_pipeline"])

    def first_fit_gap(i):
        fit_starts = [spans[c][START] for c in children[i] if spans[c][NAME] == "harness.fit_method"]
        return (min(fit_starts) if fit_starts else spans[i][END]) - spans[i][START]

    def write_time(i):
        if spans[i][NAME] in WRITES:
            return dur[i]
        others = [spans[c][END] for c in children[i] if spans[c][NAME] not in WRITES]
        return spans[i][END] - max(others, default=spans[i][START])

    writes = by_name[ENTRIES[0]] + by_name[ENTRIES[1]] + [
        i for name in WRITES for i in by_name[name] if spans[i][PARENT] < 0
    ]
    traced = sum(u.traced_elapsed for u in units)
    m = {
        "hyperopt.search_ms.me": (_mean((own[i] for i in search if route(i) == "me"), 1e3), "ms"),
        "hyperopt.search_ms.pem": (_mean((own[i] for i in search if route(i) == "pem"), 1e3), "ms"),
        "hyperopt.eval_us.me": (_mean((dur[i] for i in evals if route(spans[i][PARENT]) == "me"), 1e6), "us"),
        "hyperopt.eval_us.pem": (_mean((dur[i] for i in evals if route(spans[i][PARENT]) == "pem"), 1e6), "us"),
        "hyperopt.grid_evals": (_mean(s["grid"] for s in c_search), "count"),
        "hyperopt.refine_evals": (_mean(s["trace"] - s["grid"] for s in c_search), "count"),
        "hyperopt.rejected_evals": (_mean(s["evaluations"] - s["trace"] for s in c_search), "count"),
        "hyperopt.box_edge_share": (_mean(s["edge"] for s in c_search), "share"),
        "kernels.build_us": (_mean((dur[i] for i in kernel_spans), 1e6), "us"),
        "kernels.calls_per_fit": (sum(i < bound for i in kernel_spans) / max(len(c_pipelines), 1), "count"),
        "covariance.lags_ms": (_mean((dur[i] for i in by_name["covariance.estimate_lags"]), 1e3), "ms"),
        "covariance.lags_calls_per_series": (len(counted_spans("covariance.estimate_lags")) / c_series, "count"),
        "covariance.cholesky_ms": (_mean((dur[i] for i in by_name["covariance.cholesky"]), 1e3), "ms"),
        "covariance.jitter_share": (_mean(c["jitter"] > 0 for c in c_chol), "share"),
        "estimators.me_bic_ms": (_mean((dur[i] for i in by_name["estimators.me_bic"]), 1e3), "ms"),
        "estimators.pem_design_ms": (_mean((own[i] for i in by_name["hyperopt.run_pem_pipeline"]), 1e3), "ms"),
        "estimators.kernel_pem_ms": (_mean((dur[i] for i in by_name["estimators.kernel_pem"]), 1e3), "ms"),
        "estimators.kernel_me_ms": (_mean((dur[i] for i in by_name["estimators.kernel_me"]), 1e3), "ms"),
        "estimators.preliminary_b0_ms": (_mean((dur[i] for i in by_name["estimators.preliminary_b0"]), 1e3), "ms"),
        "estimators.root_check_ms": (_mean((dur[i] for i in by_name["estimators.check_min_phase"]), 1e3), "ms"),
        "diagnostics.df_ms": (
            1e3 * sum(dur[i] for i, s in enumerate(spans) if s[NAME].startswith("diagnostics.")) / max(pipelines, 1),
            "ms",
        ),
        "simulate.recon_error_ms": (_mean((dur[i] for i in by_name["simulate.reconstruction_error"]), 1e3), "ms"),
        "simulate.eval_spectrum_calls_per_trial": (len(counted_spans("simulate.eval_spectrum")) / c_series, "count"),
        "simulate.generate_ms": (_mean((dur[i] for i in by_name["simulate.generate"]), 1e3), "ms"),
        # accuracy of the traced fits, unbounded: on flat-white a run holds too
        # few successful me-tc fits for a steady median; -1 means none succeeded
        "simulate.recon_err.me-tc.median": (
            statistics.median([f.recon for u in units for f in u.fits if f.method == "me-tc" and f.ok] or [-1.0]),
            "ratio",
        ),
        "harness.parse_ms": (_mean((first_fit_gap(i) for i in by_name["harness.estimate_file"]), 1e3), "ms"),
        "harness.write_ms": (1e3 * sum(write_time(i) for i in writes) / series, "ms"),
        "harness.failed_fit_share": (sum(not f.ok for f in c_fits) / max(len(c_fits), 1), "share"),
        "trace.series_per_s": (series / traced, "1/s"),
        "trace.overhead_share": (traced / sum(u.elapsed for u in units) - 1.0, "share"),
    }
    return m


def stage_split(units: list[Unit], spans) -> dict:
    """Milliseconds per series of each pipeline stage, by span self time.

    Every traced second lands in exactly one stage; ``benchmark`` is the time
    of the timed units spent outside any package call.
    """
    own = tracing.self_times(spans)
    grid_seen = defaultdict(int)
    split = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == tracing.EVALUATE:
            parent = s[PARENT]
            grid_seen[parent] += 1
            grid = (spans[parent][INFO] or {}).get("grid", 0) if parent >= 0 else 0
            stage = "grid" if grid_seen[parent] <= grid else "refinement"
        elif name.startswith("kernels."):
            stage = "kernel_build"
        elif name.startswith("diagnostics."):
            stage = "df"
        elif name.startswith("harness."):
            stage = "harness"
        else:
            stage = STAGE_OF.get(name, name)
        split[stage] += own[i]
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    split["benchmark"] = sum(u.traced_elapsed for u in units) - roots
    series = sum(u.series for u in units)
    return {k: round(1e3 * v / series, 3) for k, v in sorted(split.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fixed units at tiny sizes")
    args = parser.parse_args(argv)

    pkg = load_package()
    sizes = SMOKE if args.smoke else PAPER
    setup_probe.warm_up(sizes["N"], sizes["n"])
    setup_s = measure_setup(sizes, 1 if args.smoke else SETUP_SAMPLES)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](pkg, args.seed, sizes, workdir)
        clock = FitClock(pkg["harness"], pkg["errors"].KmaxentError)
        tracer = tracing.Tracer(pkg) if args.trace else None
        units = measure(workload, clock, args.seconds, tracer, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = [f"env {json.dumps(environment(), sort_keys=True)}"]
    if tracer is None:
        metrics = end_to_end(workload, units, setup_s, args.seconds, notes)
    else:
        metrics = layer_metrics(workload, units, tracer.spans)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        notes.append(f"stage split, ms per series: {json.dumps(stage_split(units, tracer.spans))}")
    problems = [p for u in units for p in u.problems] + [
        f"{f.method}: {f.problem}" for u in units for f in u.fits if f.problem
    ]
    notes += [f"check failed: {p}" for p in problems]
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(u.series for u in units),
        "failed": sum(u.failed_series for u in units),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
