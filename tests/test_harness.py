import csv
import dataclasses
import gzip
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmaxent.cli as cli
import kmaxent.harness as harness
from kmaxent.covariance import TimeSeries
from kmaxent.errors import DataParseError, InvalidDataError, InvalidOrderError, KmaxentError
from kmaxent.estimators import Method
from kmaxent.harness import (
    ExperimentConfig,
    estimate_file,
    fit_method,
    run_monte_carlo,
    run_single_trial,
)
from kmaxent.simulate import (
    ArmaModel,
    SpectrumModel,
    benchmark_arma,
    generate,
    random_arma,
    reconstruction_error,
)
from oracles import read_sample_column


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_methods_are_canonicalized(self):
        cfg = ExperimentConfig(methods=(Method.PEM_TC, Method.ME), N=100, n=10)
        assert cfg.methods == (Method.ME, Method.PEM_TC)

    def test_validation(self):
        with pytest.raises(InvalidOrderError):
            ExperimentConfig(N=50, n=50)
        with pytest.raises(InvalidOrderError, match="n must be >= 1"):
            ExperimentConfig(n=0)
        with pytest.raises(InvalidOrderError, match="low_order must be >= 0"):
            ExperimentConfig(low_order=-1)
        with pytest.raises(InvalidDataError):
            ExperimentConfig(methods=(), N=100, n=10)
        with pytest.raises(InvalidDataError):
            ExperimentConfig(runs=0, N=100, n=10)


class TestSingleTrial:
    def test_me_only_schema(self, tmp_path):
        cfg = ExperimentConfig(
            methods=(Method.ME,), N=200, n=10, master_seed=1,
            grid_size=128, output_path=str(tmp_path),
        )
        records = run_single_trial(cfg)
        assert len(records) == 1 and records[0].error is None
        rows = read_csv(tmp_path / "spectra.csv")
        assert rows[0] == ["theta", "truth", "me"]
        assert len(rows) == 1 + 128
        for row in rows[1:]:
            assert float(row[1]) > 0 and float(row[2]) > 0

    def test_byte_identical_reruns(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = ExperimentConfig(
                methods=(Method.ME, Method.ME_DI), N=200, n=10,
                master_seed=9, grid_size=128, output_path=str(out),
            )
            run_single_trial(cfg)
            outputs.append(out)
        for fname in ("spectra.csv", "records.csv"):
            a = (outputs[0] / fname).read_bytes()
            b = (outputs[1] / fname).read_bytes()
            assert a == b

    def test_kernel_records_min_phase_on_fixture(self, tmp_path):
        cfg = ExperimentConfig(
            methods=(Method.ME_DI, Method.ME_TC), N=200, n=10,
            master_seed=42, grid_size=128, output_path=str(tmp_path),
        )
        records = run_single_trial(cfg)
        assert all(r.min_phase_verified for r in records)
        assert all(r.lam is not None and r.beta is not None for r in records)

    def test_records_hold_the_fit_outcomes(self):
        cfg = ExperimentConfig(methods=(Method.ME, Method.PEM_TC), N=200, n=10, master_seed=6)
        y = generate(benchmark_arma(), cfg.N, harness.trial_seed(cfg.master_seed, 0, 1))
        for record in run_single_trial(cfg):
            result = fit_method(record.method, y, cfg)
            eta = result.eta_hat
            assert (record.df, record.lam, record.beta) == (
                result.df, eta and eta.lam, eta and eta.beta
            )
            assert (record.min_phase_verified, record.max_root_modulus, record.chosen_n) == (
                result.min_phase_verified, result.max_root_modulus, result.chosen_n
            )

    def test_me_df_is_chosen_order_plus_one(self):
        cfg = ExperimentConfig(methods=(Method.ME,), N=200, n=10, master_seed=3)
        records = run_single_trial(cfg)
        assert records[0].df == records[0].chosen_n + 1


class TestMonteCarlo:
    def test_single_run_summary_degenerates(self, tmp_path):
        cfg = ExperimentConfig(
            methods=(Method.ME,), N=200, n=10, runs=1,
            master_seed=5, grid_size=128, output_path=str(tmp_path),
        )
        records, summary = run_monte_carlo(cfg)
        assert len(records) == 1
        stats = summary["methods"]["me"]
        e = records[0].reconstruction_error
        assert stats["min"] == stats["median"] == stats["max"] == e
        assert stats["q1"] == stats["q3"] == e
        assert stats["outliers"] == 0 and stats["failures"] == 0

    def test_summary_config_holds_every_result_shaping_field(self, tmp_path):
        cfg = ExperimentConfig(
            methods=(Method.ME,), N=200, n=10, runs=1,
            master_seed=5, grid_size=128, output_path=str(tmp_path),
        )
        run_monte_carlo(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        expected = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(summary["config"]) == expected - {"include_timings", "output_path"}
        assert summary["config"]["methods"] == ["me"]

    def test_records_in_canonical_order(self, tmp_path):
        cfg = ExperimentConfig(
            methods=(Method.ME_DI, Method.ME), N=200, n=10, runs=3,
            master_seed=5, grid_size=128, output_path=str(tmp_path),
        )
        run_monte_carlo(cfg)
        rows = read_csv(tmp_path / "records.csv")
        assert rows[0] == list(harness.RECORD_COLUMNS)
        keys = [(int(r[0]), r[1]) for r in rows[1:]]
        assert keys == [(i, m) for i in (1, 2, 3) for m in ("me", "me-di")]

    def test_summary_matches_independent_recompute(self, tmp_path):
        cfg = ExperimentConfig(
            methods=(Method.ME,), N=200, n=10, runs=6,
            master_seed=17, grid_size=128, output_path=str(tmp_path),
        )
        _, summary = run_monte_carlo(cfg)
        rows = read_csv(tmp_path / "records.csv")
        header = rows[0]
        col = header.index("reconstruction_error")
        errors = np.array([float(r[col]) for r in rows[1:] if r[header.index("error")] == ""])
        expected = summary["methods"]["me"]
        assert float(np.min(errors)) == expected["min"]
        assert float(np.percentile(errors, 25)) == expected["q1"]
        assert float(np.percentile(errors, 50)) == expected["median"]
        assert float(np.percentile(errors, 75)) == expected["q3"]
        assert float(np.max(errors)) == expected["max"]
        q1, q3 = expected["q1"], expected["q3"]
        iqr = q3 - q1
        outliers = int(np.sum((errors < q1 - 1.5 * iqr) | (errors > q3 + 1.5 * iqr)))
        assert outliers == expected["outliers"]

    def test_failures_recorded_not_raised(self, monkeypatch, tmp_path):
        calls = {"n": 0}
        original = harness.fit_method

        def flaky(method, y, cfg):
            calls["n"] += 1
            if method is Method.ME_DI:
                raise KmaxentError("forced failure")
            return original(method, y, cfg)

        monkeypatch.setattr(harness, "fit_method", flaky)
        cfg = ExperimentConfig(
            methods=(Method.ME, Method.ME_DI), N=200, n=10, runs=2,
            master_seed=1, grid_size=128, output_path=str(tmp_path),
        )
        records, summary = run_monte_carlo(cfg)
        failed = [r for r in records if r.error is not None]
        assert len(failed) == 2 and all(r.method is Method.ME_DI for r in failed)
        assert summary["failed_records"] == 2
        assert summary["methods"]["me-di"]["failures"] == 2
        assert summary["methods"]["me"]["count"] == 2

    def test_timings_column_is_last_and_empty_for_failed_fits(self, monkeypatch, tmp_path):
        original = harness.fit_method

        def failing_me_di(method, y, cfg):
            if method is Method.ME_DI:
                raise KmaxentError("forced failure")
            return original(method, y, cfg)

        monkeypatch.setattr(harness, "fit_method", failing_me_di)
        rows = {}
        for timings in (False, True):
            out = tmp_path / str(timings)
            cfg = ExperimentConfig(
                methods=(Method.ME, Method.ME_DI), N=200, n=10, runs=2, master_seed=1,
                grid_size=64, include_timings=timings, output_path=str(out),
            )
            run_monte_carlo(cfg)
            rows[timings] = read_csv(out / "records.csv")
        assert rows[True][0] == list(harness.RECORD_COLUMNS) + ["wall_time_ms"]
        assert [row[:-1] for row in rows[True]] == rows[False]
        assert [row[1] for row in rows[True][1:]] == ["me", "me-di"] * 2
        for row in rows[True][1:]:
            if row[1] == "me-di":
                assert row[-2:] == ["forced failure", ""]
            else:
                assert float(row[-1]) > 0.0

    def test_one_root_solve_per_fit_and_one_truth_spectrum_per_trial(self, monkeypatch):
        cfg = ExperimentConfig(runs=2, master_seed=8)
        roots_calls = []
        original_roots = np.roots
        monkeypatch.setattr(np, "roots", lambda c: roots_calls.append(1) or original_roots(c))
        truths = []
        original_eval = harness.eval_spectrum

        def counting_eval(s, grid_size):
            if isinstance(s.source, ArmaModel):
                truths.append(s.source)
            return original_eval(s, grid_size)

        monkeypatch.setattr(harness, "eval_spectrum", counting_eval)
        estimates = []
        original_fit = harness.fit_method

        def recording_fit(method, y, cfg):
            result = original_fit(method, y, cfg)
            estimates.append(result.b_hat)
            return result

        monkeypatch.setattr(harness, "fit_method", recording_fit)
        records, _ = run_monte_carlo(cfg)
        ok = [r for r in records if r.error is None]
        assert len(records) == 10 and len(ok) == len(estimates)
        assert len(roots_calls) == len(ok)
        models = [random_arma(harness.trial_seed(cfg.master_seed, run, 0)) for run in (1, 2)]
        assert truths == models
        for record, b_hat in zip(ok, estimates):
            truth = SpectrumModel(models[record.run_index - 1])
            expected = reconstruction_error(SpectrumModel(b_hat), truth, cfg.grid_size)
            assert record.reconstruction_error == expected


def test_each_record_is_one_positional_fit_method_call(monkeypatch, tmp_path):
    # bench/run.py times fits by swapping harness.fit_method and pairs its
    # calls with the records: one (method, y, cfg) call per record, in order
    calls = []
    original = harness.fit_method

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    def check(methods):
        assert len(calls) == len(methods)
        for (args, kwargs), method in zip(calls, methods):
            assert kwargs == {} and len(args) == 3 and args[0] is method
            assert isinstance(args[1], TimeSeries) and isinstance(args[2], ExperimentConfig)
        calls.clear()

    monkeypatch.setattr(harness, "fit_method", recorder)
    cfg = ExperimentConfig(
        methods=(Method.ME, Method.PEM_DI), N=200, n=10, runs=2, master_seed=2, grid_size=64
    )
    records, _ = run_monte_carlo(cfg)
    check([r.method for r in records])
    check([r.method for r in run_single_trial(cfg)])
    spike = tmp_path / "spike.csv"
    spike.write_text("1.0\n" + "0\n" * 499)
    document = estimate_file(cfg, spike)
    assert "error" in document["methods"]["pem-di"]
    check([Method(m) for m in document["methods"]])


@st.composite
def finite_series_and_config(draw):
    """A finite series of 3-300 samples at scale 10^k, |k| <= 300, and valid orders."""
    N = draw(st.integers(3, 300))
    kind = draw(st.sampled_from(["white", "arma", "constant", "spike", "zeros"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "white":
        base = np.random.default_rng(seed).standard_normal(N)
    elif kind == "arma":
        base = generate(random_arma(seed), N, seed).samples
    elif kind == "spike":
        base = np.zeros(N)
        base[draw(st.integers(0, N - 1))] = draw(st.sampled_from([-1.0, 1.0, 3.5]))
    else:
        base = np.full(N, 0.0 if kind == "zeros" else draw(st.floats(-10.0, 10.0)))
    samples = base * 10.0 ** draw(st.integers(-300, 300))
    n = draw(st.integers(1, min(N - 1, 50)))
    low_order = draw(st.integers(0, min(N - 1, 5)))
    return samples, ExperimentConfig(N=N, n=n, low_order=low_order)


@given(finite_series_and_config())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_finite_series_fits_or_raises_a_named_error(case):
    # each method either returns a result, minimum phase on the ME routes,
    # or raises a KmaxentError, and numpy never warns on the way
    samples, cfg = case
    for method in Method:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = fit_method(method, TimeSeries(samples), cfg)
            except KmaxentError:
                continue
        if not method.value.startswith("pem"):
            assert result.min_phase_verified, (method, result.max_root_modulus)


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: kernel-PEM prior does not scale with the data"
)
def test_kernel_pem_fits_a_large_constant_series():
    # me, me-di and me-tc fit this series, and both kernel-PEM routes fit it
    # at 1e8; at 3e14 their solve fails with LAPACK's "2-th leading minor"
    y = TimeSeries(np.full(500, 3e14))
    cfg = ExperimentConfig(N=500, n=50)
    for method in (Method.PEM_DI, Method.PEM_TC):
        fit_method(method, y, cfg)


class TestEstimateFile:
    def write_samples(self, path, samples, header=True):
        with open(path, "w") as fh:
            if header:
                fh.write("y\n")
            for v in samples:
                fh.write(f"{float(v)!r}\n")

    def test_matches_direct_fit(self, tmp_path):
        y = generate(benchmark_arma(), 200, 4)
        data = tmp_path / "data.csv"
        self.write_samples(data, y.samples)
        cfg = ExperimentConfig(
            methods=(Method.ME_TC,), N=500, n=10, grid_size=128,
            output_path=str(tmp_path / "out"),
        )
        document = estimate_file(cfg, str(data))
        direct = fit_method(Method.ME_TC, TimeSeries(y.samples), ExperimentConfig(
            methods=(Method.ME_TC,), N=200, n=10, grid_size=128))
        got = document["methods"]["me-tc"]
        np.testing.assert_array_equal(got["coefficients"], direct.b_hat.coeffs)
        assert got["lambda"] == direct.eta_hat.lam
        assert got["df"] == direct.df
        assert (tmp_path / "out" / "result.json").exists()
        rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert rows[0] == ["theta", "me-tc"]

    def test_failed_method_is_an_error_entry_without_a_spectrum_column(self, tmp_path):
        data = tmp_path / "spike.csv"
        data.write_text("1.0\n" + "0\n" * 499)
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            methods=(Method.ME, Method.PEM_DI), N=500, n=50, grid_size=128,
            output_path=str(out),
        )
        document = estimate_file(cfg, str(data))
        assert document["methods"]["pem-di"] == {
            "error": "step 'kernel_pem': predictor residuals are all zero"
        }
        assert document["methods"]["me"]["error"] is None
        with open(out / "result.json") as fh:
            assert json.load(fh) == document
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["theta", "me"] and len(rows) == 1 + 128

    def test_empty_file_rejected(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        cfg = ExperimentConfig(methods=(Method.ME,), N=100, n=10)
        with pytest.raises(DataParseError):
            estimate_file(cfg, str(data))

    def test_non_numeric_row_named(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("y\n1.0\nnot-a-number\n2.0\n")
        cfg = ExperimentConfig(methods=(Method.ME,), N=100, n=10)
        with pytest.raises(DataParseError, match="row 3"):
            estimate_file(cfg, str(data))

    def test_too_few_samples_for_order(self, tmp_path):
        data = tmp_path / "short.csv"
        self.write_samples(data, np.arange(10.0), header=False)
        cfg = ExperimentConfig(methods=(Method.ME,), N=100, n=10)
        with pytest.raises(InvalidOrderError):
            estimate_file(cfg, str(data))

    def test_multi_column_rejected(self, tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text("1.0,2.0\n")
        cfg = ExperimentConfig(methods=(Method.ME,), N=100, n=10)
        with pytest.raises(DataParseError, match="single column"):
            estimate_file(cfg, str(data))


# Pieces of the fuzzed CSV files: values the row rule accepts and rejects,
# headers, whitespace that csv keeps but str.strip() and float() drop (some
# of it a line break to str.splitlines() but not to a file), NUL, the three
# line ends, and quotes, so that quoted fields span lines or never close.
FUZZ_NUMBERS = (
    "1.5", "-2.25e-3", "0", "7", "nan", "-inf", "Infinity", "1_0", ".5", "1e999",
    "0.1000000000000000055511151231257827",
)
FUZZ_OTHER = ("y", "Y", "abc", "1.0.0", "1\x00", "", '"', '""')
FUZZ_PADS = ("", "", "", "", " ", "\t", "\x0c", "\x85", "\u2028", "\u3000", "\x1c")
FUZZ_ENDS = ("\n", "\n", "\r\n", "\r")


def fuzz_file(rng):
    def pick(choices):
        return choices[rng.integers(len(choices))]

    def value():
        return pick(FUZZ_NUMBERS if rng.random() < 0.85 else FUZZ_OTHER)

    lines = []
    for _ in range(int(rng.integers(1, 8))):
        cell = value()
        if rng.random() < 0.1:
            cell = '"' + cell + (pick(FUZZ_ENDS) + value()) * int(rng.integers(2)) + '"'
        line = pick(FUZZ_PADS) + cell + pick(FUZZ_PADS)
        if rng.random() < 0.1:
            line += "," + pick(("", " ", value()))
        lines.append(line + pick(FUZZ_ENDS))
    if rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def write_bench_csv(path, samples):
    """The benchmark's CSV format: header ``y``, one ``repr`` float per line."""
    with open(path, "w") as fh:
        fh.write("y\n")
        fh.write("\n".join(map(repr, samples.tolist())))
        fh.write("\n")
    return path


def parse_outcome(parse, path):
    try:
        return parse(path).tobytes()
    except DataParseError as exc:
        return str(exc)


class TestReadSampleColumn:
    """The sample reader against the csv row loop in ``oracles``."""

    def check_fuzzed_files(self, path, texts):
        for case, text in enumerate(texts):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                expected = parse_outcome(read_sample_column, path)
            except csv.Error:
                # csv.reader before Python 3.11 rejects NUL characters
                with pytest.raises(DataParseError):
                    harness._read_sample_column(path)
                continue
            assert parse_outcome(harness._read_sample_column, path) == expected, (case, text)

    def test_matches_row_loop_oracle_on_fuzzed_files(self, tmp_path):
        rng = np.random.default_rng(20261018)
        texts = (fuzz_file(rng) for _ in range(2500))
        self.check_fuzzed_files(str(tmp_path / "fuzz.csv"), texts)

    def test_bulk_path_matches_row_loop_oracle_on_quote_free_fuzzed_files(
        self, tmp_path, monkeypatch
    ):
        # without quotes and commas, numpy's C reader takes many of the files;
        # every other file has tabs where the commas were, which the C reader
        # splits into cells
        taken = []
        read_in_bulk = harness._read_in_bulk

        def counted(path):
            values = read_in_bulk(path)
            taken.append(values is not None)
            return values

        monkeypatch.setattr(harness, "_read_in_bulk", counted)
        rng = np.random.default_rng(20261019)
        texts = (
            fuzz_file(rng).replace('"', "").replace(",", "\t" if i % 2 else "")
            for i in range(2500)
        )
        self.check_fuzzed_files(str(tmp_path / "fuzz.csv"), texts)
        assert len(taken) == 2500 and sum(taken) >= 500

    @pytest.mark.parametrize(
        "mark, end", [("", "\n"), ("", "\r\n"), ("", "\r"), ("\ufeff", "\n")],
        ids=["lf", "crlf", "cr", "bom"],
    )
    def test_bench_format_takes_the_bulk_path(self, tmp_path, monkeypatch, mark, end):
        def row_rule(path):
            raise AssertionError("the row rule read the file")

        monkeypatch.setattr(harness, "_read_rows", row_rule)
        y = generate(benchmark_arma(), 2_000, 13).samples
        path = tmp_path / "series.csv"
        text = mark + "y" + end + "".join(repr(v) + end for v in y.tolist())
        path.write_bytes(text.encode("utf-8"))
        assert harness._read_sample_column(str(path)).tobytes() == y.tobytes()

    def test_whitespace_rows_take_the_bulk_path(self, tmp_path, monkeypatch):
        def row_rule(path):
            raise AssertionError("the row rule read the file")

        monkeypatch.setattr(harness, "_read_rows", row_rule)
        y = generate(benchmark_arma(), 2_000, 16).samples
        rows = [repr(v) for v in y.tolist()]
        rows[1500:1500] = [" ", "\t", "\u3000", ""]
        path = tmp_path / "series.csv"
        path.write_text("y\n" + "\n".join(rows) + "\n \n", encoding="utf-8")
        assert harness._read_sample_column(str(path)).tobytes() == y.tobytes()

    def test_fifo_is_read_once(self, tmp_path):
        # np.loadtxt opens a path again, and a FIFO keeps nothing for a
        # second reader; the series is longer than the pipe buffer
        y = generate(benchmark_arma(), 5_000, 15).samples
        path = str(tmp_path / "series.fifo")
        os.mkfifo(path)
        text = "y\n" + "".join(repr(v) + "\n" for v in y.tolist())
        done = threading.Event()

        def write():
            try:
                with open(path, "w") as fh:
                    fh.write(text)
            except BrokenPipeError:
                pass
            # a second reader then reads end-of-file instead of blocking
            while not done.is_set():
                try:
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    time.sleep(0.01)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            outcome = parse_outcome(harness._read_sample_column, path)
        finally:
            done.set()
            writer.join()
        assert outcome == y.tobytes()

    def test_path_object_is_accepted(self, tmp_path):
        y = generate(benchmark_arma(), 200, 17).samples
        path = write_bench_csv(tmp_path / "series.csv", y)
        assert harness._read_sample_column(path).tobytes() == y.tobytes()
        cfg = ExperimentConfig(methods=(Method.ME,), N=100, n=10)
        assert estimate_file(cfg, path)["n_samples"] == 200

    def test_late_bad_row_is_named_as_the_row_rule_names_it(self, tmp_path):
        y = generate(benchmark_arma(), 100_001, 14).samples
        path = write_bench_csv(tmp_path / "series.csv", y)
        with open(path, "a") as fh:
            fh.write("abc\n")
        message = "row 100003: non-numeric value 'abc'"
        assert parse_outcome(read_sample_column, str(path)) == message
        assert parse_outcome(harness._read_sample_column, str(path)) == message

    def test_header_alone_has_no_samples_and_no_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataParseError, match="^no samples found in"):
                harness._read_sample_column(str(path))

    def test_compressed_file_is_read_as_text(self, tmp_path):
        # np.loadtxt would decompress a path ending in .gz
        path = tmp_path / "s.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("y\n1.0\n2.0\n")
        with pytest.raises(DataParseError, match="cannot read '.*s.csv.gz'.*utf-8"):
            harness._read_sample_column(str(path))

    def test_text_file_with_compressed_suffix_parses(self, tmp_path):
        path = tmp_path / "t.gz"
        path.write_text("y\n1.0\n2.0\n")
        np.testing.assert_array_equal(harness._read_sample_column(str(path)), [1.0, 2.0])

    def test_url_shaped_path_is_read_as_a_local_file(self, tmp_path, monkeypatch):
        # np.loadtxt would try to fetch "h://n/s.csv"; no opener exists for
        # scheme "h", so a wrong route fails here without leaving the machine
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h:" / "n").mkdir(parents=True)
        (tmp_path / "h:" / "n" / "s.csv").write_text("y\n1.0\n2.0\n")
        np.testing.assert_array_equal(harness._read_sample_column("h://n/s.csv"), [1.0, 2.0])

    def test_bench_format_round_trips_bitwise(self, tmp_path):
        y = generate(benchmark_arma(), 10_000, 11).samples
        path = write_bench_csv(tmp_path / "series.csv", y)
        got = harness._read_sample_column(str(path))
        assert got.dtype == np.float64
        assert got.tobytes() == y.tobytes()

    def test_number_longer_than_csv_field_limit_accepted(self, tmp_path):
        text = "1." + "0" * (2 * csv.field_size_limit()) + "1"
        path = tmp_path / "long.csv"
        path.write_text(f"y\n{text}\n2.5\n")
        got = harness._read_sample_column(str(path))
        np.testing.assert_array_equal(got, [float(text), 2.5])

    def test_text_longer_than_csv_field_limit_names_row(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("1.0\n" + "x" * (2 * csv.field_size_limit()) + "\n")
        with pytest.raises(DataParseError, match="^row 2: field larger than field limit"):
            harness._read_sample_column(str(path))

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"\xef\xbb\xbfy\n1.0\n2.0\n", [1.0, 2.0]),
            (b"\xef\xbb\xbf1.0\n2.0\n", [1.0, 2.0]),
            (b'\xef\xbb\xbf"Y"\r\n-3e2\r\n', [-300.0]),
            (b"\xef\xbb\xbf\n1.5\n", [1.5]),
        ],
        ids=["header", "number", "quoted-header-crlf", "blank-row"],
    )
    def test_leading_byte_order_mark_ignored(self, tmp_path, data, expected):
        # spreadsheet programs write "CSV UTF-8" with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        got = harness._read_sample_column(str(path))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xef\xbb\xbf\xef\xbb\xbfy\n1.0\n", "row 1: non-numeric value '\\ufeffy'"),
            (b"1.0\n\xef\xbb\xbf2.0\n", "row 2: non-numeric value '\\ufeff2.0'"),
            (b"\xef\xbb\xbfx\n", "row 1: non-numeric value 'x'"),
        ],
        ids=["two-marks", "mark-on-row-2", "mark-before-text"],
    )
    def test_only_one_leading_byte_order_mark_stripped(self, tmp_path, data, message):
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        with pytest.raises(DataParseError) as info:
            harness._read_sample_column(str(path))
        assert str(info.value) == message

    def test_undecodable_file_names_file(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe1\x00.\x005\x00\n\x00")
        cfg = ExperimentConfig(methods=(Method.ME,), N=100, n=10)
        with pytest.raises(DataParseError, match="cannot read '.*utf16.csv'.*utf-8"):
            estimate_file(cfg, str(path))

    def test_parse_memory_is_bounded(self, tmp_path):
        # the array is 1.6 MB; holding every row as a list of cells plus a list
        # of floats, as the csv row loop does, peaks at about 41 MB here
        y = generate(benchmark_arma(), 200_000, 12).samples
        path = write_bench_csv(tmp_path / "series.csv", y)
        tracemalloc.start()
        try:
            got = harness._read_sample_column(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.size == y.size
        assert peak < 30e6


class TestCli:
    def test_import_loads_only_dense_linear_algebra_from_scipy(self):
        # scipy.signal alone pulls in about 530 scipy modules, stats and
        # optimize among them, and more than doubles the start-up time
        src = str(Path(cli.__file__).parents[1])
        code = (
            "import sys, kmaxent.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'signal'], ['scipy', 'optimize'], ['scipy', 'stats'])))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["montecarlo", "--methods", "bogus"])
        assert exc_info.value.code == 1

    def test_missing_subcommand_exit_code(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["estimate", str(tmp_path / "missing.csv")]) == 2

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xff\xfe1.0\n")
        assert cli.main(["estimate", str(data)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_single_success(self, tmp_path, capsys):
        code = cli.main([
            "single", "--methods", "me", "-N", "200", "--n", "10",
            "--seed", "3", "--grid-size", "128", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "spectra.csv").exists()
        assert (tmp_path / "records.csv").exists()
        assert "me: ok" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "methods": "me", "runs": 2, "N": 200, "n": 10, "grid_size": 128,
            "master_seed": 6,
        }))
        out = tmp_path / "out"
        code = cli.main([
            "montecarlo", "--config", str(config), "--runs", "3", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["runs"] == 3
        assert summary["config"]["master_seed"] == 6
        assert summary["methods"]["me"]["count"] == 3

    def test_every_config_field_accepted_from_file(self, tmp_path):
        values = {
            "methods": ["me-tc"], "N": 120, "n": 6, "runs": 2, "master_seed": 9,
            "pole_modulus": 0.9, "zero_modulus": 0.7, "pairs": 2, "max_phase_gap": 0.1,
            "grid_size": 64, "burn_in": 100, "low_order": 2,
            "include_timings": True, "output_path": str(tmp_path / "out"),
        }
        assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        parser = cli._build_parser()
        cfg = cli._load_config(parser.parse_args(["montecarlo", "--config", str(config)]), parser)
        for name, value in values.items():
            expected = (Method.ME_TC,) if name == "methods" else value
            assert getattr(cfg, name) == expected, name

    @pytest.mark.parametrize(
        "content",
        ["5", "null", '{"methods": ["bogus"]}', '{"methods": [1]}', '{"methods": []}',
         '{"N": 1.5}', '{"grid_size": 8.5}', '{"N": true}', '{"refine": 1}',
         '{"output_path": 3}', None],
    )
    def test_bad_config_file_is_a_usage_error(self, tmp_path, capsys, content):
        # None leaves the config file missing
        config = tmp_path / "cfg.json"
        if content is not None:
            config.write_text(content)
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["montecarlo", "--config", str(config), "--runs", "1", "--n", "4"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "kmaxent: error: " in err
        assert ("cannot load config file" in err) == (content is None)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_a_data_error(self, tmp_path, capsys, source):
        args = ["single", "--methods", "me", "-N", "200", "--n", "10", "--grid-size", "32"]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text('{"master_seed": -1}')
            args += ["--config", str(config)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("kmaxent: ") and "master_seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["single", "montecarlo", "estimate"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, flag, value",
        [("n", "--n", 0), ("low_order", "--low-order", -1), ("low_order", "--low-order", 600)],
    )
    def test_bad_order_setting_is_a_data_error(
        self, tmp_path, capsys, command, source, key, flag, value
    ):
        # a bad setting is a data error, not a failure of every record
        args = [command, "--methods", "me,me-tc", "--grid-size", "32"]
        if command != "estimate":
            args += ["-N", "200"]
        if command == "montecarlo":
            args += ["--runs", "2"]
        if command == "estimate":
            data = tmp_path / "data.csv"
            samples = generate(benchmark_arma(), 200, 4).samples.tolist()
            data.write_text("".join(f"{v!r}\n" for v in samples))
            args.insert(1, str(data))
        if source == "flag":
            args += [flag, str(value)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({key: value}))
            args += ["--config", str(config)]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kmaxent: ") and f"{key} must be" in err
        assert "Traceback" not in err

    def test_int_accepted_for_float_config_field(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"max_phase_gap": 0, "output_path": null}')
        parser = cli._build_parser()
        cfg = cli._load_config(parser.parse_args(["montecarlo", "--config", str(config)]), parser)
        assert cfg.max_phase_gap == 0 and cfg.output_path is None

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # a config file may set only what the command's own flags set
        config = tmp_path / "cfg.json"
        data = tmp_path / "data.csv"
        for args, loaded in (
            (["single"], {"bogus_key": 1}),
            (["estimate", str(data)], {"N": 500}),
            (["single"], {"runs": 2}),
        ):
            config.write_text(json.dumps(loaded))
            with pytest.raises(SystemExit) as exc_info:
                cli.main(args + ["--config", str(config)])
            assert exc_info.value.code == 1
            assert "unknown config keys" in capsys.readouterr().err

    def test_excessive_failures_exit_code(self, monkeypatch, tmp_path, capsys):
        def always_fail(y, n, family, config):
            raise KmaxentError("forced failure")

        monkeypatch.setattr(harness, "run_pem_pipeline", always_fail)
        code = cli.main([
            "montecarlo", "--methods", "me,pem-di", "--runs", "2", "-N", "200",
            "--n", "10", "--grid-size", "128", "--seed", "1",
            "--out", str(tmp_path),
        ])
        assert code == 3

    def test_estimate_success(self, tmp_path, capsys):
        y = generate(benchmark_arma(), 150, 4)
        data = tmp_path / "data.csv"
        with open(data, "w") as fh:
            fh.write("y\n")
            for v in y.samples:
                fh.write(f"{float(v)!r}\n")
        code = cli.main([
            "estimate", str(data), "--methods", "me", "--n", "10",
            "--grid-size", "128", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        document = json.loads((tmp_path / "out" / "result.json").read_text())
        assert document["n_samples"] == 150
        assert "me" in document["methods"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_estimate_checks_the_order_against_the_file_length(self, tmp_path, capsys, source):
        # estimate's N is its file's sample count, not the default
        data = write_bench_csv(tmp_path / "data.csv", generate(benchmark_arma(), 20_000, 2).samples)
        args = ["estimate", str(data), "--methods", "me", "--grid-size", "256"]
        if source == "flag":
            args += ["--n", "600"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text('{"n": 600, "low_order": 550}')
            args += ["--config", str(config)]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 0
        document = json.loads((tmp_path / "out" / "result.json").read_text())
        assert document["n_samples"] == 20_000 and document["n"] == 600
        assert document["methods"]["me"]["error"] is None
        capsys.readouterr()
        assert cli.main(args + ["--n", "20000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kmaxent: ") and "N=20000" in err

    @pytest.mark.parametrize(
        "removed",
        ["single --no-refine", "montecarlo --no-refine", "estimate --no-refine",
         "estimate --seed 1", "estimate -N 100", "estimate --n-samples 100",
         "estimate --burn-in 10", "estimate --timings"],
    )
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, removed):
        command, *flag = removed.split()
        args = [command] + ([str(tmp_path / "data.csv")] if command == "estimate" else [])
        with pytest.raises(SystemExit) as exc_info:
            cli.main(args + flag)
        assert exc_info.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
