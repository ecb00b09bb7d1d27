"""In-memory span tracing of kmaxent, applied from outside the package.

The package modules import each other's functions by name (``from .covariance
import estimate_lags``), so a function is looked up in the namespace of the
module that calls it. :meth:`Tracer.install` therefore replaces every binding
of a traced function in every package module: ``hyperopt.estimate_lags``,
``estimators.estimate_lags`` and ``covariance.estimate_lags`` all become the
same wrapper, and each call records one span. Kernel builders are traced only
at their call sites outside ``kernels``, so the internal helpers they call do
not show as separate calls. ``evaluate`` methods of hyperparameter objectives
are traced through the class of whatever object reaches
``optimize_hyperparameters``.

A span is ``[name, start, end, parent, series, info]``: perf_counter times in
seconds, the index of the enclosing span (-1 at the root), the series id set
by the caller and a small dict taken from the call's arguments or result.
"""

from __future__ import annotations

import functools
import json
import time

NAME, START, END, PARENT, SERIES, INFO = range(6)

# (layer module, function, also traced for calls inside its own module)
TRACED = (
    ("covariance", "estimate_lags", True),
    ("covariance", "build_toeplitz", True),
    ("covariance", "cholesky", True),
    ("kernels", "kernel_matrix", False),
    ("kernels", "trailing_block_root", False),
    ("kernels", "scaled_inverse_R", False),
    ("kernels", "_scaled_inverse", False),
    ("estimators", "me_bic", True),
    ("estimators", "preliminary_b0", True),
    ("estimators", "build_whittle_design", True),
    ("estimators", "kernel_me", True),
    ("estimators", "kernel_pem", True),
    ("estimators", "check_min_phase", True),
    ("diagnostics", "degrees_of_freedom", True),
    ("diagnostics", "shrinkage_df", True),
    ("hyperopt", "optimize_hyperparameters", True),
    ("hyperopt", "run_pipeline", True),
    ("hyperopt", "run_pem_pipeline", True),
    ("simulate", "generate", True),
    ("simulate", "random_arma", True),
    ("simulate", "eval_spectrum", True),
    ("simulate", "reconstruction_error", True),
    ("harness", "fit_method", True),
    ("harness", "run_monte_carlo", True),
    ("harness", "estimate_file", True),
    ("harness", "summarize", True),
    ("harness", "write_records", True),
    ("harness", "_write_spectra", True),
)

EVALUATE = "hyperopt.evaluate"


def _grid_points(config) -> int:
    """Number of points of the exhaustive (log10 lambda, beta) grid."""

    def count(lo, hi, step):
        if hi == lo or step <= 0:
            return 1
        return int(round((hi - lo) / step)) + 1

    return count(
        config.log10_lambda_min, config.log10_lambda_max, config.log10_lambda_step
    ) * count(config.beta_min, config.beta_max, config.beta_step)


def _on_edge(eta, config) -> bool:
    """True when (lambda, beta) lies on or outside the grid box."""
    lo, hi = 10.0**config.log10_lambda_min, 10.0**config.log10_lambda_max
    rel = 1e-9
    return not (
        lo * (1 + rel) < eta.lam < hi * (1 - rel)
        and config.beta_min + rel < eta.beta < config.beta_max - rel
    )


def _search_info(args, kwargs, result, default_config):
    config = kwargs.get("config", args[1] if len(args) > 1 else default_config)
    trace = getattr(result, "trace", ())
    return {
        "grid": min(_grid_points(config), len(trace)),
        "trace": len(trace),
        "evaluations": int(getattr(result, "evaluations", len(trace))),
        "edge": _on_edge(result.eta_hat, config),
    }


def _cholesky_info(args, kwargs, result):
    return {"jitter": float(result.jitter)}


def _fit_info(args, kwargs, result):
    return {"method": str(getattr(args[0], "value", args[0]))}


class Tracer:
    """Records spans for the package functions while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.series = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        hyperopt = package["hyperopt"]
        default_config = hyperopt.PipelineConfig()
        self._info = {
            "hyperopt.optimize_hyperparameters": lambda a, k, r: _search_info(
                a, k, r, default_config
            ),
            "covariance.cholesky": _cholesky_info,
        }
        self._info_at_call = {"harness.fit_method": _fit_info}

    def _wrap(self, name, fn, before=None):
        info_after = self._info.get(name)
        info_at_call = self._info_at_call.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.series, None]
            if info_at_call is not None:
                span[INFO] = info_at_call(args, kwargs, None)
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = dict(span[INFO] or {}, error=type(exc).__name__)
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info_after is not None:
                span[INFO] = info_after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _trace_objective(self, args):
        """Trace ``evaluate`` of the objective's class on first sight."""
        cls = type(args[0])
        if "evaluate" not in vars(cls) or any(
            owner is cls for owner, attr, _ in self._patched if attr == "evaluate"
        ):
            return
        self._patch(cls, "evaluate", self._wrap(EVALUATE, vars(cls)["evaluate"]))

    def install(self) -> None:
        """Replace every binding of each traced function with its wrapper."""
        for layer, fname, internal in TRACED:
            home = self.package[layer]
            original = getattr(home, fname, None)
            if original is None:
                continue
            name = f"{layer}.{fname}"
            before = self._trace_objective if fname == "optimize_hyperparameters" else None
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, original, before)
            wrapper = self._wrappers[name]
            for module in self.package.values():
                if module is home and not internal:
                    continue
                if getattr(module, fname, None) is original:
                    self._patch(module, fname, wrapper)

    def uninstall(self) -> None:
        """Restore every binding replaced by :meth:`install`."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START] - origin,
                            "end": s[END] - origin,
                            "parent": s[PARENT],
                            "series": s[SERIES],
                            "info": s[INFO],
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def check_tree(spans) -> list[str]:
    """Problems with the span tree: children outside parents, negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} ends before it starts")
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if not (p < i and parent[START] <= s[START] and s[END] <= parent[END]):
                problems.append(f"span {i} {s[NAME]} lies outside parent {p} {parent[NAME]}")
    for i, own in enumerate(self_times(spans)):
        if own < 0:
            problems.append(f"span {i} {spans[i][NAME]} has negative self time {own}")
    return problems
