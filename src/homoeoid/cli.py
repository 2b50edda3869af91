"""Command-line front end: seeded experiments with CSV/JSON artifacts.

Each experiment maps a :class:`RunConfig` to a table of rows (the CSV header
is the first row's keys), metrics and the :class:`Gate` list its pass flag
rests on, written as ``results.csv`` and ``summary.json`` (which records each
gate's measured value and its margin to the bound) under
``<out>/<experiment>-seed<seed>/``.  An experiment's keyword-only
parameters declare every input it reads: ``deltas``, ``samples`` and ``p``
come only from ``--delta-grid``, ``--samples`` and ``--p``, the others only
from overrides.  Every override is a repetition count, a whole number of at
least 1; the model's constants (the opening constant ``knapp.OPENING``, the
offsets of ``bands``, the shell width of ``clusters``) are fixed where they
are read.
CSV bodies are a pure function of the configuration — floats are serialised
with ``repr`` and all Monte-Carlo reductions are order-fixed — so re-running
a configuration (under any ``HOMOEOID_THREADS`` setting) reproduces the bytes
exactly; timestamps and the worker count live only in the summary.  The JSON
artifacts are strict: a non-finite float is written as the string ``"inf"``,
``"-inf"`` or ``"nan"``, its ``repr`` in the CSV.  Exit codes: 0 every gate
holds, 1 a gate failed, 2 the configuration was invalid (an unknown or
mistyped override, a ``--delta-grid``, ``--samples`` or ``--p`` that the
experiment does not declare, a ``--samples`` below the experiment's floor, or
a non-finite ``p`` or delta) or artifacts could not be written.  Every artifact
is written to a temporary file and renamed into place.

``report`` merges the summaries under an output directory into a single
``report.json`` (ordered by experiment then seed, corrupt or incomplete runs
skipped with a warning count) and one ``report-<experiment>.csv`` per
experiment with a leading seed column, so external plotting needs no per-run
parsing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import json
import math
import operator
import os
import sys
import uuid
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .fibres import trace_fibre
from .identities import contact_jacobian_check, identity_suite, nondeg_bounds_scan
from .knapp import (
    OPENING,
    critical_exponent,
    dyadic_block_slope,
    g_lp_norm,
    knapp_exponent,
    sample_tangency_set,
    shell_partial_sums,
)
from .maximal import bump_mixture_family, l2_growth_scan
from .mc import derive_stream, fit_power_law, rng_stream, worker_count
from .multiplicity import multiplicity_scan
from .volumes import (
    banded_intersection_scan,
    low_jacobian_cluster,
    seeded_cluster_configs,
    sphere_area,
    volume_bound_scan,
)

__all__ = ["Gate", "RunConfig", "RunResult", "run_experiment", "emit_report", "main"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Inputs an experiment is a deterministic function of.  ``deltas``,
    ``samples`` and ``p`` are ``None`` unless given; a given one must be a
    keyword that the experiment declares."""

    experiment: str
    n: int = 3
    seed: int = 0
    deltas: Optional[tuple] = None
    samples: Optional[int] = None
    p: Optional[float] = None
    out: str = "runs"
    overrides: tuple = ()

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.p is not None and not math.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p}")
        if self.deltas is not None:
            ds = tuple(float(d) for d in self.deltas)
            if not ds:
                raise ValueError("empty delta grid")
            if not all(math.isfinite(d) for d in ds):
                raise ValueError(f"delta grid must be finite, got {list(ds)}")
            if any(b >= a for a, b in zip(ds, ds[1:])):
                raise ValueError("delta grid must be strictly decreasing")
            object.__setattr__(self, "deltas", ds)
        if self.samples is not None and self.samples <= 0:
            raise ValueError(f"samples must be positive, got {self.samples}")
        object.__setattr__(self, "overrides", tuple(self.overrides))
        dict(self.overrides)


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclasses.dataclass(frozen=True)
class Gate:
    """A threshold the pass flag rests on: ``metrics[metric] op bound``.

    ``op`` is one of ``<``, ``<=``, ``>``, ``>=``, ``==``; a NaN measurement
    fails every comparison.
    """

    metric: str
    op: str
    bound: float | bool

    def holds(self, metrics: dict) -> bool:
        return bool(_OPS[self.op](metrics[self.metric], self.bound))

    def margin(self, metrics: dict) -> float | None:
        """Signed distance from the measured value to the bound, positive on
        the passing side; ``None`` for ``==`` and a non-finite measurement."""
        measured = metrics[self.metric]
        if self.op == "==" or not math.isfinite(measured):
            return None
        return float(self.bound - measured if self.op[0] == "<" else measured - self.bound)


@dataclasses.dataclass(frozen=True)
class RunResult:
    """An experiment's rows (at least one; the CSV header is the first row's
    keys, in order), metrics and gates; it passes when every gate holds."""

    rows: tuple
    metrics: dict
    gates: tuple

    @property
    def passed(self) -> bool:
        return all(g.holds(self.metrics) for g in self.gates)


def _count_override(key: str, raw) -> int:
    """``raw`` as a repetition count: a whole number of at least 1."""
    if not float(raw).is_integer():
        raise ValueError(f"override {key} must be an integer, got {raw!r}")
    value = int(raw)
    if value < 1:
        raise ValueError(f"override {key} must be at least 1, got {value}")
    return value


def _drift(values: Sequence[float]) -> float:
    lo, hi = min(values), max(values)
    return math.inf if lo <= 0 else hi / lo


# --------------------------------------------------------------------------
# experiments


def _exp_identities(config: RunConfig, *, samples=1000, rational_trials=50) -> RunResult:
    # (mode, reports, threshold written to the CSV: None keeps the report's)
    suites = [("float", identity_suite(config.n, samples, seed=config.seed), None)]
    if config.n <= 4:
        rational = identity_suite(
            config.n, min(samples, rational_trials), seed=config.seed, rational=True
        )
        suites.append(("rational", rational, 0.0))
    rows = []
    worst = {}
    for mode, reports, threshold in suites:
        worst[mode] = 0.0
        for report in reports:
            worst[mode] = max(worst[mode], report.max_relative_residual)
            rows.append(
                {
                    "mode": mode,
                    "name": report.name,
                    "trials": report.trials,
                    "max_relative_residual": report.max_relative_residual,
                    "threshold": report.threshold if threshold is None else threshold,
                }
            )
    metrics = {"max_relative_residual": worst["float"], "rational_residual": worst.get("rational")}
    gates = [Gate("max_relative_residual", "<", 1e-9)]
    if "rational" in worst:
        gates.append(Gate("rational_residual", "==", 0.0))
    return RunResult(tuple(rows), metrics, tuple(gates))


def _exp_nondeg(config: RunConfig, *, generic_per_n=20, bound_trials=300) -> RunResult:
    n_list = tuple(range(2, max(config.n, 3) + 1))
    report = contact_jacobian_check(n_list=n_list, seed=config.seed, generic_per_n=generic_per_n)
    columns = (
        "isotropic_measured", "isotropic_closed_form", "isotropic_spread",
        "det_at_three_halves", "alternate_ratio", "variant_diagonal_max_gap",
    )
    rows = [{"n": n, **{c: report.details[n][c] for c in columns}} for n in n_list]
    min_abs_det = min(abs(row["det_at_three_halves"]) for row in rows)
    scan = nondeg_bounds_scan(config.n, trials=bound_trials, seed=config.seed)
    metrics = {
        "max_relative_residual": report.max_relative_residual,
        "min_abs_det_at_three_halves": min_abs_det,
        "min_scaled_determinant": scan.min_scaled_determinant,
        "max_scaled_inverse_norm": scan.max_scaled_inverse_norm,
        "bound_accepted": scan.accepted,
        "bound_requested": scan.requested,
        "max_scaled_minor": scan.max_scaled_minor,
    }
    gates = (
        Gate("max_relative_residual", "<=", report.threshold),
        Gate("min_abs_det_at_three_halves", ">", 0.01),
        Gate("min_scaled_determinant", ">", 0.0),
    )
    return RunResult(tuple(rows), metrics, gates)


def _exp_volume_bound(
    config: RunConfig, *, deltas=tuple(2.0**-k for k in range(5, 10)), samples=20_000, pairs=10
) -> RunResult:
    ts = (2.0**-4, 2.0**-3, 2.0**-2, 2.0**-1, 1.0)
    rows = volume_bound_scan(
        deltas=deltas, ts=ts, pairs=pairs, m=samples, seed=config.seed, n=config.n
    )
    drawn = sum(row.pop("drawn") for row in rows)  # a diagnostic, not a CSV column
    worst = {d: max(r["ratio"] for r in rows if r["delta"] == d) for d in deltas}
    metrics = {
        "worst_ratio_per_delta": worst,
        "drift": _drift(list(worst.values())),
        "shell_points_drawn": drawn,
    }
    return RunResult(tuple(rows), metrics, (Gate("drift", "<=", 4.0),))


def _exp_bands(
    config: RunConfig, *, deltas=(2.0**-5, 2.0**-6, 2.0**-7), samples=1 << 16
) -> RunResult:
    if samples < 2:
        raise ValueError(f"bands needs samples >= 2 to measure a standard error, got {samples}")
    rows = []
    worst_z = 0.0
    per_delta_max = {}
    for delta in deltas:
        for t in (0.5, 1.0):
            rng = rng_stream(config.seed, derive_stream("bands-radii", delta, t))
            radii = 0.8 + 0.5 * rng.random(config.n)
            band = banded_intersection_scan(
                axis=0, t=t, radii=radii, delta=delta, m=samples, seed=config.seed
            )
            envelope = delta * delta / t
            parts = [("tang", band.tang)] + [
                (f"band_{i}", est) for i, est in enumerate(band.bands)
            ] + [("trans", band.trans), ("total", band.total)]
            for name, est in parts:
                ratio = est.value / envelope
                rows.append(
                    {
                        "delta": delta,
                        "t": t,
                        "part": name,
                        "value": est.value,
                        "std_error": est.std_error,
                        "bound": envelope,
                        "ratio": ratio,
                    }
                )
                if name != "total":
                    per_delta_max[delta] = max(per_delta_max.get(delta, 0.0), ratio)
            combined = math.hypot(band.parts_std_error, band.total.std_error)
            gap = abs(band.parts_sum - band.total.value)
            z = gap / combined if combined > 0 else (math.inf if gap > 0 else 0.0)
            worst_z = max(worst_z, z)
    metrics = {
        "worst_partition_z": worst_z,
        "max_part_ratio_per_delta": per_delta_max,
        "drift": _drift(list(per_delta_max.values())),
    }
    gates = (Gate("worst_partition_z", "<=", 3.0), Gate("drift", "<=", 4.0))
    return RunResult(tuple(rows), metrics, gates)


def _exp_clusters(config: RunConfig, *, samples=1 << 20, configs=20) -> RunResult:
    if config.n != 3:
        raise ValueError("the clusters experiment is specific to n=3")
    rows = []
    max_count = 0
    constants = {}
    empty = {}
    drawn = 0
    for factor in (1.0, 0.5):
        worst = 0.0
        empty[factor] = 0
        for i, (t, radii) in enumerate(seeded_cluster_configs(config.seed, configs)):
            rho = factor * t / 16.0
            report = low_jacobian_cluster(
                axis=0,
                t=t,
                radii=radii,
                rho=rho,
                delta=2.0**-9,
                m=samples,
                seed=derive_stream("cluster-run", config.seed, i),
            )
            max_diam = max(report.diameters) if report.diameters else 0.0
            max_count = max(max_count, report.cluster_count)
            empty[factor] += report.empty
            drawn += report.drawn
            worst = max(worst, max_diam * t / rho)
            rows.append(
                {
                    "config": i,
                    "t": t,
                    "rho": rho,
                    "accepted": report.accepted,
                    "cluster_count": report.cluster_count,
                    "max_diameter": max_diam,
                    "scaled_diameter": max_diam * t / rho,
                }
            )
        constants[factor] = worst
    lo, hi = min(constants.values()), max(constants.values())
    # no accepted point at either radius measures no diameter: nan fails the gate
    halving = hi / lo if lo > 0 else (math.inf if hi > 0 else math.nan)
    metrics = {
        "max_cluster_count": max_count,
        "diameter_constant": constants[1.0],
        "halved_constant": constants[0.5],
        "halving_ratio": halving,
        "empty_reports_per_factor": empty,
        "shell_points_drawn": drawn,
    }
    gates = (Gate("max_cluster_count", "<=", 16), Gate("halving_ratio", "<=", 2.0))
    return RunResult(tuple(rows), metrics, gates)


def _fibre_config(seed: int, trial: int, n: int):
    """A seeded level-set configuration whose fibre is non-empty, and the
    radius of the ball its length is measured in, drawn after it."""

    for attempt in range(25):
        rng = rng_stream(seed, derive_stream("fibre-accept", trial, attempt))
        x = rng.uniform(-0.2, 0.2, n)
        radii = rng.uniform(0.9, 1.35, n)
        levels = rng.uniform(-0.05, 0.05, 2)
        rho = float(rng.uniform(0.1, 0.4))
        try:
            return trace_fibre(x, radii, levels, step=0.01, seed=trial), rho
        except ValueError:
            continue
    raise ValueError("could not find a non-empty fibre configuration")


def _exp_fibre(config: RunConfig, *, trials=12) -> RunResult:
    if config.n != 3:
        raise ValueError("fibre tracing is implemented for dimension 3")
    calibration = trace_fibre(np.zeros(3), np.array([1.2, 1.0, 1.0]), np.zeros(2), step=0.01, seed=3)
    rows = []
    for trial in range(trials):
        trace, rho = _fibre_config(config.seed, trial, config.n)
        length = trace.length_in_ball(trace.points[trace.points.shape[0] // 3], rho)
        rows.append({"seed": trial, "rho": rho, "length": length, "ratio": length / rho})
    ratios = [row["ratio"] for row in rows]
    metrics = {
        "calibration_length": calibration.length,
        "calibration_gap": abs(calibration.length - 2.0 * math.pi),
        "ratio_drift": _drift(ratios),
        "max_ratio": max(ratios),
    }
    gates = (Gate("calibration_gap", "<=", 1e-6), Gate("ratio_drift", "<=", 4.0))
    return RunResult(tuple(rows), metrics, gates)


def _exp_multiplicity(
    config: RunConfig, *, deltas=tuple(2.0**-k for k in range(4, 9)), samples=4096, trials=3
) -> RunResult:
    if samples < 64:
        raise ValueError(f"multiplicity needs samples >= 64 for a pair batch, got {samples}")
    scan = multiplicity_scan(0, deltas, trials=trials, m=samples, seed=config.seed, n=config.n)
    metrics = {
        "worst_refined": scan.worst,
        "worst_plain": scan.worst_plain,
        "drift": _drift(list(scan.worst.values())),
        "pair_samples_drawn": scan.drawn,
    }
    return RunResult(scan.rows, metrics, (Gate("drift", "<=", 4.0),))


def _exp_l2_growth(
    config: RunConfig, *, deltas=tuple(2.0**-k for k in range(4, 9)), samples=512,
    family_size=2, x_samples=16,
) -> RunResult:
    family = bump_mixture_family(config.n, components=6, seed=config.seed)
    region = (np.full(config.n, -0.5), np.full(config.n, 0.5))
    scan = l2_growth_scan(
        family,
        deltas,
        x_region=region,
        family_size=family_size,
        x_samples=x_samples,
        m=samples,
        seed=config.seed,
    )
    metrics = {"slope": scan.fit.slope, "intercept": scan.fit.intercept}
    return RunResult(tuple(scan.rows), metrics, (Gate("slope", "<=", 0.15),))


def _exp_knapp_exponent(
    config: RunConfig, *, deltas=tuple(2.0**-k for k in range(4, 11)), samples=8192, p=2.0,
    m_x=64,
) -> RunResult:
    if samples < 2:
        raise ValueError(f"knapp-exponent needs samples >= 2 per shell average, got {samples}")
    scan = knapp_exponent(deltas, p, m_x=m_x, m_s=samples, seed=config.seed, n=config.n)
    n = config.n
    # in one fraction: exactly -1/3, 0 and 1/3 at n = 3, p = 3/2, 2 and 3
    expected = ((n - 1) * p - (n + 1)) / (2.0 * p)
    tol = 0.05 if abs(p - critical_exponent(n)) < 1e-12 else 0.1
    # a width whose ratio is 0 leaves no power law to fit: a measured failure
    slope = math.nan if scan.fit is None else scan.fit.slope
    metrics = {"slope": slope, "p": p, "fitted": scan.fit is not None}
    metrics.update(expected_slope=expected, tolerance=tol, slope_gap=abs(slope - expected))
    gates = (Gate("fitted", "==", True), Gate("slope_gap", "<=", tol))
    return RunResult(tuple(scan.rows), metrics, gates)


def _radial_norm_oracle(n: int) -> float:
    """Midpoint-rule radial quadrature for the profile's L^{p_c(n)} norm.

    Substituting ``u = log2(1/|x'|)`` flattens the integrand of ``g**p_c``
    into ``u^(-n/(n-1))`` on ``[1, inf)``; a fine midpoint rule on ``[1, 1e4]``
    plus the exact power-law tail gives an oracle independent of the
    windowed-quadrature route.
    """

    beta = n / (n - 1.0)
    u_max = 1e4
    grid = np.linspace(1.0, u_max, 1_000_001)
    step = grid[1] - grid[0]
    mids = np.add(grid[1:], grid[:-1])
    del grid  # one grid-sized array at a time
    mids *= 0.5
    integral = float(np.sum(np.power(mids, -beta, out=mids)) * step)
    integral += u_max ** (1.0 - beta) / (beta - 1.0)
    area = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    return (2.0 * OPENING * area * math.log(2.0) * integral) ** (1.0 / critical_exponent(n))


def _dyadic_partial_sums(series) -> tuple:
    sums = series.partial_sums
    errors = series.partial_sum_errors
    exponents = range(2, int(math.log2(len(series))) + 1)
    return tuple((2**j, sums[2**j - 1], errors[2**j - 1]) for j in exponents)


# the top-window fit needs three dyadic partial sums counted from S_4
_MIN_SHELLS = 16


def _exp_divergence(config: RunConfig, *, samples=256, L=4096) -> RunResult:
    if L < _MIN_SHELLS:
        raise ValueError(f"L must be at least {_MIN_SHELLS} shells, got {L}")
    xs, rs = sample_tangency_set(1, seed=config.seed, n=config.n)
    series = shell_partial_sums(xs[0], rs[0], L, samples, seed=config.seed)
    dyadic = _dyadic_partial_sums(series)
    top = dyadic[-3:]
    fit = fit_power_law([row[0] for row in top], [row[1] for row in top])
    block_fit = dyadic_block_slope(series.partial_sums)
    offset_slope = _offset_power_fit(dyadic)
    # the l2_* keys hold the L^{p_c(n)} norm, the L^2 norm at n = 3
    l2 = g_lp_norm(critical_exponent(config.n), n=config.n)
    oracle = _radial_norm_oracle(config.n)
    divergent = math.isinf(g_lp_norm(2.5, n=config.n))
    sums = series.partial_sums
    errors = series.partial_sum_errors
    rows = tuple(
        {
            "shell": ell + 1,
            "term": series.terms[ell],
            "std_error": series.std_errors[ell],
            "partial_sum": sums[ell],
            "partial_sum_error": errors[ell],
        }
        for ell in range(len(series))
    )
    metrics = {
        "slope_dyadic_blocks": block_fit.slope,
        "slope_top_window": fit.slope,
        "slope_offset_fit": offset_slope,
        "l2_norm": l2,
        "l2_oracle": oracle,
        "l2_relative_gap": abs(l2 - oracle) / oracle,
        "divergent_at_2_5": divergent,
        "low_confidence_shells": int(np.count_nonzero(series.low_confidence)),
        "min_survivors": int(np.min(series.survivors)),
        "max_normal_extent": float(np.max(series.normal_extent)),
    }
    growth = 1.0 / (config.n + 1)  # the series grows like L**(1/(n+1))
    gates = (
        Gate("slope_dyadic_blocks", ">=", growth - 0.05),
        Gate("slope_dyadic_blocks", "<=", growth + 0.05),
        Gate("l2_relative_gap", "<=", 0.01),
        Gate("divergent_at_2_5", "==", 2.5 > critical_exponent(config.n)),
    )
    return RunResult(rows, metrics, gates)


def _offset_power_fit(dyadic: tuple) -> Optional[float]:
    """Growth exponent of ``a * L**b + c`` fitted to the dyadic sums.

    ``None`` when there are no more sums than the three parameters (the fit
    would interpolate them, and its exponent would mean nothing) or when the
    fit does not converge.
    """

    if len(dyadic) <= 3:
        return None
    from scipy.optimize import curve_fit

    ls = np.array([row[0] for row in dyadic], dtype=float)
    ss = np.array([row[1] for row in dyadic])
    try:
        params, _ = curve_fit(
            lambda L, a, b, c: a * np.power(L, b) + c,
            ls,
            ss,
            p0=[1.0, 0.25, -1.0],
            maxfev=20_000,
        )
    except RuntimeError:
        return None
    return float(params[1])


def _exp_glpnorm(config: RunConfig, *, p=2.0) -> RunResult:
    norm = g_lp_norm(p, n=config.n)
    finite = math.isfinite(norm)
    rows = ({"p": p, "norm": norm, "finite": finite},)
    metrics = {"p": p, "norm": norm, "finite": finite}
    gates = ()
    n, p_c = config.n, critical_exponent(config.n)
    if abs(p - p_c) < 1e-12:
        # at p_c the radial integral of u**(-n/(n-1)) over [1, inf) is n - 1
        exact = (2 * (n - 1) * OPENING * sphere_area(n - 1) * math.log(2.0)) ** (1.0 / p_c)
        metrics["exact"] = exact
        metrics["gap"] = abs(norm - exact)
        gates = (Gate("gap", "<=", 0.01 * exact),)
    return RunResult(rows, metrics, gates)


def _exp_explore_unrefined(
    config: RunConfig, *, deltas=(2.0**-5, 2.0**-6), samples=1 << 16, pairs=12
) -> RunResult:
    """Search for plain-shell pairs that overflow the refined envelope.

    Exploratory by design: removing the axis refinement allows internal
    near-tangencies whose intersections exceed ``log(1/delta) *
    delta^2 / (delta + t)``; this scan documents how large the ratio gets but
    declares no gate, so it always passes.
    """

    rows = []
    for delta in deltas:
        ts = (delta / 2.0, delta, 4.0 * delta, 2.0**-4, 2.0**-2)
        rows += volume_bound_scan(
            deltas=(delta,), ts=ts, pairs=pairs, m=samples, seed=config.seed, n=config.n,
            refined=False,
        )
    drawn = sum(row.pop("drawn") for row in rows)  # a diagnostic, not a CSV column
    rows.sort(key=lambda r: (-r["ratio"], r["delta"], r["t"], r["seed"]))
    metrics = {"max_ratio": rows[0]["ratio"], "exploratory": True, "shell_points_drawn": drawn}
    return RunResult(tuple(rows), metrics, ())


EXPERIMENTS: dict = {
    "identities": _exp_identities,
    "nondeg": _exp_nondeg,
    "volume-bound": _exp_volume_bound,
    "bands": _exp_bands,
    "clusters": _exp_clusters,
    "fibre": _exp_fibre,
    "multiplicity": _exp_multiplicity,
    "l2-growth": _exp_l2_growth,
    "knapp-exponent": _exp_knapp_exponent,
    "divergence": _exp_divergence,
    "glpnorm": _exp_glpnorm,
    "explore-unrefined": _exp_explore_unrefined,
}


# the RunConfig fields an experiment takes only by declaring them, and their flags
_INPUTS = {"deltas": "--delta-grid", "samples": "--samples", "p": "--p"}


def run_experiment(config: RunConfig) -> RunResult:
    """Run ``config``'s experiment.  Each set ``deltas``, ``samples`` or ``p``
    is passed as the keyword of that name, which the experiment must declare;
    each override as the keyword it names, a repetition count.  An
    undeclared input or an unknown override raises ``ValueError`` before any
    work."""
    experiment = EXPERIMENTS[config.experiment]
    declared = experiment.__kwdefaults__ or {}
    kwargs = {}
    for key, flag in _INPUTS.items():
        if getattr(config, key) is not None:
            if key not in declared:
                raise ValueError(f"{config.experiment} takes no {flag}")
            kwargs[key] = getattr(config, key)
    given = dict(config.overrides)
    overridable = [key for key in declared if key not in _INPUTS and key in given]
    kwargs.update((key, _count_override(key, given.pop(key))) for key in overridable)
    if given:
        raise ValueError(f"unknown overrides: {sorted(given)}")
    return experiment(config, **kwargs)


# --------------------------------------------------------------------------
# artifacts


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def _atomic_open(path: Path, newline: Optional[str] = None):
    """Text handle on a temporary file beside ``path``, renamed onto it on
    success and removed on failure, so ``path`` is never left half-written."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        # strict JSON has no inf or nan: spell them as the CSV cells do
        return value if math.isfinite(value) else repr(value)
    return value


def write_artifacts(config: RunConfig, result: RunResult) -> Path:
    run_dir = Path(config.out) / f"{config.experiment}-seed{config.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    columns = tuple(result.rows[0])
    _write_csv(run_dir / "results.csv", columns, result.rows)
    summary = {
        "experiment": config.experiment,
        "seed": config.seed,
        "config": _json_safe(dataclasses.asdict(config)),
        "columns": list(columns),
        "rows_written": len(result.rows),
        "metrics": _json_safe(result.metrics),
        "gates": [
            {
                **dataclasses.asdict(g),
                "measured": _json_safe(result.metrics[g.metric]),
                "margin": g.margin(result.metrics),
                "pass": g.holds(result.metrics),
            }
            for g in result.gates
        ],
        "pass": bool(result.passed),
        "version": __version__,
        "workers": worker_count(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with _atomic_open(run_dir / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return run_dir


def emit_report(directory: Path) -> tuple[dict, int]:
    """Merge run artifacts under ``directory`` into a consolidated report.

    Returns the report dictionary and the number of skipped (corrupt or
    incomplete) entries; raises ``ValueError`` when no artifact loads.
    """

    directory = Path(directory)
    entries = []
    warnings = 0
    candidates = sorted(p for p in directory.iterdir() if p.is_dir())
    for sub in candidates:
        summary_path = sub / "summary.json"
        if not summary_path.exists():
            continue
        try:
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            key = (str(summary["experiment"]), int(summary["seed"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            print(f"warning: skipping {summary_path}: {exc}", file=sys.stderr)
            warnings += 1
            continue
        if not (sub / "results.csv").is_file():
            print(f"warning: skipping {sub}: no results.csv", file=sys.stderr)
            warnings += 1
            continue
        entries.append((key, sub, summary))
    if not entries:
        raise ValueError(f"no run artifacts found under {directory}")
    entries.sort(key=lambda item: item[0])
    report = {
        "version": __version__,
        "warnings": warnings,
        "runs": [_json_safe(summary) for _, _, summary in entries],
    }
    # every run is read before any artifact is replaced, so a run that fails
    # to read leaves the previous report and merged CSVs as they were
    merged: dict = {}
    for (experiment, seed), sub, _ in entries:
        with open(sub / "results.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{sub / 'results.csv'} is empty")
            rows = merged.setdefault(experiment, [["seed"] + header])
            rows.extend([str(seed)] + row for row in reader)
    with _atomic_open(directory / "report.json") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for experiment, rows in merged.items():
        with _atomic_open(directory / f"report-{experiment}.csv", newline="") as out:
            csv.writer(out, lineterminator="\n").writerows(rows)
    return report, warnings


# --------------------------------------------------------------------------
# argument handling


def _parse_overrides(pairs: Sequence[str]) -> tuple:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(f"override {pair!r} has a non-numeric value") from exc
        out.append((key.strip(), value))
    return tuple(out)


def _parse_delta_grid(raw: Optional[str]) -> Optional[tuple]:
    if raw is None:
        return None
    values = {float(tok) for tok in raw.split(",") if tok.strip()}
    return tuple(sorted(values, reverse=True))


def _parse_p(raw: str) -> float:
    """``--p`` as a float or an exact fraction: ``5/3`` is p_c(4) bit for bit."""
    with contextlib.suppress(ValueError):
        return float(raw)
    try:
        return float(Fraction(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"p must be a number or a fraction, got {raw!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homoeoid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named experiment and write artifacts")
    run.add_argument("--experiment", required=True, choices=sorted(EXPERIMENTS))
    run.add_argument("--n", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--delta-grid", default=None, help="comma-separated shell widths")
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--p", type=_parse_p, default=None)
    run.add_argument("--out", default="runs")
    run.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE", help="repeatable"
    )
    report = sub.add_parser("report", help="merge run artifacts into a consolidated report")
    report.add_argument("directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "report":
        try:
            report, warnings = emit_report(Path(args.directory))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"report.json: {len(report['runs'])} runs, {warnings} warnings")
        return 0
    try:
        worker_count()  # a malformed HOMOEOID_THREADS fails here, before any work
        config = RunConfig(
            experiment=args.experiment,
            n=args.n,
            seed=args.seed,
            deltas=_parse_delta_grid(args.delta_grid),
            samples=args.samples,
            p=args.p,
            out=args.out,
            overrides=_parse_overrides(args.override),
        )
        result = run_experiment(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_dir = write_artifacts(config, result)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    status = "pass" if result.passed else "FAIL"
    print(f"{config.experiment}: {status} ({run_dir})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
