"""Acceptance suite: the fourteen headline checks, one test per criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line with the measured
figures (visible with ``pytest -v -rA`` or on failure) and then asserts the
stated thresholds, so the verbose test listing doubles as the acceptance
report.  A criterion that runs a CLI experiment asserts that experiment's
declared gates (``RunResult.passed``), prints each of them and checks which
metrics they gate; only its time limits and the checks the experiment does
not make are written here.  Monte-Carlo protocols and seeds are frozen here;
the numbers are deterministic, so a failure is a real regression, never flake.
"""

import json
import math
import time

import numpy as np

from homoeoid import cli, geometry as geo, maximal
from homoeoid.cli import RunConfig, run_experiment
from homoeoid.fibres import trace_fibre
from homoeoid.identities import contact_jacobian_check, identity_suite
from homoeoid.knapp import critical_exponent
from homoeoid.mc import derive_stream, rng_stream
from homoeoid.multiplicity import direct_overlap_l2, generate_family, overlap_l2
from homoeoid.volumes import reference_shell_sampler

SEED = 0


def _line(num: int, ok: bool, detail: str) -> str:
    text = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(text, flush=True)
    return text


def _figure(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _gates(result, gated: set) -> str:
    """Each of ``result``'s gates with its measured value, once the gated
    metrics are checked to be exactly ``gated``."""
    assert {g.metric for g in result.gates} == gated, result.gates
    return "; ".join(
        f"{g.metric} {_figure(result.metrics[g.metric])} ({g.op} {_figure(g.bound)}"
        f"{'' if g.holds(result.metrics) else ' - VIOLATED'})"
        for g in result.gates
    )


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for report in identity_suite(n, 1000, seed=SEED):
            worst = max(worst, report.max_relative_residual)
    worst_rational = 0.0
    for n in (2, 3, 4):
        for report in identity_suite(n, 1000, seed=SEED, rational=True):
            worst_rational = max(worst_rational, report.max_relative_residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and worst_rational == 0.0 and elapsed < 10.0
    detail = _line(
        1,
        ok,
        f"float residual {worst:.2e} (<1e-9, 1e3 trials, n=2..8), "
        f"rational residual {worst_rational!r} (==0, n<=4), {elapsed:.1f}s (<10s)",
    )
    assert ok, detail


def test_criterion_02_gram_minor_dual_path():
    start = time.perf_counter()
    worst = 0.0
    tuples = 0
    for n, n_cfg in ((2, 5), (3, 10), (4, 5), (6, 5)):
        for c in range(n_cfg):
            rng = rng_stream(SEED, derive_stream("cb-tuples", n, c))
            radii = rng.uniform(0.5, 2.0, n)
            t = float(rng.uniform(0.0, 2.0))
            cfg = geo.TangencyConfig(0, t, radii)
            omega = reference_shell_sampler(2.0**-4, n)(rng, 400)
            tuples += omega.shape[0]
            gram = geo.jacobian_gram_norm(cfg, omega, method="gram")
            minors = geo.jacobian_gram_norm(cfg, omega, method="minors")
            geo.jacobian_gram_norm(cfg, omega, method="both")  # raises beyond 1e-10
            a = 2.0 * omega
            b = geo.defining_gradient(cfg.centre, cfg.radii, omega)
            scale = np.sum(a * a, axis=-1) * np.sum(b * b, axis=-1)
            gap = np.abs(gram * gram - minors * minors) / np.maximum(1.0, scale)
            worst = max(worst, float(np.max(gap)))
    elapsed = time.perf_counter() - start
    ok = tuples == 10_000 and worst <= 1e-10 and elapsed < 5.0
    detail = _line(
        2,
        ok,
        f"Gram vs summed-minors gap {worst:.2e} (<=1e-10) over {tuples} tuples, "
        f"{elapsed:.2f}s (<5s)",
    )
    assert ok, detail


def test_criterion_03_contact_jacobian():
    start = time.perf_counter()
    report = contact_jacobian_check(seed=SEED)
    elapsed = time.perf_counter() - start
    n2 = report.details[2]["isotropic_measured"]
    min_det = min(abs(report.details[n]["det_at_three_halves"]) for n in range(2, 9))
    ratios = [report.details[n]["alternate_ratio"] for n in range(2, 9)]
    recorded = all(
        "alternate_ratio" in report.details[n] and "alternate_closed_form" in report.details[n]
        for n in range(2, 9)
    )
    ok = (
        report.max_relative_residual <= 1e-6
        and abs(n2 - 1.0) <= 1e-6
        and min_det > 0.01
        and recorded
        and elapsed < 5.0
    )
    detail = _line(
        3,
        ok,
        f"residual {report.max_relative_residual:.2e} (<=1e-6 covers r-constancy + FD), "
        f"n=2 value {n2:.9f} (1 +- 1e-6), min |det| at 3/2 = {min_det:.3f} (>0.01), "
        f"alternate-form ratios {min(ratios):.3f}..{max(ratios):.3f} recorded, "
        f"{elapsed:.1f}s (<5s)",
    )
    assert ok, detail


def test_criterion_04_volume_bound():
    result = run_experiment(
        RunConfig("volume-bound", seed=SEED, samples=100_000, overrides=(("pairs", 50),))
    )
    worst = result.metrics["worst_ratio_per_delta"].values()
    detail = _line(
        4,
        result.passed,
        f"per-delta worst measured/envelope in [{min(worst):.3f}, {max(worst):.3f}] over "
        f"{len(result.rows)} pairs (5 deltas x 5 offsets x 50); "
        + _gates(result, {"drift"}),
    )
    assert result.passed, detail


def test_criterion_05_band_decomposition():
    result = run_experiment(RunConfig("bands", seed=SEED))
    detail = _line(
        5,
        result.passed,
        "all tangential/band/transversal parts <= C*delta^2/t (ratio drift), "
        "partition vs total (worst z): " + _gates(result, {"worst_partition_z", "drift"}),
    )
    assert result.passed, detail


def test_criterion_06_cluster_structure():
    result = run_experiment(
        RunConfig("clusters", seed=SEED, samples=1 << 21, overrides=(("configs", 100),))
    )
    detail = _line(
        6,
        result.passed,
        f"100 seeded configs: scaled-diameter constant "
        f"{result.metrics['diameter_constant']:.3f} -> "
        f"{result.metrics['halved_constant']:.3f} under rho/2; "
        + _gates(result, {"max_cluster_count", "halving_ratio"}),
    )
    assert result.passed, detail


def test_criterion_07_fibre_length():
    start = time.perf_counter()
    calibration = trace_fibre(
        np.zeros(3), np.array([1.2, 1.0, 1.0]), np.zeros(2), step=0.01, seed=3
    )
    ratios = []
    for trial in range(50):
        trace = None
        rho = None
        for attempt in range(25):
            rng = rng_stream(SEED, derive_stream("fibre-accept", trial, attempt))
            x = rng.uniform(-0.2, 0.2, 3)
            radii = rng.uniform(0.9, 1.35, 3)
            levels = rng.uniform(-0.05, 0.05, 2)
            rho = float(rng.uniform(0.1, 0.4))
            try:
                trace = trace_fibre(x, radii, levels, step=0.01, seed=trial)
                break
            except ValueError:
                continue
        assert trace is not None, f"no non-empty fibre for trial {trial}"
        centre = trace.points[trace.points.shape[0] // 3]
        ratios.append(trace.length_in_ball(centre, rho) / rho)
    drift = max(ratios) / min(ratios)
    gap = abs(calibration.length - 2.0 * math.pi)
    elapsed = time.perf_counter() - start
    ok = drift <= 4.0 and gap <= 1e-6 and elapsed < 60.0
    detail = _line(
        7,
        ok,
        f"length/rho in [{min(ratios):.3f}, {max(ratios):.3f}] over 50 configs, "
        f"drift {drift:.2f} (<=4); calibration |length - 2pi| = {gap:.2e} (<=1e-6); "
        f"{elapsed:.1f}s (<60s)",
    )
    assert ok, detail


def test_criterion_08_multiplicity():
    result = run_experiment(RunConfig("multiplicity", seed=SEED))
    constants = result.metrics["worst_refined"].values()
    family = generate_family(0, 2.0**-4, 8, seed=SEED)
    worst_z = 0.0
    for refined in (True, False):
        pairwise = overlap_l2(family, m=4096, seed=SEED, refined=refined)
        direct = direct_overlap_l2(family, m=1 << 21, seed=SEED, refined=refined)
        z = abs(pairwise.value - direct.value) / math.hypot(
            pairwise.std_error, direct.std_error
        )
        worst_z = max(worst_z, z)
    ok = result.passed and worst_z <= 3.0
    detail = _line(
        8,
        ok,
        f"C(delta) in [{min(constants):.3f}, {max(constants):.3f}] for delta=2^-4..2^-8 "
        f"at N=floor(1/delta), " + _gates(result, {"drift"})
        + f"; N=8 pairwise-vs-direct worst z {worst_z:.2f} (<=3)",
    )
    assert ok, detail


def test_criterion_09_knapp_exponents():
    parts = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        result = run_experiment(RunConfig("knapp-exponent", seed=SEED, p=p))
        m = result.metrics
        ok = ok and result.passed
        parts.append(
            f"p={p:g}: slope {m['slope']:+.4f} vs {m['expected_slope']:+.4f}, "
            + _gates(result, {"fitted", "slope_gap"})
        )
    detail = _line(9, ok, " | ".join(parts) + " - sign change brackets the critical exponent 2")
    assert ok, detail


def test_criterion_10_divergence_series():
    start = time.perf_counter()
    result = run_experiment(RunConfig("divergence", seed=SEED))
    elapsed = time.perf_counter() - start
    m = result.metrics
    ok = result.passed and elapsed < 60.0
    gated = {"slope_dyadic_blocks", "l2_relative_gap", "divergent_at_2_5"}
    detail = _line(
        10,
        ok,
        f"dyadic block-sum slope over blocks j=10..12, L2 norm {m['l2_norm']:.4f} vs "
        f"oracle {m['l2_oracle']:.4f}: " + _gates(result, gated)
        + f"; not gated: top-window partial-sum slope {m['slope_top_window']:.4f}, "
        f"offset fit {m['slope_offset_fit']:.4f}; {elapsed:.1f}s (<60s)",
    )
    assert ok, detail


def test_criterion_11_domination_and_covering():
    start = time.perf_counter()
    field = maximal.bump_mixture_family(3, components=6, seed=SEED)(0)
    lo, hi = geo.restricted_radii_box(3)
    net = maximal.RadiiNet(lo, hi, hi[0] - lo[0])
    xs = rng_stream(SEED, derive_stream("dom-x")).uniform(-0.4, 0.4, (1000, 3))
    violation = maximal.domination_check(field, xs, 2.0**-5, net, m=256, seed=SEED)
    omega = reference_shell_sampler(2.0**-5, 3)(
        rng_stream(SEED, derive_stream("cover")), 1_000_000
    )
    margin = geo.covering_margin(omega)
    elapsed = time.perf_counter() - start
    ok = violation <= 0.0 and bool(np.all(margin >= 0.0)) and elapsed < 60.0
    detail = _line(
        11,
        ok,
        f"plain-minus-refined-sum worst gap {violation:.3e} (<=0, 1e3 points, shared "
        f"randomness); covering margin min {margin.min():.4f} (>=0 over 1e6 samples); "
        f"{elapsed:.1f}s (<60s)",
    )
    assert ok, detail


def test_criterion_12_l2_growth():
    result = run_experiment(RunConfig("l2-growth", seed=SEED))
    detail = _line(
        12,
        result.passed,
        "log ||max-average f||_2 vs log(1/delta) over delta=2^-4..2^-8, seeded "
        "bump-mixture fields: " + _gates(result, {"slope"}),
    )
    assert result.passed, detail


def test_criterion_14_dimension_four():
    # n = 4, where p_c = 5/3: every n-dependent gate comes from critical_exponent
    start = time.perf_counter()
    p_c = critical_exponent(4)
    knapp_gates = {"fitted", "slope_gap"}
    runs = [(RunConfig("knapp-exponent", n=4, seed=SEED, p=p), knapp_gates) for p in (1.5, p_c, 2.0)]
    runs += [
        (
            RunConfig("divergence", n=4, seed=SEED),
            {"slope_dyadic_blocks", "l2_relative_gap", "divergent_at_2_5"},
        ),
        (RunConfig("glpnorm", n=4, seed=SEED, p=p_c), {"gap"}),
        (
            RunConfig("volume-bound", n=4, seed=SEED, samples=100_000, overrides=(("pairs", 50),)),
            {"drift"},
        ),
        (RunConfig("multiplicity", n=4, seed=SEED), {"drift"}),
    ]
    parts = []
    ok = True
    for config, gated in runs:
        result = run_experiment(config)
        ok = ok and result.passed
        at_p = f" p={config.p:.4g}" if config.experiment in ("knapp-exponent", "glpnorm") else ""
        parts.append(f"{config.experiment}{at_p}: " + _gates(result, gated))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 15.0
    detail = _line(14, ok, " | ".join(parts) + f"; {elapsed:.1f}s (<=15s)")
    assert ok, detail


CHEAP_ARGS = {
    "identities": ["--samples", "50"],
    "nondeg": ["--override", "generic_per_n=5", "--override", "bound_trials=50"],
    "volume-bound": [
        "--delta-grid", "0.03125,0.015625", "--samples", "2000", "--override", "pairs=2",
    ],
    "bands": ["--delta-grid", "0.03125", "--samples", "4096"],
    "clusters": ["--samples", "65536", "--override", "configs=2"],
    "fibre": ["--override", "trials=2"],
    "multiplicity": [
        "--delta-grid", "0.0625,0.03125,0.015625", "--samples", "1024",
        "--override", "trials=1",
    ],
    "l2-growth": [
        "--delta-grid", "0.0625,0.03125,0.015625", "--samples", "128",
        "--override", "family_size=1", "--override", "x_samples=4",
    ],
    "knapp-exponent": [
        "--delta-grid", "0.0625,0.03125,0.015625", "--samples", "1024",
        "--override", "m_x=8",
    ],
    "divergence": ["--samples", "64", "--override", "L=64"],
    "glpnorm": ["--samples", "5000"],
    "explore-unrefined": ["--samples", "2000", "--override", "pairs=2"],
}


def test_criterion_13_reproducibility(tmp_path, monkeypatch, capsys):
    assert set(CHEAP_ARGS) == set(cli.EXPERIMENTS)
    identical = []
    for experiment, extra in CHEAP_ARGS.items():
        bodies = {}
        for workers in ("1", "4"):
            monkeypatch.setenv("HOMOEOID_THREADS", workers)
            out = tmp_path / f"w{workers}"
            rc = cli.main(["run", "--experiment", experiment, "--out", str(out), *extra])
            assert rc in (0, 1), f"{experiment} exited {rc}"
            run_dir = out / f"{experiment}-seed0"
            bodies[workers] = (run_dir / "results.csv").read_bytes()
            summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
            assert summary["pass"] == all(g["pass"] for g in summary["gates"]), experiment
            assert rc == (0 if summary["pass"] else 1), experiment
        identical.append(bodies["1"] == bodies["4"])
        assert bodies["1"] == bodies["4"], f"{experiment} CSV bodies differ across workers"
    with open(tmp_path / "w1" / "identities-seed0" / "summary.json", encoding="utf-8") as fh:
        w1 = json.load(fh)["workers"]
    with open(tmp_path / "w4" / "identities-seed0" / "summary.json", encoding="utf-8") as fh:
        w4 = json.load(fh)["workers"]
    capsys.readouterr()
    ok = all(identical) and (w1, w4) == (1, 4)
    detail = _line(
        13,
        ok,
        f"{sum(identical)}/{len(identical)} experiments byte-identical CSV bodies "
        f"under 1 vs 4 workers (worker count {w1} vs {w4} recorded in summaries only)",
    )
    assert ok, detail
