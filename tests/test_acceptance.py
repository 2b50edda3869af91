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


def _run(runs, label=lambda config, result: ""):
    """Run each ``(config, gated metrics)`` pair in turn.

    Returns the results, whether every run passed, the runs' gates as text
    (each after ``label(config, result)``, joined by `` | ``) and the seconds
    the runs took.
    """
    start = time.perf_counter()
    results, parts = [], []
    for config, gated in runs:
        result = run_experiment(config)
        results.append(result)
        parts.append(label(config, result) + _gates(result, gated))
    elapsed = time.perf_counter() - start
    return results, all(r.passed for r in results), " | ".join(parts), elapsed


def test_criterion_01_identity_suite():
    # the exact-rational mode runs at n <= 4 only
    runs = [
        (
            RunConfig("identities", n=n, seed=SEED, overrides=(("rational_trials", 1000),)),
            {"max_relative_residual"} | ({"rational_residual"} if n <= 4 else set()),
        )
        for n in range(2, 9)
    ]
    results, ok, gates, elapsed = _run(runs, lambda config, result: f"n={config.n}: ")
    worst = max(r.metrics["max_relative_residual"] for r in results)
    rational = [r.metrics["rational_residual"] for r in results]
    worst_rational = max(value for value in rational if value is not None)
    ok = ok and elapsed < 10.0
    detail = _line(
        1,
        ok,
        f"float residual {worst:.2e} (1e3 trials, n=2..8), rational residual "
        f"{worst_rational!r} (n<=4): {gates}; {elapsed:.1f}s (<10s)",
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
    # n = 2..8, 20 generic radii per n; the residual covers r-constancy and FD
    gated = {"max_relative_residual", "min_abs_det_at_three_halves", "min_scaled_determinant"}
    (result,), ok, gates, elapsed = _run([(RunConfig("nondeg", n=8, seed=SEED), gated)])
    rows = result.rows
    n2 = rows[0]["isotropic_measured"]
    ratios = [row["alternate_ratio"] for row in rows]
    recorded = [row["n"] for row in rows] == list(range(2, 9)) and all(
        math.isfinite(r) and r > 0.0 for r in ratios
    )
    ok = ok and abs(n2 - 1.0) <= 1e-6 and recorded and elapsed < 5.0
    detail = _line(
        3,
        ok,
        f"n=2 value {n2:.9f} (1 +- 1e-6), min |det| at 3/2 = "
        f"{result.metrics['min_abs_det_at_three_halves']:.3f}, alternate-form ratios "
        f"{min(ratios):.3f}..{max(ratios):.3f} recorded; {gates}; {elapsed:.1f}s (<5s)",
    )
    assert ok, detail


def test_criterion_04_volume_bound():
    config = RunConfig("volume-bound", seed=SEED, samples=100_000, overrides=(("pairs", 50),))
    (result,), ok, gates, _ = _run([(config, {"drift"})])
    worst = result.metrics["worst_ratio_per_delta"].values()
    detail = _line(
        4,
        ok,
        f"per-delta worst measured/envelope in [{min(worst):.3f}, {max(worst):.3f}] over "
        f"{len(result.rows)} pairs (5 deltas x 5 offsets x 50); {gates}",
    )
    assert ok, detail


def test_criterion_05_band_decomposition():
    _, ok, gates, _ = _run([(RunConfig("bands", seed=SEED), {"worst_partition_z", "drift"})])
    detail = _line(
        5,
        ok,
        "all tangential/band/transversal parts <= C*delta^2/t (ratio drift), "
        "partition vs total (worst z): " + gates,
    )
    assert ok, detail


def test_criterion_06_cluster_structure():
    config = RunConfig("clusters", seed=SEED, samples=1 << 21, overrides=(("configs", 100),))
    (result,), ok, gates, _ = _run([(config, {"max_cluster_count", "halving_ratio"})])
    detail = _line(
        6,
        ok,
        f"100 seeded configs: scaled-diameter constant "
        f"{result.metrics['diameter_constant']:.3f} -> "
        f"{result.metrics['halved_constant']:.3f} under rho/2; {gates}",
    )
    assert ok, detail


def test_criterion_07_fibre_length():
    # one rho per seeded config, drawn after it on the stream "fibre-accept"
    config = RunConfig("fibre", seed=SEED, overrides=(("trials", 50),))
    (result,), ok, gates, elapsed = _run([(config, {"calibration_gap", "ratio_drift"})])
    ratios = [row["ratio"] for row in result.rows]
    ok = ok and elapsed < 60.0
    detail = _line(
        7,
        ok,
        f"length/rho in [{min(ratios):.3f}, {max(ratios):.3f}] over {len(ratios)} configs, "
        f"calibration |length - 2pi| and drift: {gates}; {elapsed:.1f}s (<60s)",
    )
    assert ok, detail


def test_criterion_08_multiplicity():
    (result,), ok, gates, _ = _run([(RunConfig("multiplicity", seed=SEED), {"drift"})])
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
    ok = ok and worst_z <= 3.0
    detail = _line(
        8,
        ok,
        f"C(delta) in [{min(constants):.3f}, {max(constants):.3f}] for delta=2^-4..2^-8 "
        f"at N=floor(1/delta), {gates}; N=8 pairwise-vs-direct worst z {worst_z:.2f} (<=3)",
    )
    assert ok, detail


def test_criterion_09_knapp_exponents():
    def label(config, result):
        m = result.metrics
        return f"p={config.p:g}: slope {m['slope']:+.4f} vs {m['expected_slope']:+.4f}, "

    gated = {"fitted", "slope_gap"}
    runs = [(RunConfig("knapp-exponent", seed=SEED, p=p), gated) for p in (1.5, 2.0, 3.0)]
    _, ok, gates, _ = _run(runs, label)
    detail = _line(9, ok, gates + " - sign change brackets the critical exponent 2")
    assert ok, detail


def test_criterion_10_divergence_series():
    gated = {"slope_dyadic_blocks", "l2_relative_gap", "divergent_at_2_5"}
    (result,), ok, gates, elapsed = _run([(RunConfig("divergence", seed=SEED), gated)])
    m = result.metrics
    ok = ok and elapsed < 60.0
    detail = _line(
        10,
        ok,
        f"dyadic block-sum slope over blocks j=10..12, L2 norm {m['l2_norm']:.4f} vs "
        f"oracle {m['l2_oracle']:.4f}: {gates}; not gated: top-window partial-sum slope "
        f"{m['slope_top_window']:.4f}, "
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
    _, ok, gates, _ = _run([(RunConfig("l2-growth", seed=SEED), {"slope"})])
    detail = _line(
        12,
        ok,
        "log ||max-average f||_2 vs log(1/delta) over delta=2^-4..2^-8, seeded "
        "bump-mixture fields: " + gates,
    )
    assert ok, detail


def test_criterion_14_dimension_four():
    # n = 4, where p_c = 5/3: every n-dependent gate comes from critical_exponent
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

    def label(config, result):
        at_p = f" p={config.p:.4g}" if config.experiment in ("knapp-exponent", "glpnorm") else ""
        return f"{config.experiment}{at_p}: "

    _, ok, gates, elapsed = _run(runs, label)
    ok = ok and elapsed <= 15.0
    detail = _line(14, ok, f"{gates}; {elapsed:.1f}s (<=15s)")
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
    "glpnorm": [],
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
