"""End-to-end tests for the command-line front end and its artifacts."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from homoeoid import cli, knapp
from homoeoid.fibres import trace_fibre
from homoeoid.mc import derive_stream, rng_stream
from homoeoid.multiplicity import multiplicity_scan
from homoeoid.volumes import low_jacobian_cluster, seeded_cluster_configs, volume_bound_scan


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def strict_load(path: Path) -> dict:
    """``path`` parsed as strict JSON: a bare NaN or Infinity raises."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)


def read_summary(run_dir: Path) -> dict:
    return strict_load(run_dir / "summary.json")


class TestRunCommand:
    def test_identities_run_writes_artifacts(self, tmp_path):
        rc = run_cli("run", "--experiment", "identities", "--samples", 50, "--out", tmp_path)
        assert rc == 0
        run_dir = tmp_path / "identities-seed0"
        assert (run_dir / "results.csv").exists()
        summary = read_summary(run_dir)
        assert summary["experiment"] == "identities"
        assert summary["seed"] == 0
        assert summary["pass"] is True
        assert summary["metrics"]["max_relative_residual"] < 1e-9
        assert summary["metrics"]["rational_residual"] == 0.0
        assert isinstance(summary["workers"], int)

    def test_csv_header_matches_declared_columns(self, tmp_path):
        run_cli("run", "--experiment", "identities", "--samples", 20, "--out", tmp_path)
        run_dir = tmp_path / "identities-seed0"
        summary = read_summary(run_dir)
        lines = (run_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",") == summary["columns"]
        assert len(lines) - 1 == summary["rows_written"]

    def test_overwide_shell_is_rejected(self, tmp_path):
        rc = run_cli(
            "run",
            "--experiment",
            "volume-bound",
            "--delta-grid",
            "0.7",
            "--samples",
            500,
            "--out",
            tmp_path,
        )
        assert rc == 2

    def test_unknown_experiment_exits_two(self, tmp_path, capsys):
        rc = run_cli("run", "--experiment", "nonsense", "--out", tmp_path)
        capsys.readouterr()
        assert rc == 2

    # ``config`` is the experiments' positional parameter, not an override;
    # the model's constants are fixed where they are read, so no value sets them
    @pytest.mark.parametrize(
        "experiment, override",
        [
            ("identities", "bogus=1"),
            ("identities", "config=1"),
            ("bands", "t_lo=0.5"),
            ("bands", "t_hi=0.7"),
            ("clusters", "delta=0.001953125"),
            ("l2-growth", "components=6"),
            ("knapp-exponent", "rho=0.1"),
            ("divergence", "C=4"),
            ("glpnorm", "C=2"),
        ],
    )
    def test_unknown_override_exits_two(self, tmp_path, capsys, experiment, override):
        key = override.partition("=")[0]
        argv = ("--experiment", experiment, "--override", override, "--out", tmp_path)
        assert run_cli("run", *argv) == 2
        assert f"error: unknown overrides: [{key!r}]" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_malformed_override_exits_two(self, tmp_path, capsys):
        rc = run_cli("run", "--experiment", "identities", "--override", "oops", "--out", tmp_path)
        capsys.readouterr()
        assert rc == 2

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        rc = run_cli(
            "run",
            "--experiment",
            "identities",
            "--samples",
            20,
            "--out",
            blocker / "sub",
        )
        capsys.readouterr()
        assert rc == 2

    def test_too_few_divergence_shells_exits_two(self, tmp_path, capsys):
        rc = run_cli("run", "--experiment", "divergence", "--override", "L=8", "--out", tmp_path)
        assert rc == 2
        assert "L must be at least 16" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, samples, message",
        [
            # one sample has no standard error, so the partition z cannot be measured
            ("bands", 1, "bands needs samples >= 2 to measure a standard error, got 1"),
            # each slab average is over at least two shell points
            ("knapp-exponent", 1, "knapp-exponent needs samples >= 2 per shell average, got 1"),
            # the pair estimator draws batches of at least 64 points
            ("multiplicity", 32, "multiplicity needs samples >= 64 for a pair batch, got 32"),
        ],
    )
    def test_short_samples_exit_two_by_name(self, tmp_path, capsys, experiment, samples, message):
        rc = run_cli("run", "--experiment", experiment, "--samples", samples, "--out", tmp_path)
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unfittable_knapp_scan_exits_one_with_rows(self, tmp_path, capsys, monkeypatch):
        # no shell sample hits the slab at the middle width
        average = knapp.slab_shell_average

        def missing_middle(slab, x, r, delta, m, *, seed=0):
            return (0.0, 0.0) if delta == 0.03125 else average(slab, x, r, delta, m, seed=seed)

        monkeypatch.setattr(knapp, "slab_shell_average", missing_middle)
        argv = ("--experiment", "knapp-exponent", "--override", "m_x=2", "--samples", 2)
        argv += ("--delta-grid", "0.0625,0.03125,0.015625", "--out", tmp_path)
        assert run_cli("run", *argv) == 1
        capsys.readouterr()
        run_dir = tmp_path / "knapp-exponent-seed0"
        assert read_summary(run_dir)["metrics"]["slope"] == "nan"
        lines = (run_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "delta,p,ratio,std_error"
        assert len(lines) - 1 == 3

    @pytest.mark.parametrize(
        "experiment, override",
        [("divergence", "L=16.9"), ("clusters", "configs=2.7"), ("multiplicity", "trials=1.5")],
    )
    def test_fractional_integer_override_exits_two(self, tmp_path, capsys, experiment, override):
        rc = run_cli("run", "--experiment", experiment, "--override", override, "--out", tmp_path)
        key, _, value = override.partition("=")
        assert rc == 2
        assert f"override {key} must be an integer, got {value}" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}-seed0").exists()

    @pytest.mark.parametrize(
        "experiment, override",
        [("volume-bound", "pairs=0"), ("explore-unrefined", "pairs=0"), ("fibre", "trials=-2")],
    )
    def test_non_positive_count_override_exits_two(self, tmp_path, capsys, experiment, override):
        rc = run_cli("run", "--experiment", experiment, "--override", override, "--out", tmp_path)
        key, _, value = override.partition("=")
        assert rc == 2
        assert f"override {key} must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}-seed0").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("--experiment", "divergence", "--override", "L=nan"),
                "override L must be an integer, got nan",
            ),
            (("--experiment", "glpnorm", "--p", "nan"), "p must be finite, got nan"),
            (
                ("--experiment", "volume-bound", "--delta-grid", "0.03125,inf"),
                "delta grid must be finite",
            ),
        ],
        ids=["override", "p", "delta"],
    )
    def test_non_finite_input_exits_two(self, tmp_path, capsys, argv, message):
        rc = run_cli("run", *argv, "--out", tmp_path)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_empty_delta_grid_exits_two(self, tmp_path, capsys):
        rc = run_cli("run", "--experiment", "multiplicity", "--delta-grid", ",", "--out", tmp_path)
        assert rc == 2
        assert "error: empty delta grid" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_p_given_as_a_fraction_is_exact(self, tmp_path, capsys):
        # 1.6667 is not p_c(4) and runs no gate; 5/3 is p_c(4) bit for bit
        argv = ("--experiment", "glpnorm", "--n", 4, "--p", "5/3", "--out", tmp_path)
        assert run_cli("run", *argv) == 0
        summary = read_summary(tmp_path / "glpnorm-seed0")
        assert summary["config"]["p"] == knapp.critical_exponent(4)
        assert [g["metric"] for g in summary["gates"]] == ["gap"]

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("1/0", "p must be a number or a fraction, got '1/0'"),
            ("five", "p must be a number or a fraction, got 'five'"),
            ("nan", "p must be finite, got nan"),
        ],
    )
    def test_malformed_p_exits_two(self, tmp_path, capsys, raw, message):
        assert run_cli("run", "--experiment", "glpnorm", "--p", raw, "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_fibre_rows_follow_the_accept_protocol(self):
        # criterion 7's inputs, drawn by hand: per trial the first attempt on
        # "fibre-accept" whose fibre is non-empty gives x, radii, levels and
        # then rho, and the length is measured in the ball about the point a
        # third of the way along the trace
        result = cli.run_experiment(cli.RunConfig("fibre", overrides=(("trials", 2),)))
        expected = []
        for trial in range(2):
            for attempt in range(25):
                rng = rng_stream(0, derive_stream("fibre-accept", trial, attempt))
                x = rng.uniform(-0.2, 0.2, 3)
                radii = rng.uniform(0.9, 1.35, 3)
                levels = rng.uniform(-0.05, 0.05, 2)
                rho = float(rng.uniform(0.1, 0.4))
                try:
                    trace = trace_fibre(x, radii, levels, step=0.01, seed=trial)
                    break
                except ValueError:
                    continue
            length = trace.length_in_ball(trace.points[trace.points.shape[0] // 3], rho)
            expected.append({"seed": trial, "rho": rho, "length": length, "ratio": length / rho})
        assert result.rows == tuple(expected)

    def test_divergent_norm_is_strict_json(self, tmp_path, capsys):
        assert run_cli("run", "--experiment", "glpnorm", "--p", 2.5, "--out", tmp_path) == 0
        capsys.readouterr()
        run_dir = tmp_path / "glpnorm-seed0"
        summary = read_summary(run_dir)
        assert summary["metrics"]["norm"] == "inf"
        assert summary["metrics"]["finite"] is False
        assert (run_dir / "results.csv").read_text(encoding="utf-8") == "p,norm,finite\n2.5,inf,false\n"
        assert run_cli("report", tmp_path) == 0
        report = strict_load(tmp_path / "report.json")
        assert report["runs"][0]["metrics"]["norm"] == "inf"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", 1), "dimension must be >= 2, got 1"),
            (("--samples", 0), "samples must be positive, got 0"),
        ],
        ids=["dimension", "samples"],
    )
    def test_out_of_range_config_exits_two(self, tmp_path, capsys, argv, message):
        rc = run_cli("run", "--experiment", "identities", *argv, "--out", tmp_path)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_clusters_measuring_nothing_fails(self, tmp_path, capsys):
        # four samples per configuration accept no point at either radius
        argv = ("--experiment", "clusters", "--samples", 4, "--override", "configs=2")
        assert run_cli("run", *argv, "--out", tmp_path) == 1
        assert "clusters: FAIL" in capsys.readouterr().out
        summary = read_summary(tmp_path / "clusters-seed0")
        assert summary["metrics"]["diameter_constant"] == 0.0
        assert summary["metrics"]["halved_constant"] == 0.0
        assert summary["metrics"]["halving_ratio"] == "nan"
        # both configurations come back empty at both radius factors
        assert summary["metrics"]["empty_reports_per_factor"] == {"1.0": 2, "0.5": 2}
        halving = [g for g in summary["gates"] if g["metric"] == "halving_ratio"]
        assert halving == [
            {
                "metric": "halving_ratio",
                "op": "<=",
                "bound": 2.0,
                "measured": "nan",
                "margin": None,
                "pass": False,
            }
        ]

    def test_diagnostics_are_metrics_not_gates(self, tmp_path):
        nondeg = ("--override", "generic_per_n=2", "--override", "bound_trials=20")
        clusters = ("--samples", 4096, "--override", "configs=2")
        for experiment, argv in (("nondeg", nondeg), ("clusters", clusters)):
            assert run_cli("run", "--experiment", experiment, *argv, "--out", tmp_path) in (0, 1)
        metrics = read_summary(tmp_path / "nondeg-seed0")["metrics"]
        assert (metrics["bound_accepted"], metrics["bound_requested"]) == (20, 20)
        summary = read_summary(tmp_path / "clusters-seed0")
        empty = summary["metrics"]["empty_reports_per_factor"]
        assert set(empty) == {"1.0", "0.5"} and all(0 <= v <= 2 for v in empty.values())
        gated = {g["metric"] for g in summary["gates"]}
        assert not gated & {"empty_reports_per_factor", "bound_accepted", "bound_requested"}

    def test_multiplicity_records_its_samples_drawn(self, tmp_path):
        deltas = (0.125, 0.0625, 0.03125)
        argv = ("--delta-grid", ",".join(map(str, deltas)), "--samples", 64)
        assert run_cli("run", "--experiment", "multiplicity", *argv, "--out", tmp_path) in (0, 1)
        summary = read_summary(tmp_path / "multiplicity-seed0")
        scan = multiplicity_scan(0, deltas, trials=3, m=64, seed=0)
        assert summary["metrics"]["pair_samples_drawn"] == scan.drawn > 0
        assert "pair_samples_drawn" not in {g["metric"] for g in summary["gates"]}
        header = (tmp_path / "multiplicity-seed0" / "results.csv").read_text().splitlines()[0]
        assert "drawn" not in header

    def test_clusters_records_its_shell_points_drawn(self, tmp_path):
        m = 1 << 18
        argv = ("--samples", m, "--override", "configs=2")
        assert run_cli("run", "--experiment", "clusters", *argv, "--out", tmp_path) in (0, 1)
        summary = read_summary(tmp_path / "clusters-seed0")
        drawn = sum(
            low_jacobian_cluster(
                axis=0,
                t=t,
                radii=radii,
                rho=factor * t / 16.0,
                delta=2.0**-9,
                m=m,
                seed=derive_stream("cluster-run", 0, i),
            ).drawn
            for factor in (1.0, 0.5)
            for i, (t, radii) in enumerate(seeded_cluster_configs(0, 2))
        )
        # four runs of m requested points draw only those in the tangency cover
        assert summary["metrics"]["shell_points_drawn"] == drawn > 0
        assert drawn < 4 * m / 1000
        assert "shell_points_drawn" not in {g["metric"] for g in summary["gates"]}
        header = (tmp_path / "clusters-seed0" / "results.csv").read_text().splitlines()[0]
        assert "drawn" not in header

    @pytest.mark.parametrize("experiment", ["volume-bound", "explore-unrefined"])
    def test_volume_scans_record_their_shell_points_drawn(self, tmp_path, experiment):
        m, deltas = 5000, (2.0**-5, 2.0**-6)
        argv = ("--delta-grid", "0.03125,0.015625", "--samples", m, "--override", "pairs=2")
        assert run_cli("run", "--experiment", experiment, *argv, "--out", tmp_path) == 0
        summary = read_summary(tmp_path / f"{experiment}-seed0")
        if experiment == "volume-bound":
            grid = [(deltas, (2.0**-4, 2.0**-3, 2.0**-2, 2.0**-1, 1.0), True)]
        else:
            grid = [((d,), (d / 2.0, d, 4.0 * d, 2.0**-4, 2.0**-2), False) for d in deltas]
        rows = [
            row
            for ds, ts, refined in grid
            for row in volume_bound_scan(
                deltas=ds, ts=ts, pairs=2, m=m, seed=0, refined=refined
            )
        ]
        drawn = sum(row["drawn"] for row in rows)
        # the cells draw only the points whose direction is in their hit zones
        assert summary["metrics"]["shell_points_drawn"] == drawn
        assert 0 < drawn < len(rows) * m
        assert "shell_points_drawn" not in {g["metric"] for g in summary["gates"]}
        assert summary["columns"] == [
            "delta", "t", "seed", "measured", "std_error", "bound", "ratio"
        ]

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        capsys.readouterr()


# the flags whose values each experiment declares as keywords: 17 pairs of 36
DECLARED_FLAGS = {
    "identities": {"--samples"},
    "nondeg": set(),
    "volume-bound": {"--delta-grid", "--samples"},
    "bands": {"--delta-grid", "--samples"},
    "clusters": {"--samples"},
    "fibre": set(),
    "multiplicity": {"--delta-grid", "--samples"},
    "l2-growth": {"--delta-grid", "--samples"},
    "knapp-exponent": {"--delta-grid", "--samples", "--p"},
    "divergence": {"--samples"},
    "glpnorm": {"--p"},
    "explore-unrefined": {"--delta-grid", "--samples"},
}
# each flag's value on the command line, its keyword and the value passed
FLAG_INPUTS = {
    "--delta-grid": ("0.03125,0.0625", "deltas", (0.0625, 0.03125)),
    "--samples": ("64", "samples", 64),
    "--p": ("5/2", "p", 2.5),
}


class TestDeclaredInputs:
    """``--delta-grid``, ``--samples`` and ``--p`` reach an experiment only as
    keywords it declares; any other pair exits 2 before the experiment runs."""

    def test_table_covers_every_experiment(self):
        assert set(DECLARED_FLAGS) == set(cli.EXPERIMENTS)
        assert sum(map(len, DECLARED_FLAGS.values())) == 17

    @pytest.mark.parametrize("flag", list(FLAG_INPUTS))
    @pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
    def test_flag_reaches_only_a_declaring_experiment(
        self, tmp_path, capsys, monkeypatch, experiment, flag
    ):
        raw, key, value = FLAG_INPUTS[flag]
        declared = flag in DECLARED_FLAGS[experiment]
        real = cli.EXPERIMENTS[experiment]
        assert (key in real.__kwdefaults__) == declared
        calls = []

        def stand_in(config, **kwargs):
            calls.append(kwargs)
            return cli.RunResult(({"a": 1},), {}, ())

        stand_in.__kwdefaults__ = real.__kwdefaults__
        monkeypatch.setitem(cli.EXPERIMENTS, experiment, stand_in)
        rc = run_cli("run", "--experiment", experiment, flag, raw, "--out", tmp_path)
        err = capsys.readouterr().err
        if declared:
            assert (rc, calls) == (0, [{key: value}])
        else:
            assert (rc, calls) == (2, [])
            assert f"error: {experiment} takes no {flag}" in err
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["deltas", "samples", "p"])
    def test_input_named_by_an_override_is_unknown(self, tmp_path, capsys, key):
        argv = ("--experiment", "knapp-exponent", "--override", f"{key}=1", "--out", tmp_path)
        assert run_cli("run", *argv) == 2
        assert f"unknown overrides: [{key!r}]" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_summary_config_holds_the_inputs_given(self, tmp_path, capsys):
        assert run_cli("run", "--experiment", "identities", "--samples", 20, "--out", tmp_path) == 0
        config = read_summary(tmp_path / "identities-seed0")["config"]
        assert (config["samples"], config["deltas"], config["p"]) == (20, None, None)


VOLUME_ARGS = (
    "run",
    "--experiment",
    "volume-bound",
    "--delta-grid",
    "0.03125,0.015625",
    "--samples",
    2000,
    "--override",
    "pairs=2",
)


class TestDeterminism:
    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        assert run_cli(*VOLUME_ARGS, "--out", tmp_path / "a") == 0
        assert run_cli(*VOLUME_ARGS, "--out", tmp_path / "b") == 0
        body_a = (tmp_path / "a" / "volume-bound-seed0" / "results.csv").read_bytes()
        body_b = (tmp_path / "b" / "volume-bound-seed0" / "results.csv").read_bytes()
        assert body_a == body_b

    def test_worker_env_only_changes_summary(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HOMOEOID_THREADS", raising=False)
        assert run_cli(*VOLUME_ARGS, "--out", tmp_path / "a") == 0
        monkeypatch.setenv("HOMOEOID_THREADS", "4")
        assert run_cli(*VOLUME_ARGS, "--out", tmp_path / "b") == 0
        body_a = (tmp_path / "a" / "volume-bound-seed0" / "results.csv").read_bytes()
        body_b = (tmp_path / "b" / "volume-bound-seed0" / "results.csv").read_bytes()
        assert body_a == body_b
        summary_a = read_summary(tmp_path / "a" / "volume-bound-seed0")
        summary_b = read_summary(tmp_path / "b" / "volume-bound-seed0")
        assert summary_a["workers"] == len(os.sched_getaffinity(0))
        assert summary_b["workers"] == 4
        for summary, out in ((summary_a, "a"), (summary_b, "b")):
            summary.pop("created")
            summary.pop("workers")
            assert summary.pop("config").pop("out") == str(tmp_path / out)
        assert summary_a == summary_b


@pytest.mark.parametrize("raw", ["many", "0"])
def test_malformed_worker_env_exits_2(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("HOMOEOID_THREADS", raw)
    assert run_cli(*VOLUME_ARGS, "--out", tmp_path) == 2
    assert "HOMOEOID_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "volume-bound-seed0").exists()


def fake_run(directory: Path, experiment: str, seed: int, rows=("1,2.5", "3,4.5")) -> Path:
    run_dir = directory / f"{experiment}-seed{seed}"
    run_dir.mkdir(parents=True)
    (run_dir / "results.csv").write_text("x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    summary = {"experiment": experiment, "seed": seed, "pass": True}
    (run_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return run_dir


class TestReportCommand:
    def test_merges_seeds_in_order(self, tmp_path):
        for seed in (1, 0):
            fake_run(tmp_path, "demo", seed, rows=(f"{seed},0.5",))
        assert run_cli("report", tmp_path) == 0
        report = strict_load(tmp_path / "report.json")
        assert report["warnings"] == 0
        assert [(r["experiment"], r["seed"]) for r in report["runs"]] == [
            ("demo", 0),
            ("demo", 1),
        ]
        merged = (tmp_path / "report-demo.csv").read_text(encoding="utf-8").splitlines()
        assert merged[0] == "seed,x,y"
        assert merged[1:] == ["0,0,0.5", "1,1,0.5"]

    def test_orders_by_experiment_then_seed(self, tmp_path):
        fake_run(tmp_path, "zeta", 0)
        fake_run(tmp_path, "alpha", 1)
        run_cli("report", tmp_path)
        report = strict_load(tmp_path / "report.json")
        assert [r["experiment"] for r in report["runs"]] == ["alpha", "zeta"]
        assert (tmp_path / "report-alpha.csv").exists()
        assert (tmp_path / "report-zeta.csv").exists()

    def test_skips_corrupt_summary_with_warning(self, tmp_path, capsys):
        fake_run(tmp_path, "demo", 0)
        broken = fake_run(tmp_path, "demo", 1)
        (broken / "summary.json").write_text("{not json", encoding="utf-8")
        assert run_cli("report", tmp_path) == 0
        capsys.readouterr()
        report = strict_load(tmp_path / "report.json")
        assert report["warnings"] == 1
        assert len(report["runs"]) == 1

    def test_skips_run_without_results_with_warning(self, tmp_path, capsys):
        fake_run(tmp_path, "demo", 0, rows=("0,0.5",))
        incomplete = fake_run(tmp_path, "demo", 1)
        (incomplete / "results.csv").unlink()
        assert run_cli("report", tmp_path) == 0
        assert "no results.csv" in capsys.readouterr().err
        report = strict_load(tmp_path / "report.json")
        assert report["warnings"] == 1
        assert [r["seed"] for r in report["runs"]] == [0]
        merged = (tmp_path / "report-demo.csv").read_text(encoding="utf-8").splitlines()
        assert merged == ["seed,x,y", "0,0,0.5"]

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        assert run_cli("report", tmp_path) == 2
        capsys.readouterr()

    def test_real_runs_round_trip(self, tmp_path):
        for seed in (0, 1):
            rc = run_cli(
                "run", "--experiment", "identities", "--samples", 20, "--seed", seed,
                "--out", tmp_path,
            )
            assert rc == 0
        assert run_cli("report", tmp_path) == 0
        merged = (tmp_path / "report-identities.csv").read_text(encoding="utf-8").splitlines()
        assert merged[0].startswith("seed,")
        assert {line.split(",")[0] for line in merged[1:]} == {"0", "1"}
        assert [r["seed"] for r in strict_load(tmp_path / "report.json")["runs"]] == [0, 1]

    def test_reads_an_old_run_with_bare_non_finite_numbers(self, tmp_path):
        run_dir = fake_run(tmp_path, "demo", 0)
        summary = {"experiment": "demo", "seed": 0, "metrics": {"a": math.inf, "b": math.nan}}
        (run_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        assert "Infinity" in (run_dir / "summary.json").read_text(encoding="utf-8")
        assert run_cli("report", tmp_path) == 0
        report = strict_load(tmp_path / "report.json")
        assert report["runs"][0]["metrics"] == {"a": "inf", "b": "nan"}


class TestAtomicArtifacts:
    CONFIG = cli.RunConfig("identities")

    @staticmethod
    def result(rows):
        return cli.RunResult(tuple(rows), {"worst": 0.5}, ())

    def test_failed_rewrite_keeps_previous_artifacts(self, tmp_path):
        config = dataclasses.replace(self.CONFIG, out=str(tmp_path))
        run_dir = cli.write_artifacts(config, self.result([{"a": 1, "b": 2.5}]))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        # enough rows to reach the file before the row without a "b" cell
        rows = [{"a": i, "b": i / 7.0} for i in range(20_000)] + [{"a": -1}]
        with pytest.raises(KeyError):
            cli.write_artifacts(config, self.result(rows))
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_failed_report_keeps_previous_merged_csv(self, tmp_path):
        run_dir = fake_run(tmp_path, "demo", 0)
        assert run_cli("report", tmp_path) == 0
        merged = tmp_path / "report-demo.csv"
        before = merged.read_bytes()
        good = "x,y\n" + "1,2.5\n" * 20_000
        (run_dir / "results.csv").write_bytes(good.encode("utf-8") + b"\xff\n")
        with pytest.raises(UnicodeDecodeError):
            cli.emit_report(tmp_path)
        assert merged.read_bytes() == before
        assert not list(tmp_path.glob(".*.tmp"))

    @pytest.mark.parametrize(
        "content, message",
        [(b"x,y\n\xff\n", "can't decode byte 0xff"), (b"", "results.csv is empty")],
        ids=["undecodable", "empty"],
    )
    def test_unreadable_run_replaces_no_artifact(self, tmp_path, capsys, content, message):
        fake_run(tmp_path, "demo", 0)
        assert run_cli("report", tmp_path) == 0
        broken = fake_run(tmp_path, "demo", 1)
        (broken / "results.csv").write_bytes(content)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert set(before) == {"report.json", "report-demo.csv"}
        assert run_cli("report", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_artifact_bytes_are_unchanged(self, tmp_path):
        config = dataclasses.replace(self.CONFIG, out=str(tmp_path))
        rows = [{"a": 1, "b": 0.1}, {"a": True, "b": 2.0}]
        run_dir = cli.write_artifacts(config, self.result(rows))
        assert (run_dir / "results.csv").read_bytes() == b"a,b\n1,0.1\ntrue,2.0\n"
        text = (run_dir / "summary.json").read_text(encoding="utf-8")
        assert text.endswith("}\n") and json.loads(text, parse_constant=reject_constant)["metrics"] == {"worst": 0.5}


class TestGates:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=="])
    def test_nan_fails_every_comparison(self, op):
        gate = cli.Gate("x", op, 1.0)
        assert not gate.holds({"x": math.nan})
        assert not cli.RunResult(({"a": 1},), {"x": math.nan}, (gate,)).passed

    def test_no_gate_passes(self):
        assert cli.RunResult(({"a": 1},), {}, ()).passed

    def test_summary_records_each_gate(self, tmp_path):
        config = cli.RunConfig("identities", out=str(tmp_path))
        gates = (cli.Gate("x", "<=", 4.0), cli.Gate("y", "==", True))
        result = cli.RunResult(({"a": 1},), {"x": math.inf, "y": True}, gates)
        summary = read_summary(cli.write_artifacts(config, result))
        assert summary["gates"] == [
            {
                "metric": "x",
                "op": "<=",
                "bound": 4.0,
                "measured": "inf",
                "margin": None,
                "pass": False,
            },
            {
                "metric": "y",
                "op": "==",
                "bound": True,
                "measured": True,
                "margin": None,
                "pass": True,
            },
        ]
        assert summary["pass"] is False

    @pytest.mark.parametrize(
        "op, measured, margin",
        [("<", 1.0, 3.0), ("<=", 5.0, -1.0), (">", 4.5, 0.5), (">=", 3.0, -1.0), ("==", 4.0, None)],
    )
    def test_margin_is_positive_on_the_passing_side(self, op, measured, margin):
        assert cli.Gate("x", op, 4.0).margin({"x": measured}) == margin
        assert cli.Gate("x", op, 4.0).margin({"x": -math.inf}) is None

    def test_run_records_each_gate_margin(self, tmp_path):
        argv = ("--experiment", "divergence", "--samples", 64, "--override", "L=16")
        assert run_cli("run", *argv, "--out", tmp_path) in (0, 1)
        summary = read_summary(tmp_path / "divergence-seed0")
        slope = summary["metrics"]["slope_dyadic_blocks"]
        gates = {(g["metric"], g["op"]): g for g in summary["gates"]}
        assert gates["slope_dyadic_blocks", "<="]["margin"] == 0.30 - slope
        assert gates["slope_dyadic_blocks", ">="]["margin"] == slope - 0.20
        assert gates["divergent_at_2_5", "=="]["margin"] is None
        # the CSV carries no margin
        header = (tmp_path / "divergence-seed0" / "results.csv").read_text().splitlines()[0]
        assert "margin" not in header


class TestPredictions:
    """Every n-dependent gate is a formula in ``knapp.critical_exponent(n)``;
    at n = 3 each comes out as the exact n = 3 float."""

    CHEAP = dict(deltas=(0.0625, 0.03125, 0.015625), samples=64, overrides=(("m_x", 2),))

    @pytest.mark.parametrize(
        "p, slope, tol", [(1.5, -1.0 / 3.0, 0.1), (2.0, 0.0, 0.05), (3.0, 1.0 / 3.0, 0.1)]
    )
    def test_knapp_targets_at_n3(self, p, slope, tol):
        result = cli.run_experiment(cli.RunConfig("knapp-exponent", p=p, **self.CHEAP))
        assert (result.metrics["expected_slope"], result.metrics["tolerance"]) == (slope, tol)
        assert result.gates == (cli.Gate("fitted", "==", True), cli.Gate("slope_gap", "<=", tol))

    def test_divergence_window_and_oracle_at_n3(self):
        config = cli.RunConfig("divergence", samples=64, overrides=(("L", 16),))
        result = cli.run_experiment(config)
        assert result.gates == (
            cli.Gate("slope_dyadic_blocks", ">=", 0.2),
            cli.Gate("slope_dyadic_blocks", "<=", 0.3),
            cli.Gate("l2_relative_gap", "<=", 0.01),
            cli.Gate("divergent_at_2_5", "==", True),
        )
        assert result.metrics["l2_oracle"] == 8.347606673784481

    def test_glpnorm_bound_at_n3(self):
        result = cli.run_experiment(cli.RunConfig("glpnorm", p=2.0))
        bound = 0.01 * math.sqrt(8 * math.pi * 4 * math.log(2))
        assert result.gates == (cli.Gate("gap", "<=", bound),)

    # n = 4 runs in acceptance criterion 14
    @pytest.mark.parametrize("n, p", [(5, 1.5), (5, 2.0), (3, 1.2), (3, 2.5)])
    def test_knapp_exponent_passes(self, tmp_path, capsys, n, p):
        argv = ("--experiment", "knapp-exponent", "--n", n, "--p", p, "--out", tmp_path)
        assert run_cli("run", *argv) == 0

    @pytest.mark.parametrize("experiment", ["divergence", "glpnorm"])
    def test_norm_experiments_pass_at_n5(self, tmp_path, capsys, experiment):
        n, p_c = 5, knapp.critical_exponent(5)
        at_p = ("--p", repr(p_c)) if experiment == "glpnorm" else ()
        argv = ("--experiment", experiment, "--n", n, *at_p, "--out", tmp_path)
        assert run_cli("run", *argv) == 0
        gates = read_summary(tmp_path / f"{experiment}-seed0")["gates"]
        assert len(gates) == (4 if experiment == "divergence" else 1)


class TestHelpers:
    def test_cell_formats(self):
        assert cli._cell(True) == "true"
        assert cli._cell(False) == "false"
        assert cli._cell(3) == "3"
        assert cli._cell(0.1) == "0.1"
        assert cli._cell(2.0**-9) == "0.001953125"

    def test_delta_grid_sorted_unique_descending(self):
        assert cli._parse_delta_grid("0.25,0.5,0.25") == (0.5, 0.25)
        # the parser keeps an empty grid; RunConfig states the rule once:
        # every experiment returns at least one row, which needs a delta
        assert cli._parse_delta_grid(",") == ()
        with pytest.raises(ValueError, match="empty delta grid"):
            cli.RunConfig("explore-unrefined", deltas=())

    def test_override_parsing(self):
        assert cli._parse_overrides(["a=1", "b=0.5"]) == (("a", 1.0), ("b", 0.5))
        with pytest.raises(ValueError):
            cli._parse_overrides(["a"])
        with pytest.raises(ValueError):
            cli._parse_overrides(["a=x"])

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (3.0, 3),
            (0.0, "override pairs must be at least 1, got 0"),
            (2.5, "override pairs must be an integer, got 2.5"),
            (math.inf, "override pairs must be an integer, got inf"),
        ],
    )
    def test_override_is_a_count(self, raw, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                cli._count_override("pairs", raw)
        else:
            value = cli._count_override("pairs", raw)
            assert value == expected and type(value) is int


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "homoeoid.cli",
                "run",
                "--experiment",
                "identities",
                "--samples",
                "20",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "identities: pass" in proc.stdout

    def test_package_import_loads_cli_lazily(self):
        code = (
            "import sys, homoeoid; "
            "assert 'homoeoid.cli' not in sys.modules; "
            "assert callable(homoeoid.cli.main)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # runpy warns when the package has already imported the module it runs
        proc = subprocess.run(
            [sys.executable, "-m", "homoeoid.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_cli_import_loads_no_scipy_integrate_or_special(self):
        # quad, betainc and betaincinv are imported by the functions that use them
        code = (
            "import sys, homoeoid.cli; "
            "loaded = [m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules]; "
            "assert not loaded, loaded"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_three_dimensional_shell_experiments_load_no_scipy(self):
        # at n = 3 the zone law is uniform and the linkage is numpy's; the
        # clusters run keeps several points, so its linkage stage runs
        code = (
            "import sys\n"
            "from homoeoid.cli import RunConfig, run_experiment\n"
            "runs = [\n"
            "    RunConfig('volume-bound', deltas=(2.0**-5, 2.0**-6, 2.0**-7), samples=2000,\n"
            "              overrides=(('pairs', 1),)),\n"
            "    RunConfig('clusters', samples=1 << 20, overrides=(('configs', 1),)),\n"
            "    RunConfig('knapp-exponent', deltas=(2.0**-4, 2.0**-5, 2.0**-6), samples=64,\n"
            "              overrides=(('m_x', 2),)),\n"
            "    RunConfig('explore-unrefined', samples=2000, overrides=(('pairs', 1),)),\n"
            "]\n"
            "results = [run_experiment(config) for config in runs]\n"
            "assert min(row['accepted'] for row in results[1].rows) >= 2\n"
            "loaded = [m for m in ('scipy.special', 'scipy.cluster', 'scipy.spatial')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_short_divergence_fits_no_offset_and_warns_nothing(self, tmp_path):
        # L=16 gives three dyadic sums for the three-parameter offset fit
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "homoeoid.cli",
                "run",
                "--experiment",
                "divergence",
                "--samples",
                "64",
                "--override",
                "L=16",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""
        summary = read_summary(tmp_path / "divergence-seed0")
        assert summary["metrics"]["slope_offset_fit"] is None

    def test_divergence_records_shell_diagnostics(self, tmp_path):
        rc = run_cli(
            "run", "--experiment", "divergence", "--samples", "64", "--override", "L=16",
            "--out", tmp_path,
        )
        assert rc in (0, 1)
        summary = read_summary(tmp_path / "divergence-seed0")
        x, r = knapp.sample_tangency_set(1, seed=0)
        series = knapp.shell_partial_sums(x[0], r[0], 16, 64, seed=0)
        metrics = summary["metrics"]
        # shell 1 lies outside the profile's support, so it is flagged
        assert metrics["low_confidence_shells"] == int(np.sum(series.low_confidence)) >= 1
        assert metrics["min_survivors"] == int(np.min(series.survivors)) == 0
        assert metrics["max_normal_extent"] == float(np.max(series.normal_extent))
        diagnostics = {"low_confidence_shells", "min_survivors", "max_normal_extent"}
        assert not diagnostics & {gate["metric"] for gate in summary["gates"]}
