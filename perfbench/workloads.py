"""The benchmark's workloads, each a fixed list of units built from a seed.

A unit is one top-level call shape of an acceptance protocol: the same ``m``,
``delta``, ``N``, net and seed derivation as ``tests/test_acceptance.py``,
with only the repetition counts (configs, pairs, trials, points) cut down so
that a pass fits the benchmark's run length.  Seed 0 reproduces the
acceptance inputs.  The program receives only the inputs built here.

Each unit returns the bytes that must not change between passes (the CSV
body that ``cli.write_artifacts`` writes, or the ``repr`` of the returned
floats) and the figures its gate reads.  Gates that hold by construction
(domination, covering, the divergence oracle) are checked at every seed;
statistical gates only at seed 0, where the acceptance protocol fixes them.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Callable

from homoeoid.cli import RunConfig, run_experiment, write_artifacts
from homoeoid.geometry import covering_margin, restricted_radii_box
from homoeoid.maximal import RadiiNet, bump_mixture_family, domination_check
from homoeoid.mc import derive_stream, rng_stream
from homoeoid.multiplicity import direct_overlap_l2, generate_family, overlap_l2
from homoeoid.volumes import reference_shell_sampler

# Repetition counts per size.  "full" is what the benchmark times; "tiny"
# keeps every code path for the benchmark's own tests.
SIZES = {
    "full": {
        "cluster_configs": 1,
        "cluster_samples": 1 << 21,
        "volume_pairs": 1,
        "volume_samples": 100_000,
        "volume_deltas": None,
        "l2_family": 1,
        "l2_deltas": None,
        "l2_samples": None,
        "l2_points": 8,
        "mult_deltas": (2.0**-4, 2.0**-5, 2.0**-6),
        "mult_samples": 4096,
        "oracle_samples": 1 << 21,
        "dom_points": 25,
        "cover_samples": 1_000_000,
        "div_shells": 1024,
        "div_samples": 256,
    },
    "tiny": {
        "cluster_configs": 1,
        "cluster_samples": 1 << 16,
        "volume_pairs": 1,
        "volume_samples": 2000,
        "volume_deltas": (2.0**-5, 2.0**-6),
        "l2_family": 1,
        "l2_deltas": (2.0**-4, 2.0**-5, 2.0**-6),
        "l2_samples": 128,
        "l2_points": 4,
        "mult_deltas": (2.0**-4, 2.0**-5, 2.0**-6),
        "mult_samples": 256,
        "oracle_samples": 1 << 16,
        "dom_points": 2,
        "cover_samples": 10_000,
        "div_shells": 64,
        "div_samples": 64,
    },
}


@dataclasses.dataclass(frozen=True)
class Unit:
    """One top-level call.  ``run(out_dir)`` returns ``(body, figures)``."""

    name: str
    run: Callable[[Path], tuple[bytes, dict]]
    gate: Callable[[dict], bool]
    gate_every_seed: bool = False


def _cli_unit(name: str, config: RunConfig, gate, gate_every_seed: bool = False) -> Unit:
    def run(out_dir: Path) -> tuple[bytes, dict]:
        cfg = dataclasses.replace(config, out=str(out_dir))
        result = run_experiment(cfg)
        run_dir = write_artifacts(cfg, result)
        return (run_dir / "results.csv").read_bytes(), dict(result.metrics)

    return Unit(name, run, gate, gate_every_seed)


def _floats(*values: float) -> bytes:
    return ",".join(repr(float(v)) for v in values).encode()


def _large_batch(seed: int, size: dict) -> list[Unit]:
    """Criteria 6, 4, 12 and 11's covering margin: clusters at 2^21,
    volume-bound at 1e5, l2-growth, and one 1e6-point shell sample."""

    def covering(out_dir: Path) -> tuple[bytes, dict]:
        omega = reference_shell_sampler(2.0**-5, 3)(
            rng_stream(seed, derive_stream("cover")), size["cover_samples"]
        )
        margin = float(covering_margin(omega).min())
        return _floats(margin), {"margin": margin}

    return [
        _cli_unit(
            "clusters",
            RunConfig(
                "clusters",
                seed=seed,
                samples=size["cluster_samples"],
                overrides=(("configs", size["cluster_configs"]),),
            ),
            lambda f: f["max_cluster_count"] <= 16 and f["halving_ratio"] <= 2.0,
        ),
        _cli_unit(
            "volume-bound",
            RunConfig(
                "volume-bound",
                seed=seed,
                deltas=size["volume_deltas"],
                samples=size["volume_samples"],
                overrides=(("pairs", size["volume_pairs"]),),
            ),
            lambda f: f["drift"] <= 4.0,
        ),
        _cli_unit(
            "l2-growth",
            RunConfig(
                "l2-growth",
                seed=seed,
                deltas=size["l2_deltas"],
                samples=size["l2_samples"],
                overrides=(
                    ("family_size", size["l2_family"]),
                    ("x_samples", size["l2_points"]),
                ),
            ),
            lambda f: f["slope"] <= 0.15,
        ),
        Unit("covering", covering, lambda f: f["margin"] >= 0.0, gate_every_seed=True),
    ]


def _pair_scan(seed: int, size: dict) -> list[Unit]:
    """Criterion 8: the multiplicity scan and the N=8 pairwise-vs-direct
    check of the refined variant.  Criteria 11 and 10: domination on a
    prefix of the frozen points and the divergence series, whose thousands
    of keyed 256-sample streams make per-call cost dominant."""
    family = generate_family(0, 2.0**-4, 8, seed=seed)
    field = bump_mixture_family(3, components=6, seed=seed)(0)
    lo, hi = restricted_radii_box(3)
    net = RadiiNet(lo, hi, hi[0] - lo[0])
    points = rng_stream(seed, derive_stream("dom-x")).uniform(-0.4, 0.4, (1000, 3))
    points = points[: size["dom_points"]]

    def oracle(out_dir: Path) -> tuple[bytes, dict]:
        pairwise = overlap_l2(family, m=4096, seed=seed)
        direct = direct_overlap_l2(family, m=size["oracle_samples"], seed=seed)
        z = abs(pairwise.value - direct.value) / math.hypot(
            pairwise.std_error, direct.std_error
        )
        body = _floats(pairwise.value, pairwise.std_error, direct.value, direct.std_error)
        return body, {"z": z}

    def domination(out_dir: Path) -> tuple[bytes, dict]:
        worst = domination_check(field, points, 2.0**-5, net, m=256, seed=seed)
        return _floats(worst), {"violation": worst}

    return [
        _cli_unit(
            "multiplicity",
            RunConfig(
                "multiplicity",
                seed=seed,
                deltas=size["mult_deltas"],
                samples=size["mult_samples"],
                overrides=(("trials", 1),),
            ),
            lambda f: f["drift"] <= 4.0,
        ),
        Unit("overlap-oracle", oracle, lambda f: f["z"] <= 3.0),
        Unit("domination", domination, lambda f: f["violation"] <= 0.0, gate_every_seed=True),
        # The top-window slope fails by design (the README's known failure):
        # it is recorded in the figures but only the oracle gap and the
        # p=2.5 divergence are gated.
        _cli_unit(
            "divergence",
            RunConfig(
                "divergence",
                seed=seed,
                samples=size["div_samples"],
                overrides=(("L", size["div_shells"]),),
            ),
            lambda f: f["l2_relative_gap"] <= 0.01 and f["divergent_at_2_5"],
            gate_every_seed=True,
        ),
    ]


WORKLOADS = {
    "large-batch": _large_batch,
    "pair-scan": _pair_scan,
}


def build(workload: str, seed: int, size: str = "full") -> list[Unit]:
    """The units of ``workload`` with inputs generated from ``seed``."""
    return WORKLOADS[workload](seed, SIZES[size])
