"""Tests for the deterministic Monte-Carlo engine."""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homoeoid import mc


class TestStreams:
    def test_same_key_same_draws(self):
        a = mc.rng_stream(12345, 7).random(16)
        b = mc.rng_stream(12345, 7).random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = mc.rng_stream(12345, 7).random(16)
        b = mc.rng_stream(12345, 8).random(16)
        assert not np.array_equal(a, b)

    def test_derive_stream_is_stable(self):
        # frozen: a silent change to the derivation would break cross-version
        # reproducibility of every seeded experiment
        assert mc.derive_stream("chunk", 0, 0) == 9462907069811815415
        assert mc.derive_stream("volume", 0.25, 1.5) == 6275126827108224276

    def test_derive_stream_array_ids_are_stable(self):
        # frozen array keys: shell-series context, a non-contiguous view, an
        # int array (hashed as floats) and both signed zeros
        assert (
            mc.derive_stream(
                "shell-series", 1, np.array([0.1, -0.0, 2.5]), np.array([1.0, 1.25, 1.5])
            )
            == 1545386841207419812
        )
        assert mc.derive_stream(np.arange(12.0).reshape(3, 4)[:, ::2]) == 3666961626806306715
        assert mc.derive_stream(np.array([1, 2, 3])) == 18136550018810629998
        assert mc.derive_stream(np.array([0.0])) == 5177874090837916900
        assert mc.derive_stream(np.array([-0.0])) == 15465070438398638370

    def test_prehashed_array_words_give_the_same_ids(self):
        # the shell series hashes its two arrays once and passes their words
        x, r = np.array([0.1, -0.0, 2.5]), np.array([1.0, 1.25, 1.5])
        xw, rw = mc.stream_word(x), mc.stream_word(r)
        assert mc.derive_stream("shell-series", 1, xw, rw) == 1545386841207419812
        for ell in (2, 17, 1024):
            assert mc.derive_stream("shell-series", ell, xw, rw) == mc.derive_stream(
                "shell-series", ell, x, r
            )
        for part in ("tag", 3, 0.25, -0.0, (1, np.array([2.0]))):
            assert mc.derive_stream(mc.stream_word(part)) == mc.derive_stream(part)

    def test_derive_stream_distinguishes_types_and_order(self):
        assert mc.derive_stream(1, 2) != mc.derive_stream(2, 1)
        assert mc.derive_stream(1) != mc.derive_stream(1.0)
        assert mc.derive_stream("a", 1) != mc.derive_stream("b", 1)

    def test_derive_stream_accepts_arrays(self):
        x = np.array([0.1, 0.2, 0.3])
        assert mc.derive_stream(x) == mc.derive_stream(np.array([0.1, 0.2, 0.3]))
        assert mc.derive_stream(x) != mc.derive_stream(np.array([0.1, 0.2, 0.31]))

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_rng_stream_accepts_full_range(self, seed, stream):
        gen = mc.rng_stream(seed, stream)
        assert 0.0 <= gen.random() < 1.0


def draws(gen):
    # an odd-length 32-bit draw first and last leaves half a word buffered,
    # and the normals and uniforms between leave the Philox block part used
    return (
        gen.integers(0, 1000, 3, dtype=np.int32),
        gen.standard_normal(5),
        gen.random(3),
        gen.integers(0, 2**40, 3),
        gen.integers(0, 1000, 1, dtype=np.int32),
    )


class TestStreamRekeyer:
    def test_consecutive_rekeys_draw_what_fresh_streams_draw(self):
        rekey = mc.stream_rekeyer(12345)
        for stream in range(200):
            got, want = draws(rekey(stream)), draws(mc.rng_stream(12345, stream))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_rekey_after_a_partly_used_buffer_starts_afresh(self):
        rekey = mc.stream_rekeyer(2**64 - 1)
        for stream in (7, 7, 2**64 - 1, 7):
            gen = rekey(stream)
            assert gen.integers(0, 1000, 1, dtype=np.int32)[0] == (
                mc.rng_stream(2**64 - 1, stream).integers(0, 1000, 1, dtype=np.int32)[0]
            )
            gen.standard_normal(3)  # leaves the block and the 32-bit half-word part used
        want = mc.rng_stream(2**64 - 1, 3)
        got = rekey(3)
        for a, b in zip(draws(got), draws(want)):
            np.testing.assert_array_equal(a, b)

    def test_returns_one_generator(self):
        rekey = mc.stream_rekeyer(1)
        assert rekey(1) is rekey(2)


class TestWorkerCount:
    def test_default(self, monkeypatch):
        # unset or empty: every CPU the process may run on
        monkeypatch.delenv("HOMOEOID_THREADS", raising=False)
        assert mc.worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.setenv("HOMOEOID_THREADS", "")
        assert mc.worker_count() == len(os.sched_getaffinity(0))

    def test_parses(self, monkeypatch):
        monkeypatch.setenv("HOMOEOID_THREADS", "4")
        assert mc.worker_count() == 4
        monkeypatch.setenv("HOMOEOID_THREADS", "1")
        assert mc.worker_count() == 1

    @pytest.mark.parametrize("raw", ["many", "0", "-2", "1.5"])
    def test_garbage_is_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("HOMOEOID_THREADS", raw)
        with pytest.raises(ValueError, match="HOMOEOID_THREADS"):
            mc.worker_count()


class TestOrderedMap:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_index_order_with_uneven_units(self, monkeypatch, workers):
        monkeypatch.setenv("HOMOEOID_THREADS", workers)
        threads = set()

        def unit(i):
            threads.add(threading.get_ident())
            time.sleep(0.002 * (7 - i))  # early units finish last
            return i * i

        assert mc.ordered_map(unit, 7) == [i * i for i in range(7)]
        if workers == "1":
            assert threads == {threading.get_ident()}
        else:
            assert len(threads) == 2 and threading.get_ident() not in threads

    def test_nested_call_runs_serially(self, monkeypatch):
        monkeypatch.setenv("HOMOEOID_THREADS", "2")

        def outer(i):
            here = threading.get_ident()
            inner = mc.ordered_map(lambda j: (threading.get_ident(), 10 * i + j), 3)
            assert all(ident == here for ident, _ in inner)
            return [value for _, value in inner]

        assert mc.ordered_map(outer, 4) == [[10 * i + j for j in range(3)] for i in range(4)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unit_exception_reaches_caller(self, monkeypatch, workers):
        monkeypatch.setenv("HOMOEOID_THREADS", workers)

        def unit(i):
            if i == 2:
                raise ValueError("unit 2 failed")
            return i

        with pytest.raises(ValueError, match="unit 2 failed"):
            mc.ordered_map(unit, 5)

    def test_single_unit_runs_on_the_caller(self, monkeypatch):
        monkeypatch.setenv("HOMOEOID_THREADS", "2")
        assert mc.ordered_map(lambda i: (i, threading.get_ident()), 1) == [
            (0, threading.get_ident())
        ]
        assert mc.ordered_map(lambda i: i, 0) == []


class TestMcMean:
    def test_uniform_mean(self):
        (est,) = mc.mc_mean(lambda rng, m: rng.random(m), 200_000, seed=11)
        assert est.n_samples == 200_000
        assert abs(est.value - 0.5) < 5 * est.std_error
        assert est.std_error == pytest.approx(np.sqrt(1 / 12 / 200_000), rel=0.05)

    def test_deterministic_across_worker_counts(self, monkeypatch):
        def run():
            return mc.mc_mean(
                lambda rng, m: rng.standard_normal(m) ** 2, 300_000, seed=5, stream=9
            )

        monkeypatch.setenv("HOMOEOID_THREADS", "1")
        serial = run()
        monkeypatch.setenv("HOMOEOID_THREADS", "7")
        threaded = run()
        assert serial == threaded  # bit-identical, not approximately equal

    def test_chunk_boundaries_do_not_skew(self):
        # n_samples deliberately not a multiple of the chunk size
        (est,) = mc.mc_mean(lambda rng, m: rng.random(m), 70_001, seed=3)
        assert abs(est.value - 0.5) < 6 * est.std_error

    def test_shared_batch_partition_is_exact(self):
        def classified(rng, m):
            x = rng.random(m)
            return np.stack([x < 0.3, (x >= 0.3) & (x < 0.7), x >= 0.7], axis=1)

        lo, mid, hi = mc.mc_mean(classified, 123_456, seed=21)
        assert lo.value + mid.value + hi.value == 1.0  # exact: shared samples

    def test_multi_output_matches_scalar_runs(self):
        def pair(rng, m):
            x = rng.random(m)
            return np.stack([x, x * x], axis=1)

        a, b = mc.mc_mean(pair, 10_000, seed=2, stream=4)
        (a_alone,) = mc.mc_mean(lambda rng, m: rng.random(m), 10_000, seed=2, stream=4)
        # same stream, same samples; summation order over a strided column may
        # differ from the contiguous case by a few ulp
        assert a.value == pytest.approx(a_alone.value, rel=1e-13)

    def test_standard_error_survives_a_large_offset(self, monkeypatch):
        # four chunks of 1e8 + U(0, 1): the variance is 1/12 whatever the offset
        monkeypatch.setenv("HOMOEOID_THREADS", "1")
        chunks = []

        def offset(rng, m):
            chunks.append(1e8 + rng.random(m))
            return chunks[-1]

        (est,) = mc.mc_mean(offset, 1 << 18, seed=0)
        assert len(chunks) == 4
        values = np.concatenate(chunks)
        two_pass = np.std(values - np.mean(values), ddof=1) / np.sqrt(values.size)
        assert est.std_error == pytest.approx(two_pass, rel=1e-9)
        assert est.std_error == pytest.approx(np.sqrt(1 / 12 / 2**18), rel=0.02)
        # the value is still the chunk-order total over n, bit for bit
        total = 0.0
        for chunk in chunks:
            total = total + np.sum(chunk)
        assert est.value == float(total / values.size)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.mc_mean(lambda rng, m: rng.random(m), 0, seed=1)
        with pytest.raises(ValueError):
            mc.mc_mean(lambda rng, m: rng.random(m + 1), 10, seed=1)

    @pytest.mark.parametrize("k", [None, 1, 3], ids=["(m,)", "(m, 1)", "(m, 3)"])
    def test_returns_one_estimate_per_column(self, k):
        def sample_fn(rng, m):
            x = rng.random(m)
            return x if k is None else np.stack([x] * k, axis=1)

        result = mc.mc_mean(sample_fn, 1000, seed=4)
        assert type(result) is tuple
        assert len(result) == (1 if k is None else k)
        assert all(isinstance(est, mc.MCEstimate) for est in result)


class TestFitPowerLaw:
    def test_recovers_exact_law(self):
        x = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        fit = mc.fit_power_law(x, 3.0 * x**1.7)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.max_abs_residual < 1e-12
        assert len(fit.points) == 5

    def test_points_are_logged(self):
        fit = mc.fit_power_law([1.0, np.e, np.e**2], [1.0, 1.0, 1.0])
        assert [p[0] for p in fit.points] == pytest.approx([0.0, 1.0, 2.0])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            mc.fit_power_law([1.0, 2.0], [1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mc.fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])

    @given(st.floats(-2, 2), st.floats(0.1, 10))
    def test_property_exact_power_laws(self, alpha, scale):
        x = np.array([1.0, 2.0, 5.0, 11.0])
        fit = mc.fit_power_law(x, scale * x**alpha)
        assert fit.slope == pytest.approx(alpha, abs=1e-9)
