"""Reproducible Monte Carlo sampling against the exact quantities."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stochparity import (
    Outcome,
    Owner,
    SimulationError,
    estimate_value,
    memoryless,
    prune_superfluous,
    reset_transform,
    reset_windows,
    sample_play,
    simulate_deviations,
    stream,
)
from stochparity import fixtures as fx
from stochparity import simulate
from stochparity.simulate import _chunks, _stderr

H = Fraction(1, 2)


class TestStream:
    def test_key_layout(self):
        # one independent Philox stream per worker: low word is the seed,
        # high word the worker index
        key = stream(5, 3).bit_generator.state["state"]["key"]
        assert list(key) == [5, 3]

    def test_negative_seed_wraps(self):
        key = stream(-1, 0).bit_generator.state["state"]["key"]
        assert list(key) == [2**64 - 1, 0]

    def test_workers_get_distinct_streams(self):
        a = stream(9, 0).integers(0, 2**32, size=8)
        b = stream(9, 1).integers(0, 2**32, size=8)
        assert list(a) != list(b)

    def test_same_args_same_stream(self):
        a = stream(9, 0).integers(0, 2**32, size=8)
        b = stream(9, 0).integers(0, 2**32, size=8)
        assert list(a) == list(b)


class TestSamplePlay:
    def test_deterministic_win(self, g1):
        sigma = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
        for seed in range(20):
            rec = sample_play(g1, sigma, fx.trivial_min(g1), "a", seed)
            assert rec.trace == ("a", "w")
            assert rec.outcome is Outcome.WIN
            assert rec.absorbed_bscc == frozenset({("w", "m0", "m0")})
            assert rec.first_deviation is None

    def test_deterministic_loss(self, g1):
        sigma = memoryless(g1, Owner.MAX, {"a": "l", "w": "w", "l": "l"})
        rec = sample_play(g1, sigma, fx.trivial_min(g1), "a", 0)
        assert rec.trace == ("a", "l")
        assert rec.outcome is Outcome.LOSE

    def test_reproducible(self, g3, sigma3):
        tau = fx.trivial_min(g3)
        for seed in (0, 1, 17, 123456789):
            a = sample_play(g3, sigma3, tau, "s", seed)
            b = sample_play(g3, sigma3, tau, "s", seed)
            assert a == b

    def test_trace_is_legal(self, g3, sigma3):
        tau = fx.trivial_min(g3)
        for seed in range(30):
            rec = sample_play(g3, sigma3, tau, "s", seed)
            assert rec.trace[0] == "s"
            for a, b in zip(rec.trace, rec.trace[1:]):
                assert g3.has_edge(a, b)
            assert rec.outcome in (Outcome.WIN, Outcome.LOSE)
            # sigma3 stops after at most three coin rounds
            assert len(rec.trace) <= 9

    def test_truncation(self, g3, sigma3):
        rec = sample_play(g3, sigma3, fx.trivial_min(g3), "s", 0, horizon=1)
        assert rec.outcome is Outcome.TRUNCATED
        assert rec.absorbed_bscc is None
        assert len(rec.trace) == 2

    def test_loss_statistics(self, g3, sigma3):
        # about one play in eight should walk into the sink
        tau = fx.trivial_min(g3)
        losses = sum(
            sample_play(g3, sigma3, tau, "s", seed).outcome is Outcome.LOSE
            for seed in range(400)
        )
        assert 20 <= losses <= 80

    def test_bad_args(self, g3, sigma3):
        with pytest.raises(ValueError):
            sample_play(g3, sigma3, fx.trivial_min(g3), "s", 0, horizon=0)


class TestEstimateValue:
    def test_sure_win_is_exact(self, g1):
        sigma = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
        res = estimate_value(g1, sigma, fx.trivial_min(g1), "a", 10, seed=0)
        assert res.estimate == 1
        assert res.stderr == 0
        assert res.n == 10
        assert res.truncated == 0

    def test_single_sample(self, g2):
        res = estimate_value(g2, fx.trivial_max(g2), fx.trivial_min(g2), "r", 1, seed=3)
        assert res.estimate in (Fraction(0), Fraction(1))

    def test_reproducible(self, g2):
        args = (g2, fx.trivial_max(g2), fx.trivial_min(g2), "r", 500)
        assert estimate_value(*args, seed=11) == estimate_value(*args, seed=11)
        assert estimate_value(*args, seed=11) != estimate_value(*args, seed=12)

    def test_workers_reproducible(self, g2):
        args = (g2, fx.trivial_max(g2), fx.trivial_min(g2), "r", 300)
        for workers in (1, 2, 3):
            a = estimate_value(*args, seed=5, workers=workers)
            b = estimate_value(*args, seed=5, workers=workers)
            assert a == b
            assert abs(a.estimate - H) < Fraction(1, 8)

    def test_close_to_exact_coin(self, g2):
        res = estimate_value(g2, fx.trivial_max(g2), fx.trivial_min(g2), "r", 10_000, seed=1)
        assert abs(res.estimate - H) <= 3 * res.stderr
        assert res.truncated == 0

    def test_close_to_exact_retry(self, g3, sigma3):
        res = estimate_value(g3, sigma3, fx.trivial_min(g3), "s", 10_000, seed=1)
        assert abs(res.estimate - Fraction(7, 8)) <= 3 * res.stderr

    def test_truncated_excluded_from_estimate(self, g3, sigma3):
        # with a three-step horizon the only finished plays are wins
        res = estimate_value(g3, sigma3, fx.trivial_min(g3), "s", 200, seed=2, horizon=3)
        assert res.estimate == 1
        assert 0 < res.truncated < 200

    def test_all_truncated(self, g3, sigma3):
        with pytest.raises(SimulationError):
            estimate_value(g3, sigma3, fx.trivial_min(g3), "s", 20, seed=0, horizon=1)

    def test_bad_args(self, g2):
        tau = fx.trivial_min(g2)
        sig = fx.trivial_max(g2)
        with pytest.raises(ValueError):
            estimate_value(g2, sig, tau, "r", 0, seed=0)
        with pytest.raises(ValueError):
            estimate_value(g2, sig, tau, "r", 10, seed=0, workers=0)


class TestStderr:
    def test_exact_half(self):
        assert _stderr(H, 10_000) == Fraction(1, 200)

    def test_degenerate(self):
        assert _stderr(Fraction(0), 5) == 0
        assert _stderr(Fraction(1), 5) == 0

    def test_floor_property(self):
        import random

        rng = random.Random(0)
        tick = Fraction(1, 10**12)
        for _ in range(50):
            p = Fraction(rng.randrange(0, 100), 100)
            n = rng.randrange(1, 10**6)
            s = _stderr(p, n)
            var = p * (1 - p) / n
            assert s * s <= var < (s + tick) * (s + tick)

    def test_chunks(self):
        assert _chunks(10, 3) == [4, 3, 3]
        assert _chunks(2, 5) == [1, 1, 0, 0, 0]
        assert sum(_chunks(1000, 7)) == 1000
        with pytest.raises(ValueError):
            _chunks(5, 0)


class TestSimulateDeviations:
    def test_sigma3(self, g3, sigma3, sol3):
        stats = simulate_deviations(
            g3, sigma3, fx.trivial_min(g3), sol3.values, sol3.m, "s", 10_000, seed=1
        )
        # the only reachable deviated pair is hit at step 4, with chance 1/4
        assert set(stats.histogram) == {4}
        assert stats.histogram[4] == stats.empirical_p * stats.n
        assert abs(stats.empirical_p - Fraction(1, 4)) < Fraction(2, 100)
        assert stats.truncated == 0
        assert stats.n == 10_000

    def test_reproducible(self, g3, sigma3, sol3):
        args = (g3, sigma3, fx.trivial_min(g3), sol3.values, sol3.m, "s", 500)
        assert simulate_deviations(*args, seed=4) == simulate_deviations(*args, seed=4)

    def test_no_deviation_possible(self, g1, sol1):
        sigma = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
        stats = simulate_deviations(
            g1, sigma, fx.trivial_min(g1), sol1.values, sol1.m, "a", 100, seed=0
        )
        assert stats.empirical_p == 0
        assert stats.histogram == {}

    def test_truncated_counts_as_non_deviated(self, g3, sigma3, sol3):
        stats = simulate_deviations(
            g3, sigma3, fx.trivial_min(g3), sol3.values, sol3.m, "s",
            400, seed=3, horizon=2,
        )
        assert stats.empirical_p == 0
        assert stats.histogram == {}
        assert 100 < stats.truncated < 300


class TestRepairedStrategyUnderSampling:
    def test_never_walks_into_the_sink(self, g3, sigma3, sol3):
        g3p = prune_superfluous(g3, sol3.values)
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        tau = fx.trivial_min(g3p)
        for seed in range(50):
            rec = sample_play(g3p, reset.strategy, tau, "s", seed)
            assert "l" not in rec.trace
            assert rec.outcome is Outcome.WIN

    def test_window_starts_on_sampled_traces(self, g3, sigma3, sol3):
        g3p = prune_superfluous(g3, sol3.values)
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        tau = fx.trivial_min(g3p)
        for seed in range(30):
            rec = sample_play(g3p, reset.strategy, tau, "s", seed, horizon=60)
            starts = reset_windows(reset, rec.trace)
            assert starts == sorted(starts)
            for i in range(1, len(rec.trace) + 1):
                assert reset.strategy.read(rec.trace[:i]) == reset.base.read(
                    rec.trace[starts[i - 1] : i]
                )


class TestWorkersPastN:
    def test_same_result_with_n_streams(self, g3, sigma3, sol3, monkeypatch):
        n = 40
        tau = fx.trivial_min(g3)
        value_args = (g3, sigma3, tau, "s", n, 9)
        deviation_args = (g3, sigma3, tau, sol3.values, sol3.m, "s", n, 9)
        base = estimate_value(*value_args, workers=n)
        base_dev = simulate_deviations(*deviation_args, workers=n)

        real = simulate._chunks

        def guarded(n_plays, workers):
            # fail fast instead of sizing a list by a huge worker count
            assert workers <= n_plays
            return real(n_plays, workers)

        monkeypatch.setattr(simulate, "_chunks", guarded)
        for workers in (n + 3, 10**12):
            assert estimate_value(*value_args, workers=workers) == base
            assert simulate_deviations(*deviation_args, workers=workers) == base_dev
