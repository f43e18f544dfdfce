"""Reproducible Monte Carlo sampling against the exact quantities."""

from __future__ import annotations

import inspect
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from stochparity import (
    DeviationStats,
    Edge,
    EstimateResult,
    GameGraph,
    MealyStrategy,
    Outcome,
    Owner,
    PlayRecord,
    SimulationError,
    Vertex,
    absorption_probabilities,
    deviation_probabilities,
    deviation_states,
    estimate_value,
    memoryless,
    product_chain,
    random_game,
    prune_superfluous,
    reset_transform,
    reset_windows,
    sample_play,
    simulate_deviations,
    solve_game,
    stream,
    stubborn_strategy,
)
from stochparity import fixtures as fx
from stochparity import simulate
from stochparity.chains import ProductChain, _absorption
from stochparity.resets import _deviation_chain
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

    def test_negative_worker_index_rejected(self):
        with pytest.raises(ValueError, match="worker_index"):
            stream(9, -1)

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

    def test_bad_args(self, g1, g2, sol1):
        tau = fx.trivial_min(g2)
        sig = fx.trivial_max(g2)
        with pytest.raises(ValueError):
            estimate_value(g2, sig, tau, "r", 0, seed=0)
        with pytest.raises(ValueError):
            estimate_value(g2, sig, tau, "r", 10, seed=0, workers=0)
        # plays from the sink w draw nothing, and are still checked
        sig = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
        tau = fx.trivial_min(g1)
        with pytest.raises(ValueError):
            estimate_value(g1, sig, tau, "w", 10, seed=0, workers=0)
        with pytest.raises(ValueError):
            simulate_deviations(g1, sig, tau, sol1.values, sol1.m, "w", 10, 0, workers=-1)

    def test_memory_does_not_grow_with_the_plays(self, g3, sigma3):
        # plays are tallied as they end, or a bounded batch of draws at a
        # time on a chain with one branching state: a list of 10^6 plays
        # alone would hold 8 MB of pointers
        retry = retry_game(Fraction(1, 4), Fraction(1, 4))
        rows = []
        for g, sigma, start in ((g3, sigma3, "s"), (retry, fx.trivial_max(retry), "t")):
            tau = fx.trivial_min(g)
            chain = product_chain(g, sigma, tau, [start])
            rows.append(len(simulate._Sampler(chain, start).rows))
            estimate_value(g, sigma, tau, start, 10, seed=0)  # loads numpy untraced
            tracemalloc.start()
            try:
                res = estimate_value(g, sigma, tau, start, 10**6, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert res.n == 10**6 and res.truncated == 0
            assert peak < 10**6
        assert rows == [3, 1]


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


# ---------------------------------------------------------------------------
# differential oracle: the step-by-step walk the jumping sampler replaced


class ReferenceDraws:
    """Buffered draws read one numpy scalar at a time."""

    def __init__(self, gen, size=256):
        self.gen = gen
        self.size = size
        self.buffers = {}
        self.used = {}

    def below(self, den):
        i = self.used.get(den, 0)
        buf = self.buffers.get(den)
        if buf is None or i >= len(buf):
            buf = self.gen.integers(0, den, size=self.size)
            self.buffers[den] = buf
            i = 0
        self.used[den] = i + 1
        return int(buf[i])


class ReferenceSampler:
    """One step per move: every forced move is walked, every draw made in turn."""

    def __init__(self, chain, start_vertex):
        index = {s: i for i, s in enumerate(chain.states)}
        self.vertex = [s[0] for s in chain.states]
        self.start = index[chain.start[start_vertex]]
        self.absorbed = {}
        for c in chain.bsccs():
            win = min(chain.label[s] for s in c) % 2 == 0
            for s in c:
                self.absorbed[index[s]] = (Outcome.WIN if win else Outcome.LOSE, c)
        self.rows = []
        for s in chain.states:
            row = chain.transitions[s]
            if len(row) == 1:
                self.rows.append(index[row[0][0]])
            else:
                den = math.lcm(*(p.denominator for _, p in row))
                cum, cums, targets = 0, [], []
                for t, p in row:
                    cum += p.numerator * (den // p.denominator)
                    cums.append(cum)
                    targets.append(index[t])
                self.rows.append((den, cums, targets))

    def walk(self, draws, horizon, dev=frozenset()):
        """(trace, outcome, absorbed class, first-deviation step, stop) of one
        play: the stop is the index of the absorbed state, None if truncated."""
        idx, steps = self.start, 0
        trace = [self.vertex[idx]]
        first_dev = None
        while True:
            if first_dev is None and idx in dev:
                first_dev = steps
            hit = self.absorbed.get(idx)
            if hit is not None:
                outcome, c = hit
                stop = idx
                break
            if steps >= horizon:
                outcome, c, stop = Outcome.TRUNCATED, None, None
                break
            row = self.rows[idx]
            if isinstance(row, int):
                idx = row
            else:
                den, cums, targets = row
                u = draws.below(den)
                idx = next(t for cut, t in zip(cums, targets) if u < cut)
            steps += 1
            trace.append(self.vertex[idx])
        return tuple(trace), outcome, c, first_dev, stop


def reference_chunks(chain, start, n, seed, workers, horizon, dev=frozenset()):
    """Each worker's plays in order, as ((stop, steps), outcome, first
    deviation); a truncated play's key is (None, horizon), as the sampler's."""
    sampler = ReferenceSampler(chain, start)
    chunks = []
    for worker, quota in enumerate(simulate._chunks(n, min(workers, n))):
        draws = ReferenceDraws(stream(seed, worker))
        chunk = []
        for _ in range(quota):
            trace, outcome, _, first_dev, stop = sampler.walk(draws, horizon, dev)
            chunk.append(((stop, len(trace) - 1), outcome, first_dev))
        chunks.append(chunk)
    return chunks


def reference_plays(chain, start, n, seed, workers, horizon, dev=frozenset()):
    """(outcome, first deviation) of n plays, chunked over worker streams."""
    chunks = reference_chunks(chain, start, n, seed, workers, horizon, dev)
    return [(outcome, first_dev) for chunk in chunks for _, outcome, first_dev in chunk]


def assert_plays_match(chain, start, n, seed, workers, horizon, dev=frozenset(), every=1):
    """The jumping sampler's tallies against the oracle's plays, one by one.

    The tally of each worker's first k plays, for every k on a fresh
    stream, fixes every play in its order, and `_plays` must return the
    sum over the workers; on long runs only every `every`-th k and the
    last are tallied. Each play's stop must give the oracle's outcome and
    first-deviation date. Where the scan takes the chain (its rows share
    one denominator, and are at most four) and the first landing is below
    the horizon, `scan_plays` must give the same tallies or None, and None
    only where the plays include a truncated one.
    Returns how many tallies the scan made ("scanned"), how many of those
    hold truncated plays ("cut"), and how many it left to the loop
    ("walked").
    """
    sampler = simulate._Sampler(chain, start)
    first, first_steps, _ = sampler.first
    scan = sampler.scans and first in sampler.rows and first_steps < horizon
    used = Counter()
    chunks = reference_chunks(chain, start, n, seed, workers, horizon, dev)
    for worker, chunk in enumerate(chunks):
        want = Counter()
        for k, ((stop, steps), outcome, first_dev) in enumerate(chunk, 1):
            want[stop, steps] += 1
            got = Outcome.TRUNCATED if stop is None else sampler.absorbed[stop][0]
            assert (got, steps if stop in dev else None) == (outcome, first_dev)
            if k % every and k < len(chunk):
                continue
            assert sampler.plays(stream(seed, worker), k, horizon) == want
            if scan:
                tally = sampler.scan_plays(stream(seed, worker), k, horizon)
                assert tally == want or tally is None and want[None, horizon] > 0
                used["walked" if tally is None else "scanned"] += 1
                if tally is not None:
                    # keys print, so they must be Python ints, not numpy's
                    assert all(type(x) is int for key in tally for x in key if x is not None)
                    used["cut"] += want[None, horizon] > 0
    total = Counter(key for chunk in chunks for key, _, _ in chunk)
    assert simulate._plays(sampler, n, seed, workers, horizon) == total
    return used


def reference_estimate(plays, n):
    wins = sum(o is Outcome.WIN for o, _ in plays)
    truncated = sum(o is Outcome.TRUNCATED for o, _ in plays)
    if truncated == n:
        return None
    p = Fraction(wins, n - truncated)
    return EstimateResult(p, _stderr(p, n - truncated), n, truncated)


def reference_deviations(plays, n):
    dates = Counter(d for _, d in plays if d is not None)
    truncated = sum(o is Outcome.TRUNCATED and d is None for o, d in plays)
    return DeviationStats(
        Fraction(sum(dates.values()), n), dict(sorted(dates.items())), n, truncated
    )


HORIZONS = (1, 2, 3, 7, 10_000)


def differential_corpus():
    """(game, sigma, tau, solution) for G3 and 60 seeded 5-7-vertex games.

    Each random game's sigma is its Max witness switched at the first Max
    choice on that vertex's second visit, so plays carry memory and some
    (vertex, memory) pairs deviate.
    """
    g3 = fx.g3()
    cases = [(g3, fx.sigma3(), fx.trivial_min(g3), solve_game(g3))]
    for seed in range(60):
        g = random_game(seed, 5 + seed % 3, 3, 3, Fraction(1, 3))
        sol = solve_game(g)
        sigma = sol.sigma_star
        good = {v: sigma.move("m0", v) for v in g.owned_by(Owner.MAX)}
        pivot = next((v for v in good if len(g.successors[v]) > 1), None)
        if pivot is not None:
            bad = dict(good)
            bad[pivot] = next(w for w in g.successors[pivot] if w != good[pivot])
            sigma = stubborn_strategy(g, good, bad, pivot, 2)
        cases.append((g, sigma, sol.tau_star, sol))
    return cases


@pytest.fixture(scope="module")
def corpus():
    return differential_corpus()


class TestAgainstStepByStepWalk:
    def test_plays_match(self, corpus):
        compared, used = 0, Counter()
        for g, sigma, tau, sol in corpus:
            dev_pairs = (
                deviation_states(g, sigma, sol.values, sol.m)
                if sol.m != math.inf else frozenset()
            )
            for start in g.vertex_ids:
                chain = product_chain(g, sigma, tau, [start])
                dchain, absorbing = _deviation_chain(g, sigma, tau, dev_pairs, [start])
                dev = frozenset(i for i, s in enumerate(dchain.states) if s in absorbing)
                for horizon in HORIZONS:
                    for workers in (1, 3):
                        args = (start, 20, 7, workers, horizon)
                        used += assert_plays_match(chain, *args)
                        used += assert_plays_match(dchain, *args, dev)
                        compared += 1
        assert compared >= 61 * 5 * 5 * 2
        assert used["scanned"] > 0 and used["cut"] > 0 and used["walked"] > 0

    def test_estimates_and_deviation_stats_match(self, corpus, monkeypatch):
        # a game's deviated pairs are the same for every start, horizon and
        # worker count, so its quality table is built once, not per call
        tables = {}
        real = simulate.deviation_states

        def once(g, sigma, *args):
            if id(sigma) not in tables:
                tables[id(sigma)] = real(g, sigma, *args)
            return tables[id(sigma)]

        monkeypatch.setattr(simulate, "deviation_states", once)
        for g, sigma, tau, sol in corpus:
            dev_pairs = (
                deviation_states(g, sigma, sol.values, sol.m)
                if sol.m != math.inf else None
            )
            for start in g.vertex_ids:
                chain = product_chain(g, sigma, tau, [start])
                if dev_pairs is not None:
                    dchain, absorbing = _deviation_chain(
                        g, sigma, tau, dev_pairs, [start]
                    )
                    dev = frozenset(
                        i for i, s in enumerate(dchain.states) if s in absorbing
                    )
                for horizon in HORIZONS:
                    for workers in (1, 3):
                        n = 20
                        want = reference_estimate(
                            reference_plays(chain, start, n, 5, workers, horizon), n
                        )
                        args = (g, sigma, tau, start, n, 5, horizon, workers)
                        if want is None:
                            with pytest.raises(SimulationError):
                                estimate_value(*args)
                        else:
                            assert estimate_value(*args) == want
                        if dev_pairs is None:
                            continue
                        want_dev = reference_deviations(
                            reference_plays(dchain, start, n, 5, workers, horizon, dev),
                            n,
                        )
                        got = simulate_deviations(
                            g, sigma, tau, sol.values, sol.m, start, n, 5,
                            horizon=horizon, workers=workers,
                        )
                        assert got == want_dev

    def test_corpus_reaches_jumps_truncation_and_deviations(self, corpus):
        # the comparisons above are only as good as the cases they reach
        jumps = truncated = deviated = 0
        for g, sigma, tau, sol in corpus:
            if sol.m == math.inf:
                continue
            dev_pairs = deviation_states(g, sigma, sol.values, sol.m)
            for start in g.vertex_ids:
                chain, absorbing = _deviation_chain(g, sigma, tau, dev_pairs, [start])
                dev = frozenset(i for i, s in enumerate(chain.states) if s in absorbing)
                sampler = simulate._Sampler(chain, start)
                jumps += sum(
                    d > 1 for _, _, landings in sampler.rows.values()
                    for _, d, _ in landings
                )
                tally = simulate._plays(sampler, 20, 5, 1, 2)
                truncated += sum(k for (stop, _), k in tally.items() if stop is None)
                deviated += sum(k for (stop, _), k in tally.items() if stop in dev)
        assert jumps > 0 and truncated > 0 and deviated > 0

    def test_traces_match(self, corpus):
        for g, sigma, tau, _ in corpus:
            for start in g.vertex_ids:
                reference = ReferenceSampler(product_chain(g, sigma, tau, [start]), start)
                for horizon in HORIZONS[:4]:
                    for seed in range(3):
                        trace, outcome, c, _, _ = reference.walk(
                            ReferenceDraws(stream(seed, 0)), horizon
                        )
                        rec = sample_play(g, sigma, tau, start, seed, horizon)
                        assert rec == PlayRecord(trace, outcome, c, None)

    def test_sigma3_traces_truncated_and_not(self, g3, sigma3):
        tau = fx.trivial_min(g3)
        reference = ReferenceSampler(product_chain(g3, sigma3, tau, ["s"]), "s")
        kinds = set()
        for horizon in range(1, 10):
            for seed in range(20):
                trace, outcome, c, _, _ = reference.walk(
                    ReferenceDraws(stream(seed, 0)), horizon
                )
                rec = sample_play(g3, sigma3, tau, "s", seed, horizon)
                assert rec == PlayRecord(trace, outcome, c, None)
                assert len(rec.trace) <= horizon + 1
                kinds.add(rec.outcome)
        assert kinds == {Outcome.WIN, Outcome.LOSE, Outcome.TRUNCATED}


def forced_run_game(coin):
    """s -> a -> b -> x: a forced run of three moves from s to x.

    With `coin`, x is a Random vertex tossing a fair coin between the
    sinks w and l, so the run ends on a branching state; without, x is
    forced into l, so it ends on an absorbed one.
    """
    vertices = [
        Vertex("s", Owner.MAX, 1),
        Vertex("a", Owner.MAX, 1),
        Vertex("b", Owner.MAX, 1),
        Vertex("x", Owner.RANDOM if coin else Owner.MAX, 1),
        Vertex("w", Owner.MAX, 0),
        Vertex("l", Owner.MAX, 1),
    ]
    edges = [Edge("s", "a"), Edge("a", "b"), Edge("b", "x"), Edge("w", "w"), Edge("l", "l")]
    if coin:
        edges += [Edge("x", "w", H), Edge("x", "l", H)]
    else:
        edges.append(Edge("x", "l"))
    return GameGraph("forced-run", tuple(vertices), tuple(edges))


class TestJumpAtTheHorizon:
    # s is forced and three moves from x: the jump from s lands at step 3
    def test_lands_on_absorbed_target_exactly_at_horizon(self):
        g = GameGraph(
            "to-sink",
            (
                Vertex("s", Owner.MAX, 1),
                Vertex("a", Owner.MAX, 1),
                Vertex("b", Owner.MAX, 1),
                Vertex("w", Owner.MAX, 0),
            ),
            (Edge("s", "a"), Edge("a", "b"), Edge("b", "w"), Edge("w", "w")),
        )
        sigma, tau = fx.trivial_max(g), fx.trivial_min(g)
        rec = sample_play(g, sigma, tau, "s", 0, horizon=3)
        assert rec.trace == ("s", "a", "b", "w")
        assert rec.outcome is Outcome.WIN
        rec = sample_play(g, sigma, tau, "s", 0, horizon=2)
        assert rec.trace == ("s", "a", "b")
        assert rec.outcome is Outcome.TRUNCATED
        assert estimate_value(g, sigma, tau, "s", 5, 0, horizon=3).truncated == 0
        with pytest.raises(SimulationError):
            estimate_value(g, sigma, tau, "s", 5, 0, horizon=2)

    def test_forced_into_sink_through_forced_target(self):
        g = forced_run_game(coin=False)
        sigma, tau = fx.trivial_max(g), fx.trivial_min(g)
        assert sample_play(g, sigma, tau, "s", 0, horizon=4).trace == (
            "s", "a", "b", "x", "l",
        )
        rec = sample_play(g, sigma, tau, "s", 0, horizon=3)
        assert (rec.trace, rec.outcome) == (("s", "a", "b", "x"), Outcome.TRUNCATED)

    def test_branching_target_at_and_past_horizon(self):
        g = forced_run_game(coin=True)
        sigma, tau = fx.trivial_max(g), fx.trivial_min(g)
        chain = product_chain(g, sigma, tau, ["s"])
        for horizon in (2, 3, 4, 5):
            for seed in range(10):
                assert_plays_match(chain, "s", 6, seed, 2, horizon)
        # lands on x at step 3 = horizon, where it must stop before drawing
        rec = sample_play(g, sigma, tau, "s", 0, horizon=3)
        assert (rec.trace, rec.outcome) == (("s", "a", "b", "x"), Outcome.TRUNCATED)
        # one more step is enough to draw the coin
        rec = sample_play(g, sigma, tau, "s", 0, horizon=4)
        assert rec.trace[:4] == ("s", "a", "b", "x") and len(rec.trace) == 5
        assert rec.outcome is not Outcome.TRUNCATED
        rec = sample_play(g, sigma, tau, "s", 0, horizon=2)
        assert (rec.trace, rec.outcome) == (("s", "a", "b"), Outcome.TRUNCATED)

    def test_run_after_a_draw(self):
        # t draws between the sink l and the forced run a -> b -> w
        g = GameGraph(
            "draw-then-run",
            (
                Vertex("t", Owner.RANDOM, 1),
                Vertex("a", Owner.MAX, 1),
                Vertex("b", Owner.MAX, 1),
                Vertex("w", Owner.MAX, 0),
                Vertex("l", Owner.MAX, 1),
            ),
            (
                Edge("t", "a", H),
                Edge("t", "l", H),
                Edge("a", "b"),
                Edge("b", "w"),
                Edge("w", "w"),
                Edge("l", "l"),
            ),
        )
        sigma, tau = fx.trivial_max(g), fx.trivial_min(g)
        sampler = simulate._Sampler(product_chain(g, sigma, tau, ["t"]), "t")
        (_, _, landings), = sampler.rows.values()
        assert sorted(d for _, d, _ in landings) == [1, 3]
        chain = product_chain(g, sigma, tau, ["t"])
        seen = set()
        for horizon in (1, 2, 3, 4):
            for seed in range(20):
                assert_plays_match(chain, "t", 1, seed, 1, horizon)
                rec = sample_play(g, sigma, tau, "t", seed, horizon)
                seen.add((horizon, rec.trace, rec.outcome))
        # a play into the run truncates below horizon 3 after its first moves
        assert (2, ("t", "a", "b"), Outcome.TRUNCATED) in seen
        assert (3, ("t", "a", "b", "w"), Outcome.WIN) in seen
        assert (1, ("t", "a"), Outcome.TRUNCATED) in seen


def retry_game(win, lose):
    """t draws w behind the forced x (chance `win`), l (`lose`), or the
    forced run a -> b back to t (the rest).

    t is the chain's only branching state, and its landings on w, l and t
    are 2, 1 and 3 steps on.
    """
    vertices = [
        Vertex("t", Owner.RANDOM, 1),
        Vertex("x", Owner.MAX, 1),
        Vertex("a", Owner.MAX, 1),
        Vertex("b", Owner.MAX, 1),
        Vertex("w", Owner.MAX, 0),
        Vertex("l", Owner.MAX, 1),
    ]
    edges = [
        Edge("t", "x", win),
        Edge("t", "l", lose),
        Edge("t", "a", 1 - win - lose),
        Edge("x", "w"),
        Edge("a", "b"),
        Edge("b", "t"),
        Edge("w", "w"),
        Edge("l", "l"),
    ]
    return GameGraph("retry", tuple(vertices), tuple(edges))


def retry_chain(win=Fraction(1, 4), lose=Fraction(1, 4)):
    g = retry_game(win, lose)
    return product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["t"])


class TestOneRowScan:
    def test_retry_chain_has_one_row(self):
        sampler = simulate._Sampler(retry_chain(), "t")
        (row, (den, _, landings)), = sampler.rows.items()
        assert den == 4 and sorted(d for _, d, _ in landings) == [1, 2, 3]
        assert sampler.first[:2] == (row, 0)

    def test_plays_walks_one_row_chains_only_past_the_horizon(self, monkeypatch):
        sampler = simulate._Sampler(retry_chain(), "t")
        want = simulate._plays(sampler, 500, 3, 2, 10_000)
        walked = []
        real = simulate._Sampler.plays

        def recording(self, gen, n, horizon):
            walked.append((n, horizon))
            return real(self, gen, n, horizon)

        monkeypatch.setattr(simulate._Sampler, "plays", recording)
        assert simulate._plays(sampler, 500, 3, 2, 10_000) == want
        assert walked == []
        # a play back on t at step 3 is truncated there at horizon 2
        simulate._plays(sampler, 500, 3, 2, 2)
        assert walked == [(250, 2), (250, 2)]

    def test_runs_over_several_batches(self):
        # about two draws a play: 3000 plays need more than the 16 blocks
        # of one batch
        chain = retry_chain()
        gen = CountingGenerator(stream(2, 0))
        simulate._Sampler(chain, "t").scan_plays(gen, 3000, 10_000)
        assert len(gen.calls) > 16 and set(gen.calls) == {(0, 4, 256)}
        for workers in (1, 2):
            used = assert_plays_match(chain, "t", 3000, 2, workers, 10_000, every=101)
            assert used["scanned"] > 0 and used["cut"] == used["walked"] == 0

    def test_every_horizon_up_to_past_the_longest_play(self):
        # a play landing on w past the horizon is cut within the scan; one
        # back on t at or past it hands the plays back to the loop
        chain = retry_chain()
        (plays,) = reference_chunks(chain, "t", 200, 4, 1, 10_000)
        longest = max(steps for (_, steps), _, _ in plays)
        used = Counter()
        for horizon in range(1, longest + 2):
            for workers in (1, 2):
                used += assert_plays_match(chain, "t", 200, 4, workers, horizon, every=3)
        assert used["cut"] > 0 and used["walked"] > 0

    def test_horizon_cuts_only_the_last_play(self):
        # n plays end on the first longest one of 3000, cut one step short
        chain = retry_chain()
        used = Counter()
        for seed in range(10):
            (plays,) = reference_chunks(chain, "t", 3000, seed, 1, 10_000)
            lengths = [steps for (_, steps), _, _ in plays]
            n = lengths.index(max(lengths)) + 1
            used += assert_plays_match(chain, "t", n, seed, 1, lengths[n - 1] - 1, every=101)
        assert used["cut"] > 0 and used["walked"] > 0

    def test_horizon_past_int64(self):
        chain = retry_chain()
        used = assert_plays_match(chain, "t", 3000, 5, 2, 2**64, every=101)
        assert used["scanned"] > 0 and used["cut"] == used["walked"] == 0
        g = retry_game(Fraction(1, 4), Fraction(1, 4))
        got = estimate_value(
            g, fx.trivial_max(g), fx.trivial_min(g), "t", 3000, 5, horizon=2**64, workers=2
        )
        assert got == reference_estimate(reference_plays(chain, "t", 3000, 5, 2, 2**64), 3000)

    def test_denominator_two_to_the_63(self):
        tiny = Fraction(1, 2**63)
        chain = retry_chain(H + tiny, tiny)
        (den, cums, _), = simulate._Sampler(chain, "t").rows.values()
        assert den == cums[-1] == 2**63
        used = assert_plays_match(chain, "t", 3000, 7, 2, 10_000, every=101)
        assert used["scanned"] > 0 and used["cut"] == used["walked"] == 0

    def test_open_play_reaching_the_horizon_hands_back(self, monkeypatch):
        # a play ends about once in 2^39 draws, so no absorbed landing
        # shows the horizon: only the open play does, within the first batch
        tiny = Fraction(1, 2**40)
        chain = retry_chain(tiny, tiny)
        sampler = simulate._Sampler(chain, "t")
        gen = CountingGenerator(stream(0, 0), limit=32)
        assert sampler.scan_plays(gen, 100, 10) is None
        assert len(gen.calls) <= 16
        real = simulate.stream
        monkeypatch.setattr(simulate, "stream", lambda *a: CountingGenerator(real(*a), 32))
        used = assert_plays_match(chain, "t", 100, 0, 2, 10, every=7)
        assert used["walked"] > 0 and used["scanned"] == 0

    def test_no_draw_makes_no_stream(self, g1, monkeypatch):
        # the forced run from s is 4 moves to l, or 3 to the coin at x; w
        # is a sink
        cases = [(forced_run_game(coin=False), "s", h) for h in (3, 4, 5)]
        cases += [(forced_run_game(coin=True), "s", h) for h in (2, 3)]
        cases.append((g1, "w", 1))
        sigma_g1 = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
        monkeypatch.setattr(simulate, "stream", None)  # any stream would fail
        for g, start, horizon in cases:
            sigma = sigma_g1 if g is g1 else fx.trivial_max(g)
            chain = product_chain(g, sigma, fx.trivial_min(g), [start])
            assert assert_plays_match(chain, start, 50, 0, 3, horizon) == Counter()
        # so no count of plays costs more than another
        chain = product_chain(g1, sigma_g1, fx.trivial_min(g1), ["w"])
        sampler = simulate._Sampler(chain, "w")
        assert simulate._plays(sampler, 10**12, 0, 2, 1) == {(sampler.first[0], 0): 10**12}


def ping_pong_game(s_row, o_row):
    """Two Random rows that lead to each other.

    s moves to a, forced on to o, to the sink l, or to x, forced on to the
    sink w, with the chances in `s_row`; o moves to b, forced back to o, to
    l, to s, or to w, with those in `o_row`.
    """
    vertices = [Vertex(v, Owner.RANDOM, 1) for v in "so"]
    vertices += [Vertex(v, Owner.MAX, 1) for v in "abxl"]
    vertices.append(Vertex("w", Owner.MAX, 0))
    edges = [Edge("s", t, p) for t, p in zip("alx", s_row)]
    edges += [Edge("o", t, p) for t, p in zip("blsw", o_row)]
    edges += [Edge("a", "o"), Edge("b", "o"), Edge("x", "w"), Edge("w", "w"), Edge("l", "l")]
    return GameGraph("ping-pong", tuple(vertices), tuple(edges))


PING = (Fraction(5, 8), Fraction(1, 8), Fraction(1, 4))
PONG = (Fraction(1, 4), Fraction(1, 8), Fraction(3, 8), Fraction(1, 4))


def ping_pong_chain(s_row=PING, o_row=PONG):
    g = ping_pong_game(s_row, o_row)
    return product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["s"])


def coin_ladder_game(rungs):
    """Rungs c0, c1, ..., each a fair coin between the sink w and the next
    rung, the last one's between w and the sink l: one row of denominator
    2 per rung."""
    names = [f"c{i}" for i in range(rungs)]
    vertices = [Vertex(v, Owner.RANDOM, 1) for v in names]
    vertices += [Vertex("w", Owner.MAX, 0), Vertex("l", Owner.MAX, 1)]
    edges = [Edge("w", "w"), Edge("l", "l")]
    for v, t in zip(names, [*names[1:], "l"]):
        edges += [Edge(v, "w", H), Edge(v, t, H)]
    return GameGraph("coin-ladder", tuple(vertices), tuple(edges))


def witness_chain(seed, n, start):
    """The chain of random_game(seed, n, 3, 3, 1/3) under its witnesses."""
    g = random_game(seed, n, 3, 3, Fraction(1, 3))
    sol = solve_game(g)
    return product_chain(g, sol.sigma_star, sol.tau_star, [start])


class TestOneDenominatorScan:
    """Chains of several rows of one denominator are scanned like one row:
    each draw maps the row before it to the row after it."""

    def chains(self):
        g = two_coins_game()
        coins = product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["s"])
        return [(coins, "s"), (ping_pong_chain(), "s")]

    def test_rows_share_one_denominator(self):
        for (chain, start), rows, den in zip(self.chains(), (3, 2), (2, 8)):
            sampler = simulate._Sampler(chain, start)
            assert len(sampler.rows) == rows and list(sampler.cuts) == [den]
            assert sampler.scans

    def test_runs_over_several_batches(self):
        # two draws a play or more: 3000 plays need more than the 16 blocks
        # of one batch
        for (chain, start), den in zip(self.chains(), (2, 8)):
            gen = CountingGenerator(stream(2, 0))
            assert simulate._Sampler(chain, start).scan_plays(gen, 3000, 10_000)
            assert len(gen.calls) > 16 and set(gen.calls) == {(0, den, 256)}
            for workers in (1, 2):
                used = assert_plays_match(chain, start, 3000, 2, workers, 10_000, every=101)
                assert used["scanned"] > 0 and used["cut"] == used["walked"] == 0
        # batches are sized by the draws a play makes on all its rows: every
        # play on the two coins draws twice, so the scan fetches the loop's
        # 24 blocks
        (chain, start), _ = self.chains()
        sampler = simulate._Sampler(chain, start)
        scanned, walked = CountingGenerator(stream(2, 0)), CountingGenerator(stream(2, 0))
        assert sampler.scan_plays(scanned, 3000, 10) == sampler.plays(walked, 3000, 10)
        assert len(scanned.calls) == len(walked.calls) == 24

    def test_every_run_between_synchronising_draws(self):
        # on ping-pong's intervals, draw 0 sends s and o to o, 3 swaps them,
        # 6 ends the play from either, two steps on from s and one from o,
        # and 5 ends it from s alone; so where each play ends depends on the
        # last 0 before it, however many swaps lie between, and on its start
        script = [d for swaps in range(41) for d in (5, 0, *[3] * swaps, 6)]
        chain = ping_pong_chain()
        sampler = simulate._Sampler(chain, "s")
        assert sampler.cuts == {8: [2, 3, 5, 6]}
        assert list(sampler.picks.values()) == [[0, 0, 0, 1, 2], [0, 1, 2, 2, 3]]
        # the same chain with its states listed backwards numbers o's row
        # before s's, where the plays start
        backwards = ProductChain(
            chain.states[::-1], chain.transitions, chain.label, chain.start
        )
        for chain in (chain, backwards):
            sampler = simulate._Sampler(chain, "s")
            for n in (1, 10, 41, 200):
                want = sampler.plays(ScriptedGenerator(script), n, 10_000)
                assert sampler.scan_plays(ScriptedGenerator(script), n, 10_000) == want
        assert [chain.states[i][0] for i in sampler.rows] == ["o", "s"]

    def test_every_horizon_up_to_past_the_longest_play(self):
        # a play landing on w two steps past the horizon is cut within the
        # scan; one still on a row at or past it hands the plays back
        used = Counter()
        for chain, start in self.chains():
            (plays,) = reference_chunks(chain, start, 200, 4, 1, 10_000)
            longest = max(steps for (_, steps), _, _ in plays)
            for horizon in range(1, longest + 2):
                for workers in (1, 2):
                    used += assert_plays_match(chain, start, 200, 4, workers, horizon, every=3)
        assert used["scanned"] > 0 and used["cut"] > 0 and used["walked"] > 0

    def test_denominator_two_to_the_63(self):
        tiny = Fraction(1, 2**63)
        s_row = (PING[0] - tiny, PING[1], PING[2] + tiny)
        o_row = (PONG[0], PONG[1] - tiny, PONG[2] + tiny, PONG[3])
        chain = ping_pong_chain(s_row, o_row)
        sampler = simulate._Sampler(chain, "s")
        assert len(sampler.rows) == 2 and list(sampler.cuts) == [2**63]
        assert sampler.scans
        used = assert_plays_match(chain, "s", 3000, 7, 2, 10_000, every=101)
        assert used["scanned"] > 0 and used["cut"] == used["walked"] == 0

    def test_open_play_reaching_the_horizon_hands_back(self, monkeypatch):
        # a play ends about once in 2^39 draws, or in 2^62, so no absorbed
        # landing shows the horizon: only the open play does, within the
        # first batch. The expected draws are exact, though at 2^-63 floats
        # would round the system for them to a singular one
        real = simulate.stream
        for e in (40, 63):
            tiny = Fraction(1, 2**e)
            chain = ping_pong_chain((1 - 2 * tiny, tiny, tiny), (H - tiny, tiny, H - tiny, tiny))
            sampler = simulate._Sampler(chain, "s")
            assert len(sampler.rows) == 2 and sampler.scans
            assert sampler._automaton[-1] == 2 ** (e - 1)
            gen = CountingGenerator(stream(0, 0), limit=32)
            assert sampler.scan_plays(gen, 100, 10) is None
            assert len(gen.calls) <= 16
            monkeypatch.setattr(simulate, "stream", lambda *a: CountingGenerator(real(*a), 32))
            used = assert_plays_match(chain, "s", 100, 0, 2, 10, every=7)
            assert used["walked"] > 0 and used["scanned"] == 0
            monkeypatch.setattr(simulate, "stream", real)

    def test_plays_longer_than_a_batch(self):
        # a play ends about once in 2^9 draws, so some run over several
        # batches
        tiny = Fraction(1, 2**10)
        chain = ping_pong_chain((1 - 2 * tiny, tiny, tiny), (H - tiny, tiny, H - tiny, tiny))
        (plays,) = reference_chunks(chain, "s", 40, 3, 1, 10_000)
        assert max(steps for (_, steps), _, _ in plays) > 4096
        used = assert_plays_match(chain, "s", 40, 3, 1, 10_000, every=13)
        assert used["scanned"] > 0 and used["cut"] == used["walked"] == 0

    def test_more_than_four_rows_stay_on_the_loop(self, monkeypatch):
        chains = {}
        for rungs in (4, 5):
            g = coin_ladder_game(rungs)
            chains[rungs] = product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["c0"])
            sampler = simulate._Sampler(chains[rungs], "c0")
            assert len(sampler.rows) == rungs and list(sampler.cuts) == [2]
            assert sampler.scans is (rungs == 4)
        used = assert_plays_match(chains[4], "c0", 300, 1, 2, 10_000, every=13)
        assert used["scanned"] > 0
        monkeypatch.setattr(simulate._Sampler, "scan_plays", None)  # a scan would fail
        assert assert_plays_match(chains[5], "c0", 300, 1, 2, 10_000, every=13) == Counter()

    def test_seeded_game_with_two_rows_of_denominator_three(self):
        # v5 draws among a sink three steps on, one two steps on, and v2,
        # which draws between two sinks
        chain = witness_chain(2527, 6, "v5")
        sampler = simulate._Sampler(chain, "v5")
        assert [den for den, _, _ in sampler.rows.values()] == [3, 3] and sampler.scans
        used = Counter()
        for horizon in HORIZONS:
            for workers in (1, 2):
                used += assert_plays_match(chain, "v5", 300, 1, workers, horizon, every=7)
        assert used["scanned"] > 0 and used["cut"] > 0 and used["walked"] > 0
        # the plays the command line samples there
        g = random_game(2527, 6, 3, 3, Fraction(1, 3))
        sol = solve_game(g)
        pinned = {10_000: (Fraction(1529, 2000), 0), 2: (Fraction(898, 1369), 631)}
        for horizon, want in pinned.items():
            got = estimate_value(g, sol.sigma_star, sol.tau_star, "v5", 2000, 1, horizon)
            assert (got.estimate, got.truncated) == want


def step_law(chain, start, steps):
    """The exact law of a play from `start`, step by step on the chain:
    ({(stop, t): chance that it first enters a closed class at state
    index `stop` after t <= `steps` steps}, chance that it has not entered
    one after `steps` steps)."""
    index = {s: i for i, s in enumerate(chain.states)}
    closed = {s for c in chain.bsccs() for s in c}
    law, mass = {}, {chain.start[start]: Fraction(1)}
    for t in range(steps + 1):
        law.update(((index[s], t), p) for s, p in mass.items() if s in closed)
        mass = {s: p for s, p in mass.items() if s not in closed}
        if t < steps:
            moved = Counter()
            for s, p in mass.items():
                for u, q in chain.transitions[s]:
                    moved[u] += p * q
            mass = moved
    return law, sum(mass.values())


class TestExactLaw:
    """Tallied frequencies against the exact law.

    By Hoeffding's bound an event's frequency over N plays strays by t or
    more from its probability with chance at most 2 exp(-2 N t^2); t is
    fixed at a chance of 10^-9 per event, with the seed, before any run.
    """

    N, SEED, WORKERS, HORIZON = 20_000, 2026, 2, 10_000
    BOUND = math.sqrt(math.log(2 * 10**9) / (2 * N))
    # plays longer than this are one event of the step law
    STEPS = 40

    def cases(self):
        g1, g2, g3 = fx.g1(), fx.g2(), fx.g3()
        sigma1 = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
        cases = [
            (g1, sigma1, fx.trivial_min(g1), "a"),
            (g2, fx.trivial_max(g2), fx.trivial_min(g2), "r"),
            (g3, fx.sigma3(), fx.trivial_min(g3), "s"),
        ]
        for win, lose in ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 10), Fraction(1, 5))):
            g = retry_game(win, lose)
            cases.append((g, fx.trivial_max(g), fx.trivial_min(g), "t"))
        # seeded games whose witnesses make a chain with one branching
        # state that one of its landings leads back to
        for seed, start in ((8, "v2"), (55, "v1"), (67, "v0")):
            g = random_game(seed, 5, 3, 3, Fraction(1, 3))
            sol = solve_game(g)
            cases.append((g, sol.sigma_star, sol.tau_star, start))
        return cases

    def test_frequencies_within_the_bound(self):
        compared, rows = 0, []
        for g, sigma, tau, start in self.cases():
            chain = product_chain(g, sigma, tau, [start])
            sampler = simulate._Sampler(chain, start)
            rows.append(len(sampler.rows))
            tally = simulate._plays(sampler, self.N, self.SEED, self.WORKERS, self.HORIZON)
            assert (None, self.HORIZON) not in tally
            for c in chain.bsccs():
                hits = sum(k for (stop, _), k in tally.items() if chain.states[stop] in c)
                p = absorption_probabilities(chain, c)[chain.start[start]]
                assert abs(Fraction(hits, self.N) - p) <= self.BOUND, (g.name, start, c)
                compared += 1
        # G1 draws nothing, G3 scans three rows of denominator 2, the rest
        # scan one
        assert rows == [0, 1, 3, 1, 1, 1, 1, 1] and compared >= 15

    def law_cases(self):
        """(chain, start): three chains of several rows of one denominator,
        one of denominators 2 and 3, and one of one row."""
        g3, coins, die = fx.g3(), two_coins_game(), coin_and_die_game()
        return [
            (product_chain(g3, fx.sigma3(), fx.trivial_min(g3), ["s"]), "s"),
            (product_chain(coins, fx.trivial_max(coins), fx.trivial_min(coins), ["s"]), "s"),
            (ping_pong_chain(), "s"),
            (witness_chain(2527, 6, "v5"), "v5"),
            (product_chain(die, fx.trivial_max(die), fx.trivial_min(die), ["s"]), "s"),
            (retry_chain(), "t"),
        ]

    def assert_within_the_bound(self, tally, law):
        """Each event of `law`, a map to exact chances, against its share of
        the tally; events outside it must not occur."""
        assert set(tally) <= set(law)
        for key, p in law.items():
            assert abs(Fraction(tally.get(key, 0), self.N) - p) <= self.BOUND, key
        return len(law)

    def test_stop_and_steps_within_the_bound(self):
        compared, paths = 0, set()
        for chain, start in self.law_cases():
            sampler = simulate._Sampler(chain, start)
            paths.add((sampler.scans, len(sampler.rows)))
            law, later = step_law(chain, start, self.STEPS)
            tally = simulate._plays(sampler, self.N, self.SEED, self.WORKERS, self.HORIZON)
            got = Counter()
            for (stop, steps), count in tally.items():
                got[(stop, steps) if steps <= self.STEPS else "later"] += count
            compared += self.assert_within_the_bound(got, {**law, "later": later})
        assert paths == {(True, 3), (True, 2), (False, 3), (True, 1)} and compared > 40

    def test_truncation_at_a_small_horizon(self):
        # at horizon 2 a play still open on a row is cut; at 3 the scans of
        # the two coins and of the seeded game's v5 finish every play
        compared = 0
        for chain, start in self.law_cases():
            sampler = simulate._Sampler(chain, start)
            for horizon in (2, 3):
                law, cut = step_law(chain, start, horizon)
                tally = simulate._plays(sampler, self.N, self.SEED, self.WORKERS, horizon)
                compared += self.assert_within_the_bound(tally, {**law, (None, horizon): cut})
        assert compared > 20


def g3_with_coin(den):
    """G3 with t moving to w with chance 1/den and back to s otherwise."""
    g = fx.g3()
    edges = tuple(
        Edge(e.src, e.dst, Fraction(1, den) if e.dst == "w" else 1 - Fraction(1, den))
        if e.src == "t" else e
        for e in g.edges
    )
    return GameGraph("G3-coin", g.vertices, edges)


class TestDenominatorLimit:
    def test_row_over_two_to_the_63_is_rejected_before_drawing(self, sigma3, monkeypatch):
        g = g3_with_coin(2**64 + 1)
        monkeypatch.setattr(simulate, "stream", None)  # any draw would fail
        with pytest.raises(SimulationError, match="Random vertex 't'.*2\\^63"):
            estimate_value(g, sigma3, fx.trivial_min(g), "s", 10, seed=0)
        with pytest.raises(SimulationError, match="Random vertex 't'"):
            sample_play(g, sigma3, fx.trivial_min(g), "s", 0)

    def test_row_at_two_to_the_63_draws_as_before(self, sigma3):
        g = g3_with_coin(2**63)
        tau = fx.trivial_min(g)
        chain = product_chain(g, sigma3, tau, ["s"])
        args = ("s", 300, 4, 2, 10_000)
        assert_plays_match(chain, *args)
        assert estimate_value(g, sigma3, tau, "s", 300, 4, workers=2) == (
            reference_estimate(reference_plays(chain, *args), 300)
        )

    def test_row_inside_an_absorbed_class_is_never_drawn(self):
        # r is a Random vertex on the closed class {r, q}: plays stop on it
        huge = Fraction(1, 2**64 + 1)
        g = GameGraph(
            "closed-coin",
            (
                Vertex("s", Owner.MAX, 1),
                Vertex("r", Owner.RANDOM, 0),
                Vertex("q", Owner.MAX, 1),
            ),
            (
                Edge("s", "r"),
                Edge("r", "q", huge),
                Edge("r", "r", 1 - huge),
                Edge("q", "r"),
            ),
        )
        sigma, tau = fx.trivial_max(g), fx.trivial_min(g)
        assert estimate_value(g, sigma, tau, "s", 10, seed=0).estimate == 1


class TestArgumentsCheckedFirst:
    def test_bad_n_or_horizon_builds_nothing(self, g3, sigma3, sol3, monkeypatch):
        import stochparity.resets as resets

        built = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                built[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(simulate, "product_chain")
        counting(resets, "product_chain")
        counting(resets, "mdp_table")
        tau = fx.trivial_min(g3)
        bad = ((0, 10, "n must be >= 1"), (10, 0, "horizon must be >= 1"))
        for n, horizon, message in bad:
            with pytest.raises(ValueError, match=message):
                estimate_value(g3, sigma3, tau, "s", n, 0, horizon=horizon)
            with pytest.raises(ValueError, match=message):
                simulate_deviations(
                    g3, sigma3, tau, sol3.values, sol3.m, "s", n, 0, horizon=horizon
                )
        assert built == Counter()
        # the counters do see the builds of a valid call
        simulate_deviations(g3, sigma3, tau, sol3.values, sol3.m, "s", 5, 0)
        estimate_value(g3, sigma3, tau, "s", 5, 0)
        assert built == Counter(product_chain=2, mdp_table=1)


class CountingGenerator:
    """A generator that records every block of draws asked of it, and
    fails past `limit` blocks if one is given."""

    def __init__(self, gen, limit=None):
        self.gen = gen
        self.calls = []
        self.limit = limit

    def integers(self, low, high, size):
        if len(self.calls) == self.limit:
            raise AssertionError(f"more than {self.limit} blocks drawn")
        self.calls.append((low, high, size))
        return self.gen.integers(low, high, size=size)


class ScriptedGenerator:
    """A generator whose draws are `script` over and over."""

    def __init__(self, script):
        self.draws = itertools.cycle(script)

    def integers(self, low, high, size):
        import numpy as np

        return np.array(list(itertools.islice(self.draws, size)))


def two_coins_game():
    """s tosses a fair coin between a and b, and each tosses one between w and l."""
    vertices = [
        Vertex("s", Owner.RANDOM, 1),
        Vertex("a", Owner.RANDOM, 1),
        Vertex("b", Owner.RANDOM, 1),
        Vertex("w", Owner.MAX, 0),
        Vertex("l", Owner.MAX, 1),
    ]
    edges = [Edge("s", "a", H), Edge("s", "b", H), Edge("w", "w"), Edge("l", "l")]
    edges += [Edge(v, t, H) for v in "ab" for t in "wl"]
    return GameGraph("two-coins", tuple(vertices), tuple(edges))


def coin_and_die_game():
    """s tosses a coin between a and b; a draws a third among w, l and back
    to s, b a half between w and l."""
    return GameGraph(
        "coin-and-die",
        (
            Vertex("s", Owner.RANDOM, 1),
            Vertex("a", Owner.RANDOM, 1),
            Vertex("b", Owner.RANDOM, 1),
            Vertex("w", Owner.MAX, 0),
            Vertex("l", Owner.MAX, 1),
        ),
        (
            Edge("s", "a", H),
            Edge("s", "b", H),
            *(Edge("a", t, Fraction(1, 3)) for t in "wls"),
            Edge("b", "w", H),
            Edge("b", "l", H),
            Edge("w", "w"),
            Edge("l", "l"),
        ),
    )


class TestDrawOrder:
    def test_play_without_a_draw_fetches_nothing(self):
        # the coin at x is compiled but lies past the horizon
        g = forced_run_game(coin=True)
        chain = product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["s"])
        sampler = simulate._Sampler(chain, "s")
        assert len(sampler.rows) == 1
        gen = CountingGenerator(stream(0, 0))
        assert sampler.plays(gen, 5, 2) == {(None, 2): 5}
        assert gen.calls == []
        ((stop, steps), count), = sampler.plays(gen, 1, 4).items()
        assert stop is not None and steps == 4 and count == 1
        assert gen.calls == [(0, 2, 256)]

    def test_rows_with_one_denominator_share_a_block(self):
        g = two_coins_game()
        chain = product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["s"])
        sampler = simulate._Sampler(chain, "s")
        assert sorted(den for den, _, _ in sampler.rows.values()) == [2, 2, 2]
        # every play draws twice, so 128 plays fetch one block, 129 two
        gen = CountingGenerator(stream(3, 0))
        assert sum(sampler.plays(gen, 128, 10).values()) == 128
        assert gen.calls == [(0, 2, 256)]
        gen = CountingGenerator(stream(3, 0))
        assert sum(sampler.plays(gen, 129, 10).values()) == 129
        assert gen.calls == [(0, 2, 256)] * 2
        assert_plays_match(chain, "s", 129, 3, 1, 10)

    def test_two_denominators_fetch_interleaved_blocks(self):
        # denominators 2 and 3, drawn in an order only the plays decide
        g = coin_and_die_game()
        chain = product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["s"])
        n = 2000
        gen = CountingGenerator(stream(8, 0))
        tally = simulate._Sampler(chain, "s").plays(gen, n, 10_000)
        reference, want = ReferenceSampler(chain, "s"), Counter()
        draws = ReferenceDraws(CountingGenerator(stream(8, 0)))
        for _ in range(n):
            trace, _, _, _, stop = reference.walk(draws, 10_000)
            want[stop, len(trace) - 1] += 1
        assert tally == want
        assert gen.calls == draws.gen.calls
        dens = [high for _, high, _ in gen.calls]
        assert dens.count(2) >= 3 and dens.count(3) >= 3
        # the blocks of one denominator are fetched between those of the other
        assert sum(a != b for a, b in zip(dens, dens[1:])) >= 4


class TestDeviationChainReachableOnly:
    def test_sigma3(self, g3, sigma3, sol3):
        dev = deviation_states(g3, sigma3, sol3.values, sol3.m)
        tau = fx.trivial_min(g3)
        chain, absorbing = _deviation_chain(g3, sigma3, tau, dev, ["s"])
        assert len(product_chain(g3, sigma3, tau, ["s"]).states) == 11
        assert len(chain.states) == 7
        assert absorbing == {("s", "m2", "m0")}
        assert set(chain.transitions) == set(chain.label) == set(chain.states)

    def test_deviated_start_is_the_whole_chain(self, sigma3):
        g = g3_with_coin(2**64 + 1)
        sol = solve_game(g)
        dev = deviation_states(g, sigma3, sol.values, sol.m)
        assert ("s", "m0") in dev
        chain, absorbing = _deviation_chain(g, sigma3, fx.trivial_min(g), dev, ["s"])
        assert chain.states == (("s", "m0", "m0"),)
        assert absorbing == set(chain.states)

    def test_same_probabilities_as_the_unpruned_chain(self, corpus):
        checked = pruned = 0
        for g, sigma, tau, sol in corpus:
            if sol.m == math.inf:
                continue
            dev = deviation_states(g, sigma, sol.values, sol.m)
            full = product_chain(g, sigma, tau, g.vertex_ids)
            absorbing = frozenset(s for s in full.states if s[:2] in dev)
            trans = {
                s: ((s, Fraction(1)),) if s in absorbing else full.transitions[s]
                for s in full.states
            }
            hit = _absorption(full.states, trans, absorbing)
            got = deviation_probabilities(
                g, sigma, tau, sol.values, sol.m, g.vertex_ids
            )
            assert got == {v: hit[s] for v, s in full.start.items()}
            chain, _ = _deviation_chain(g, sigma, tau, dev, g.vertex_ids)
            pruned += len(chain.states) < len(full.states)
            checked += 1
        assert checked > 30 and pruned > 0


def deviation_chain_from_full_chain(g, sigma, tau, dev, starts):
    """The deviation chain as the full chain, walked again with deviated states looping."""
    full = product_chain(g, sigma, tau, starts)
    states, trans, seen = list(full.start.values()), {}, set(full.start.values())
    for s in states:
        trans[s] = ((s, Fraction(1)),) if s[:2] in dev else full.transitions[s]
        for t, _ in trans[s]:
            if t not in seen:
                seen.add(t)
                states.append(t)
    label = {s: full.label[s] for s in states}
    absorbing = frozenset(s for s in states if s[:2] in dev)
    return ProductChain(tuple(states), trans, label, full.start), absorbing


class Recording(dict):
    """A strategy table that records every key it is asked for."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


class TestDeviationChainIsOneWalk:
    def test_reads_nothing_past_a_deviated_pair(self, corpus):
        stopped = 0
        for g, sigma, tau, sol in corpus:
            if sol.m == math.inf:
                continue
            dev = deviation_states(g, sigma, sol.values, sol.m)
            reads = []
            watched = MealyStrategy(
                sigma.player,
                sigma.memory_states,
                sigma.initial,
                Recording(sigma.update, reads),
                Recording(sigma.action, reads),
            )
            for starts in [[v] for v in g.vertex_ids] + [g.vertex_ids]:
                reads.clear()
                got = _deviation_chain(g, watched, tau, dev, starts)
                assert got == deviation_chain_from_full_chain(g, sigma, tau, dev, starts)
                assert not {(v, mem) for mem, v in reads} & dev
                stopped += bool(got[1])
        assert stopped > 0

    def test_sigma3_without_rows_at_deviated_pairs(self, g3, sigma3, sol3):
        dev = deviation_states(g3, sigma3, sol3.values, sol3.m)
        assert ("s", "m2") in dev
        # the walk stops at (s, m2), so no row at a deviated pair is needed
        update = {(m, v): x for (m, v), x in sigma3.update.items() if (v, m) not in dev}
        action = {(m, v): w for (m, v), w in sigma3.action.items() if (v, m) not in dev}
        partial = MealyStrategy(Owner.MAX, sigma3.memory_states, "m0", update, action)
        tau = fx.trivial_min(g3)
        assert _deviation_chain(g3, partial, tau, dev, ["s"]) == _deviation_chain(
            g3, sigma3, tau, dev, ["s"]
        )


class TestSamplerWithoutAWalk:
    def test_no_trace_switch(self):
        assert list(inspect.signature(simulate._Sampler).parameters) == [
            "chain",
            "start_vertex",
        ]

    def test_rows_in_chain_order(self):
        # a walk from s would compile the second coin before the first
        g = two_coins_game()
        chain = product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["s"])
        sampler = simulate._Sampler(chain, "s")
        assert list(sampler.rows) == [0, 1, 2]
        assert [chain.states[i][0] for i in sampler.rows] == ["s", "a", "b"]

    def test_every_landing_keeps_its_vertices(self):
        g = forced_run_game(coin=True)
        chain = product_chain(g, fx.trivial_max(g), fx.trivial_min(g), ["s"])
        sampler = simulate._Sampler(chain, "s")
        landings = [ld for _, _, ls in sampler.rows.values() for ld in ls]
        assert all(len(passed) == d for _, d, passed in landings)
        assert sampler.first == (3, 3, ("a", "b", "x"))

    def test_chain_from_other_starts_is_refused(self, g3, sigma3):
        chain = product_chain(g3, sigma3, fx.trivial_min(g3), ["s", "w"])
        with pytest.raises(AssertionError):
            simulate._Sampler(chain, "s")
