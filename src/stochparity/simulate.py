"""Monte Carlo sampling of plays under fixed strategy pairs.

Randomness comes from numpy's Philox counter-based generator, which
gives named, seedable, splittable streams: stream(seed, worker_index)
is the generator keyed by (worker_index << 64) | (seed mod 2^64).
numpy is imported on the first call of `stream`, so importing the
package or running the exact layers never loads it. Sampling n plays
splits the work into per-worker contiguous chunks, each consuming only
its own stream, and aggregates by addition, so results are identical
for identical (inputs, seed, worker count) regardless of evaluation
order.

Successor draws at Random vertices are exact: a row with probabilities
p_i is sampled by drawing a uniform integer below the common
denominator of the p_i (rejection sampling inside numpy keeps this
unbiased) and picking the successor whose cumulative numerator range
contains it. Draws are buffered per denominator; the consumption order
of the stream is an implementation detail fixed by this version.

A walk stops as soon as it enters a closed recurrent class of the
chain, since the play's winner is already decided there, and is
Truncated if that takes more than `horizon` steps. Truncated plays are
excluded from estimates and reported in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .chains import Outcome, ProductChain, product_chain
from .errors import SimulationError
from .game import GameGraph, _max_wins
from .mealy import MealyStrategy
from .resets import _deviation_chain, deviation_states
from .values import ValueMap

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_STDERR_SCALE = 10**12


def stream(seed: int, worker_index: int) -> np.random.Generator:
    """The named Philox stream for a seed and worker index."""
    import numpy as np

    if worker_index < 0:
        raise ValueError("worker_index must be >= 0")
    key = ((worker_index & _MASK64) << 64) | (seed % (1 << 64))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PlayRecord:
    trace: tuple[str, ...]
    outcome: Outcome
    absorbed_bscc: Union[frozenset, None]
    first_deviation: Union[int, None]


@dataclass(frozen=True)
class EstimateResult:
    estimate: Fraction
    stderr: Fraction
    n: int
    truncated: int


@dataclass(frozen=True)
class DeviationStats:
    empirical_p: Fraction
    histogram: dict[int, int]
    n: int
    truncated: int


class _Draws:
    """Buffered exact uniform draws below arbitrary denominators."""

    def __init__(self, gen: np.random.Generator, size: int = 256):
        self.gen = gen
        self.size = size
        self.buffers: dict[int, np.ndarray] = {}
        self.used: dict[int, int] = {}

    def below(self, den: int) -> int:
        i = self.used.get(den, 0)
        buf = self.buffers.get(den)
        if buf is None or i >= len(buf):
            buf = self.gen.integers(0, den, size=self.size)
            self.buffers[den] = buf
            i = 0
        self.used[den] = i + 1
        return int(buf[i])


class _Sampler:
    """A chain compiled to index arrays for repeated walks."""

    def __init__(self, chain: ProductChain, start_vertex: str):
        self.chain = chain
        index = {s: i for i, s in enumerate(chain.states)}
        self.vertex = [s[0] for s in chain.states]
        self.start = index[chain.start[start_vertex]]

        self.absorbed: dict[int, tuple[Outcome, frozenset]] = {}
        for c in chain.bsccs():
            o = Outcome.WIN if _max_wins(chain.label[s] for s in c) else Outcome.LOSE
            for s in c:
                self.absorbed[index[s]] = (o, c)

        # deterministic rows stored as a bare successor index, random rows
        # as (common denominator, cumulative numerators, successor indices)
        self.rows: list = []
        for s in chain.states:
            row = chain.transitions[s]
            if len(row) == 1:
                self.rows.append(index[row[0][0]])
            else:
                den = math.lcm(*(p.denominator for _, p in row))
                cum = 0
                cums, targets = [], []
                for t, p in row:
                    cum += p.numerator * (den // p.denominator)
                    cums.append(cum)
                    targets.append(index[t])
                assert cum == den
                self.rows.append((den, cums, targets))

    def walk(
        self,
        draws: _Draws,
        horizon: int,
        dev: Union[frozenset, None] = None,
        keep_trace: bool = False,
    ) -> PlayRecord:
        idx = self.start
        steps = 0
        trace = [self.vertex[idx]] if keep_trace else None
        first_dev = None
        while True:
            if dev is not None and first_dev is None and idx in dev:
                first_dev = steps
            hit = self.absorbed.get(idx)
            if hit is not None:
                outcome, c = hit
                break
            if steps >= horizon:
                outcome, c = Outcome.TRUNCATED, None
                break
            row = self.rows[idx]
            if isinstance(row, int):
                idx = row
            else:
                den, cums, targets = row
                u = draws.below(den)
                for cut, t in zip(cums, targets):
                    if u < cut:
                        idx = t
                        break
            steps += 1
            if keep_trace:
                trace.append(self.vertex[idx])
        return PlayRecord(
            trace=tuple(trace) if keep_trace else (),
            outcome=outcome,
            absorbed_bscc=c,
            first_deviation=first_dev,
        )


def _stderr(p: Fraction, n: int) -> Fraction:
    """floor(sqrt(p(1-p)/n) * 10^12) / 10^12, an exact rational lower bound."""
    var = p * (1 - p) / n
    scaled = var.numerator * _STDERR_SCALE * _STDERR_SCALE // var.denominator
    return Fraction(math.isqrt(scaled), _STDERR_SCALE)


def _chunks(n: int, workers: int) -> list[int]:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return [n // workers + (1 if i < n % workers else 0) for i in range(workers)]


def _plays(sampler: _Sampler, n: int, seed: int, workers: int, horizon: int, dev=None):
    """Walk n plays, worker by worker, each chunk on its worker's own stream.

    Workers past the n-th would draw nothing, so only min(workers, n)
    streams are made; the plays are the same for any larger count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    for worker, quota in enumerate(_chunks(n, min(workers, n))):
        draws = _Draws(stream(seed, worker))
        for _ in range(quota):
            yield sampler.walk(draws, horizon, dev=dev)


def sample_play(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    start: str,
    seed: int,
    horizon: int = 10_000,
) -> PlayRecord:
    """One exact play under (sigma, tau), reproducible from the seed."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sampler = _Sampler(product_chain(g, sigma, tau, [start]), start)
    return sampler.walk(_Draws(stream(seed, 0)), horizon, keep_trace=True)


def estimate_value(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    start: str,
    n: int,
    seed: int,
    horizon: int = 10_000,
    workers: int = 1,
) -> EstimateResult:
    """Monte Carlo estimate of the win probability from `start`.

    The estimate is the exact fraction wins/(n - truncated); the
    standard error is sqrt(p(1-p)/n_eff) rounded down to a rational
    with denominator 10^12. Raises SimulationError when every sample
    was truncated.
    """
    sampler = _Sampler(product_chain(g, sigma, tau, [start]), start)

    wins = truncated = 0
    for rec in _plays(sampler, n, seed, workers, horizon):
        if rec.outcome is Outcome.WIN:
            wins += 1
        elif rec.outcome is Outcome.TRUNCATED:
            truncated += 1

    effective = n - truncated
    if effective == 0:
        raise SimulationError("all samples were truncated; raise the horizon")
    p = Fraction(wins, effective)
    return EstimateResult(p, _stderr(p, effective), n, truncated)


def simulate_deviations(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    vals: ValueMap,
    m: Union[Fraction, float],
    start: str,
    n: int,
    seed: int,
    horizon: int = 10_000,
    workers: int = 1,
    cap: int = 2**20,
) -> DeviationStats:
    """Empirical deviation frequency and a histogram of first-deviation dates.

    Walks the chain with deviated pairs made absorbing, mirroring the
    exact deviation probability, so a play counts as deviated the first
    time it sits on a pair whose quality is at or below val - m/2. The
    histogram maps the first-deviation step index to its count over the
    deviated plays. Truncated plays count as non-deviated and are
    reported. `cap` bounds the policy enumeration of sigma's quality
    table, as in `deviation_states`.
    """
    dev_pairs = deviation_states(g, sigma, vals, m, cap)
    chain, absorbing = _deviation_chain(g, sigma, tau, dev_pairs, [start])
    sampler = _Sampler(chain, start)
    dev_idx = frozenset(
        i for i, s in enumerate(chain.states) if s in absorbing
    )

    deviated = truncated = 0
    histogram: dict[int, int] = {}
    for rec in _plays(sampler, n, seed, workers, horizon, dev=dev_idx):
        if rec.first_deviation is not None:
            deviated += 1
            histogram[rec.first_deviation] = histogram.get(rec.first_deviation, 0) + 1
        elif rec.outcome is Outcome.TRUNCATED:
            truncated += 1

    return DeviationStats(
        empirical_p=Fraction(deviated, n),
        histogram=dict(sorted(histogram.items())),
        n=n,
        truncated=truncated,
    )
