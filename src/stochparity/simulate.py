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
contains it. Every row is bound to the draws of its denominator, which
come from the worker's stream in blocks of 256, in the order the plays
ask for them; that order of draws is fixed by this version. numpy draws
int64 values, so a row whose common denominator exceeds 2^63 is
rejected with SimulationError before any play starts.

No play is kept: each one's outcome, (absorbed stop, step count), is
tallied, so memory grows with the distinct outcomes, not with n. The
tally is made in one of three ways, chosen per chain, with the same
draws and the same result:

- If the start's forced run ends absorbed, or at or past the horizon,
  no play draws, all n are alike, and no stream is made.
- If every branching row has one denominator, and there are at most
  four rows, every draw is that denominator's, so the draws form one
  stream whatever the plays do, and the plays are an automaton on the
  rows driven by it. `_Sampler.scan_plays` scans it in numpy a bounded
  batch of blocks at a time, fetched by the same calls in the same
  order; it may fetch blocks past the last draw used, which nothing
  reads. If a play would reach the horizon before it is absorbed, the
  plays are walked again by the loop below on a fresh stream.
- Otherwise one loop, `_Sampler.plays`, walks the plays in turn,
  fetching a block only when a draw finds the last one used up, so a
  play that draws nothing fetches nothing. Each row is linked to its
  draws and each landing to the row it lands on. The loop is the
  reference the other two reproduce, and it alone traces plays.

A walk stops as soon as it enters a closed recurrent class of the
chain, since the play's winner is already decided there, and is
Truncated if that takes more than `horizon` steps. Truncated plays are
excluded from estimates and reported in the result. A walk jumps over
each run of forced moves, which draw nothing, but still counts its
steps, so it truncates exactly where a step-by-step walk would.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, Union

from .chains import Outcome, ProductChain, product_chain
from .errors import SimulationError
from .game import GameGraph, _integer_row, _max_wins
from .linalg import solve_linear
from .mealy import MealyStrategy
from .resets import _deviation_chain, deviation_states
from .values import ValueMap

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_STDERR_SCALE = 10**12
_MAX_DEN = 1 << 63  # numpy draws int64 values
_BLOCK = 256  # draws fetched from a stream at a time
_SCAN_BLOCKS = 16  # blocks a scan batch fetches at most, bounding its memory
_SCAN_ROWS = 4  # rows a scan takes at most: (4^4)^2 = 65,536 compositions


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


class _Sampler:
    """A chain compiled for repeated walks that skip its forced runs.

    A stop is a state in a closed recurrent class (absorbed) or one with
    more than one successor (branching). Every move lands on the first
    stop of the forced run it enters, as (stop, distance in steps,
    vertices passed). The chain holds only what `start_vertex` reaches
    and no play leaves a closed class, so some play reaches every
    branching state and its row is compiled without a walk.
    """

    def __init__(self, chain: ProductChain, start_vertex: str):
        assert chain.start.keys() == {start_vertex}, "chain built from other starts"
        index = {s: i for i, s in enumerate(chain.states)}
        self.absorbed: dict[int, tuple[Outcome, frozenset]] = {}
        for c in chain.bsccs():
            o = Outcome.WIN if _max_wins(chain.label[s] for s in c) else Outcome.LOSE
            for s in c:
                self.absorbed[index[s]] = (o, c)

        # a forced cycle is closed, hence absorbed, so every forced run
        # outside the absorbed states ends at a stop
        forced: dict[int, int] = {}
        for i, s in enumerate(chain.states):
            row = chain.transitions[s]
            if len(row) == 1 and i not in self.absorbed:
                forced[i] = index[row[0][0]]

        def land(i: int, moved: int) -> tuple[int, int, tuple[str, ...]]:
            """Where a move to state i (moved=1), or a start there (0), lands."""
            run = [i]
            while i in forced:
                i = forced[i]
                run.append(i)
            passed = tuple(chain.states[j][0] for j in run[1 - moved:])
            return i, len(run) - 1 + moved, passed

        self.first = land(index[chain.start[start_vertex]], 0)
        # the row of every branching state, as (common denominator,
        # cumulative numerators, landings)
        self.rows: dict[int, tuple[int, list[int], list]] = {}
        for i, s in enumerate(chain.states):
            if i in self.absorbed or i in forced:
                continue
            row = chain.transitions[s]
            den, nums = _integer_row([p for _, p in row])
            if den > _MAX_DEN:
                raise SimulationError(
                    f"cannot sample Random vertex {s[0]!r}: the common denominator "
                    "of its probabilities exceeds 2^63"
                )
            cums = list(accumulate(nums))
            assert cums[-1] == den
            self.rows[i] = (den, cums, [land(index[t], 1) for t, _ in row])

    @functools.cached_property
    def cuts(self) -> dict[int, list[int]]:
        """The cut points below each denominator of all its rows: a draw is
        read as the interval it falls in between them. Built on first use,
        as plays that draw nothing need none."""
        cuts: dict[int, set[int]] = {}
        for den, cums, _ in self.rows.values():
            cuts.setdefault(den, set()).update(cums[:-1])
        return {den: sorted(c) for den, c in cuts.items()}

    @functools.cached_property
    def picks(self) -> dict[int, list[int]]:
        """Each row as a table of the landing it picks on each interval."""
        return {
            i: [bisect_right(cums, low) for low in (0, *self.cuts[den])]
            for i, (den, cums, _) in self.rows.items()
        }

    @property
    def scans(self) -> bool:
        """Whether `scan_plays` can tally the plays."""
        return len(self.cuts) == 1 and len(self.rows) <= _SCAN_ROWS

    def plays(
        self, gen: np.random.Generator, n: int, horizon: int, trace: list | None = None
    ) -> dict[tuple[int | None, int], int]:
        """The tally of n plays on one stream: how many stop on each absorbed
        state after each step count, with (None, horizon) for the truncated.

        `trace`, if given, gets the vertex of every step appended.
        """
        # bind every row to its denominator's draws, read as intervals, so
        # rows that share one share them, and every landing to the row of
        # its stop, None if absorbed
        draws = {den: _draws(gen, den, cuts).__next__ for den, cuts in self.cuts.items()}
        linked = {i: [draws[den]] for i, (den, _, _) in self.rows.items()}
        for i, (_, _, landings) in self.rows.items():
            landed = [(linked.get(stop), stop, d, ps) for stop, d, ps in landings]
            linked[i].append([landed[pick] for pick in self.picks[i]])
        first = (linked.get(self.first[0]), *self.first)
        tally: dict[tuple[int | None, int], int] = {}
        for _ in range(n):
            row, stop, steps, passed = first
            while True:
                if trace is not None:
                    # a jump past the horizon is traced as far as it fits
                    trace.extend(passed[: len(passed) + horizon - steps])
                if row is None or steps >= horizon:
                    break
                below, table = row
                row, stop, distance, passed = table[below()]
                steps += distance
            key = (None, horizon) if row is not None or steps > horizon else (stop, steps)
            tally[key] = tally.get(key, 0) + 1
        return tally

    @functools.cached_property
    def _automaton(self) -> tuple:
        """The tables `scan_plays` reads, for a chain whose rows share one
        denominator.

        Rows are numbered in `rows` order. A draw on interval j of the m
        intervals moves row r to the row of its landing or, if that is
        absorbed, back to the first landing's row, where the next play
        starts. So interval j is a map of the k rows, coded as `_maps`
        reads it. Each (row, interval) code r·m + j also gives the
        landing's distance, whether it is absorbed and the slot of its stop
        in the list of stops.
        """
        import numpy as np

        (den, cuts), = self.cuts.items()
        order = {i: r for r, i in enumerate(self.rows)}
        first, k, m = order[self.first[0]], len(order), len(cuts) + 1
        widths = [b - a for a, b in zip((0, *cuts), (*cuts, den))]
        maps, distance, ended, slots = [0] * m, [], [], []
        slot: dict[int, int] = {}  # of each absorbed stop
        # den times I minus the chances of moving from row to row
        system = [[den * (r == t) for t in range(k)] for r in range(k)]
        for r, (i, (_, _, landings)) in enumerate(self.rows.items()):
            for j, (pick, width) in enumerate(zip(self.picks[i], widths)):
                stop, d, _ = landings[pick]
                hit = stop in self.absorbed
                after = first if hit else order[stop]
                maps[j] += after * k**r
                distance.append(d)
                ended.append(hit)
                slots.append(slot.setdefault(stop, len(slot)) if hit else 0)
                if not hit:
                    system[r][after] -= width
        # the expected draws of a play size the batches; solved exactly,
        # as floats may round a system whose plays end very rarely to a
        # singular one
        per_play = float(solve_linear(system, [den] * k)[first])
        return (
            den,
            np.array(cuts, dtype=np.int64),  # below den <= 2^63
            np.array(maps),
            *_maps(k),
            np.array(distance, dtype=np.int64),
            np.array(ended),
            np.array(slots, dtype=np.int64),
            list(slot),
            first,
            per_play,
        )

    def scan_plays(
        self, gen: np.random.Generator, n: int, horizon: int
    ) -> dict[tuple[int | None, int], int] | None:
        """The tally `plays` gives for n plays on a chain whose rows, at most
        `_SCAN_ROWS`, share one denominator, where the first landing is a
        row below the horizon.

        Every draw is then that denominator's, so the draws form one
        stream whatever the plays do, and they are scanned in numpy a batch
        of blocks at a time. Each draw maps the row before it to the row
        after it, so the row before every draw is a prefix composition of
        those maps, found by Hillis–Steele doubling ("Data parallel
        algorithms", CACM 1986). A draw whose map is constant synchronises:
        a prefix that reaches back to one is already exact, so the doubling
        stops once its window spans the longest run back to one. On one row
        every map is constant, and nothing is composed. Returns None if some
        play would reach the horizon before it is absorbed: `plays` stops
        drawing there, so the scan's plays are no longer the loop's. That
        is checked for each absorbed play and, at the end of each batch,
        for the play still open, so the scan stops within a batch of the
        horizon however rarely plays end.
        """
        import numpy as np

        (den, bounds, maps, images, compose, constant,
         distance, ended, slots, stops, row, per_play) = self._automaton
        m, width = len(maps), len(stops)
        # steps stay far below 2^63, so comparing them with the horizon
        # clipped to int64 decides as comparing them with the horizon would,
        # and keeps the comparison in int64 on numpy 1.x, which casts a
        # larger Python int to float or object
        cap = min(horizon, _MAX_DEN - 1)
        start = steps = self.first[1]  # steps: of the play still open
        tally: dict[tuple[int | None, int], int] = {}
        while n:
            # about the draws the plays left need; fetching past the loop's
            # last block is harmless, as nothing reads the stream after its
            # plays
            wanted = n * per_play / _BLOCK
            blocks = math.ceil(wanted) if wanted < _SCAN_BLOCKS else _SCAN_BLOCKS
            drawn = np.concatenate([gen.integers(0, den, size=_BLOCK) for _ in range(blocks)])
            # each draw's (row, interval) code
            code = np.searchsorted(bounds, drawn, side="right")
            if len(images) > 1:  # more than one row
                prefix = maps[code]
                syncs = np.flatnonzero(constant[prefix])
                longest = np.diff(syncs, prepend=0, append=code.size).max()
                span = 1
                while span < longest:
                    prefix[span:] = compose[prefix[span:] * len(images[0]) + prefix[:-span]]
                    span *= 2
                rows = images[row][prefix]  # the row after each draw
                code[0] += row * m
                code[1:] += rows[:-1] * m
                row = int(rows[-1])
            walked = np.cumsum(distance[code])
            ends = np.flatnonzero(ended[code])[:n]
            if ends.size:
                # each play's steps: its share of the walk, plus its start
                at = walked[ends]
                before = np.concatenate(([start - steps], at[:-1]))
                played = at - before + start
                last = code[ends]
                if (played - distance[last] >= cap).any():
                    return None
                # one key per stop and steps, or -1 if truncated
                keys = np.where(played > cap, -1, played * width + slots[last])
                keys, counts = np.unique(keys, return_counts=True)
                for key, count in zip(keys.tolist(), counts.tolist()):
                    k, j = divmod(key, width)
                    key = (None, horizon) if key < 0 else (stops[j], k)
                    tally[key] = tally.get(key, 0) + count
                steps = start - int(at[-1])
            n -= ends.size
            steps += int(walked[-1])
            if n and steps >= cap:
                # the open play reaches the horizon before its next draw
                return None
        return tally


@functools.cache
def _maps(k: int) -> tuple:
    """The k^k maps of range(k) into itself, map c sending x to the x-th
    base-k digit of c, as (images, compose, constant): images[x, c] is c's
    image of x, compose[a·k^k + b] is map b, then map a, and constant[c]
    whether c sends every x to one."""
    import numpy as np

    n = k**k
    powers = k ** np.arange(k)
    images = np.arange(n) // powers[:, None] % k
    a = np.arange(n)[:, None]
    compose = sum(images[images[x], a] * int(p) for x, p in enumerate(powers))
    return images, compose.ravel(), (images == images[0]).all(axis=0)


def _draws(gen: np.random.Generator, den: int, cuts: list[int]) -> Iterator[int]:
    """The interval between `cuts` of each uniform draw below den, the draws
    fetched from gen a block of 256 at a time."""
    import numpy as np

    bounds = np.array(cuts, dtype=np.int64)
    return itertools.chain.from_iterable(
        np.searchsorted(bounds, gen.integers(0, den, size=_BLOCK), side="right").tolist()
        for _ in itertools.repeat(None)
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


def _check_run(n: int, horizon: int, workers: int = 1) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _plays(sampler: _Sampler, n: int, seed: int, workers: int, horizon: int) -> Counter:
    """The tally of n plays, summed over the workers' chunks, each chunk
    walked on its worker's own stream.

    Workers past the n-th would draw nothing, so only min(workers, n)
    streams are made; the plays are the same for any larger count. If the
    start's forced run ends absorbed, or at or past the horizon, no play
    draws and all n are alike, so no stream is made at all. A chain whose
    rows, at most `_SCAN_ROWS`, share one denominator is scanned by
    `scan_plays`, and walked again by `plays` on a fresh stream if a play
    reaches the horizon; any other chain is walked by `plays`. All three
    give the same tally.
    """
    stop, steps, _ = sampler.first
    if stop in sampler.absorbed or steps >= horizon:
        ended = stop in sampler.absorbed and steps <= horizon
        return Counter({(stop, steps) if ended else (None, horizon): n})
    tally: Counter = Counter()
    for worker, quota in enumerate(_chunks(n, min(workers, n))):
        part = sampler.scan_plays(stream(seed, worker), quota, horizon) if sampler.scans else None
        if part is None:
            part = sampler.plays(stream(seed, worker), quota, horizon)
        tally.update(part)
    return tally


def sample_play(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    start: str,
    seed: int,
    horizon: int = 10_000,
) -> PlayRecord:
    """One exact play under (sigma, tau), reproducible from the seed."""
    _check_run(1, horizon)
    sampler = _Sampler(product_chain(g, sigma, tau, [start]), start)
    trace = [start]
    (stop, _), = sampler.plays(stream(seed, 0), 1, horizon, trace)
    outcome, c = (Outcome.TRUNCATED, None) if stop is None else sampler.absorbed[stop]
    return PlayRecord(tuple(trace), outcome, c, None)


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
    _check_run(n, horizon, workers)
    sampler = _Sampler(product_chain(g, sigma, tau, [start]), start)

    wins = truncated = 0
    absorbed = sampler.absorbed
    for (stop, _), count in _plays(sampler, n, seed, workers, horizon).items():
        if stop is None:
            truncated += count
        elif absorbed[stop][0] is Outcome.WIN:
            wins += count

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
    _check_run(n, horizon, workers)
    dev_pairs = deviation_states(g, sigma, vals, m, cap)
    chain, absorbing = _deviation_chain(g, sigma, tau, dev_pairs, [start])
    sampler = _Sampler(chain, start)
    # deviated states loop to themselves, so a play stops on the first one
    # it reaches, and its step count there is its first-deviation date
    dev_idx = frozenset(i for i, s in enumerate(chain.states) if s in absorbing)

    deviated = truncated = 0
    histogram: dict[int, int] = {}
    for (stop, steps), count in _plays(sampler, n, seed, workers, horizon).items():
        if stop in dev_idx:
            deviated += count
            histogram[steps] = histogram.get(steps, 0) + count
        elif stop is None:
            truncated += count

    return DeviationStats(
        empirical_p=Fraction(deviated, n),
        histogram=dict(sorted(histogram.items())),
        n=n,
        truncated=truncated,
    )
