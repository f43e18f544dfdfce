"""Seeded inputs and job lists for the three benchmark workloads.

Every input file is written before timing starts; a job is the argv of
one `stochparity` CLI call on those files. Games come from
`random_game` and are kept by static properties only (vertex count,
memoryless strategy counts, whether values lie strictly between 0 and
1), filled into fixed quotas so that each seed gets the same mix of game
shapes. No rule looks at timing. Strategies are built from the solver's
witnesses, so inputs depend on `solve_game` returning the same
witnesses; the digests recorded per seed (`checks.input_digest`) show
when they do not.

Each job carries `expect`, the exit codes it may end with, and `facts`
for the output checks in `checks.py`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from stochparity import fixtures
from stochparity.chains import product_chain
from stochparity.game import GameGraph, Owner, random_game, serialize_game
from stochparity.mealy import (
    MealyStrategy,
    count_memoryless,
    serialize_strategy,
    stubborn_strategy,
)
from stochparity.linalg import solve_linear
from stochparity.values import solve_game

FRACTIONS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
MAX_PRIORITY = 3
MAX_OUT_DEGREE = 3


@dataclass
class Job:
    kind: str
    argv: list[str]
    expect: tuple[int, ...] = (0,)
    facts: dict = field(default_factory=dict)


def draw_games(rng: random.Random, sizes, quotas: dict, classify) -> list:
    """Draw random games until every quota cell is filled.

    `classify(g)` returns a cell key or None; a game is kept when its
    cell still has room. Returns the kept games in draw order.
    """
    left = dict(quotas)
    kept = []
    while any(left.values()):
        n = rng.choice(sizes)
        g = random_game(
            rng.randrange(2**31), n, MAX_PRIORITY, MAX_OUT_DEGREE, rng.choice(FRACTIONS)
        )
        key = classify(g)
        if left.get(key, 0) > 0:
            left[key] -= 1
            kept.append(g)
    return kept


def pairs(g: GameGraph) -> int:
    return count_memoryless(g, Owner.MAX) * count_memoryless(g, Owner.MIN)


def witness_stubborn(g: GameGraph, sigma_star: MealyStrategy, k: int):
    """Play the witness until the pivot's k-th visit, then switch one move.

    The pivot is the first Max vertex with a choice and the switched move
    its first successor that the witness does not take; in a game where
    Max has no choice the strategy only counts pivot visits.
    """
    good = {v: sigma_star.move(sigma_star.initial, v) for v in g.owned_by(Owner.MAX)}
    choices = [v for v in g.owned_by(Owner.MAX) if len(g.successors[v]) > 1]
    pivot = choices[0] if choices else g.vertex_ids[0]
    bad = dict(good)
    if choices:
        bad[pivot] = next(w for w in g.successors[pivot] if w != good[pivot])
    return pivot, stubborn_strategy(g, good, bad, pivot, k)


class Inputs:
    """Writes input files into a work directory and names them."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)


# ---------------------------------------------------------------------------
# solve-sweep: solve --out then check, over many memoryless chains

# Games per (vertex count, exact memoryless pair count): every seed solves
# the same number of pairs. Time per pair still varies about 40% from game
# to game, so the sum is steady only over many mid-sized games; a few large
# ones would dominate it.
SWEEP_SIZES = (7, 8, 9, 10)
SWEEP_QUOTAS = {
    **{p: 1 for p in (1, 2, 3, 4, 6, 8, 9)},
    **{p: 3 for p in (12, 16, 18, 24, 27, 32, 36, 48, 54, 72, 81, 96, 108)},
}


def solve_sweep(seed: int, inputs: Inputs) -> list[Job]:
    rng = random.Random(f"solve-sweep|{seed}")
    quotas = {(n, p): q for n in SWEEP_SIZES for p, q in SWEEP_QUOTAS.items()}
    games = draw_games(rng, SWEEP_SIZES, quotas, lambda g: (len(g.vertices), pairs(g)))
    rng.shuffle(games)
    jobs = []
    for i, g in enumerate(games):
        game = inputs.write(f"sweep{i:03d}.json", serialize_game(g))
        sol = str(inputs.dir / f"sweep{i:03d}.sol.json")
        facts = {"vertices": list(g.vertex_ids)}
        jobs.append(Job("solve", ["solve", game, "--out", sol], facts=facts))
        jobs.append(Job("check", ["check", game, sol]))
    return jobs


# ---------------------------------------------------------------------------
# strategy-audit: quality tables, deviation probabilities, resets, verify

AUDIT_SIZES = (5, 6, 7)
AUDIT_KS = (2, 3, 4)


def _value_kind(g: GameGraph) -> str:
    """'zero' if every value is 0, 'mixed' if some value lies strictly
    between 0 and 1, else '01'."""
    values = solve_game(g).values.values()
    if all(x == 0 for x in values):
        return "zero"
    return "mixed" if any(0 < x < 1 for x in values) else "01"


def _audit_cell(g: GameGraph):
    # Mostly Min without a choice: verify grows about as (Min strategies)^4
    # and each quality table enumerates (Min choices)^memories policies,
    # and either makes a few games dominate the run. A few games where Min
    # has 2 strategies are audited at k = 2 only, without verify, so that
    # quality tables enumerate more than one policy. Max has 2 or 3
    # strategies, which bounds the candidates verify audits.
    n_min, n_max = count_memoryless(g, Owner.MIN), count_memoryless(g, Owner.MAX)
    if n_min == 2 and n_max == 2:
        return (len(g.vertices), "min2") if _value_kind(g) == "mixed" else None
    if n_min != 1 or n_max not in (2, 3):
        return None
    return (len(g.vertices), n_max, _value_kind(g))


# Games per (vertex count, Max strategies, value kind). Only about one in
# ten games kept by _audit_cell has a value strictly between 0 and 1, so
# without quotas per kind most games would have 0/1 values only, where
# deviation probabilities and reset repairs are mostly trivial. With
# G1-G3, every seed audits 28 games with such a value, 20 with 0/1 values
# only and 3 with all values zero; the Min-2 games are all of the first.
AUDIT_QUOTAS = {"mixed": 4, "01": 3}


def strategy_audit(seed: int, inputs: Inputs) -> list[Job]:
    rng = random.Random(f"strategy-audit|{seed}")
    quotas = {(n, n_max, kind): q for n in AUDIT_SIZES for n_max in (2, 3)
              for kind, q in AUDIT_QUOTAS.items()}
    quotas.update({(n, 2, "zero"): 1 for n in AUDIT_SIZES})
    quotas.update({(n, "min2"): 1 for n in AUDIT_SIZES})
    cases = [("G1", fixtures.g1()), ("G2", fixtures.g2()), ("G3", fixtures.g3())]
    for i, g in enumerate(draw_games(rng, AUDIT_SIZES, quotas, _audit_cell)):
        cases.append((f"audit{i:02d}", g))

    groups = []
    for name, g in cases:
        sol = solve_game(g)
        game = inputs.write(f"{name}.json", serialize_game(g))
        tau = inputs.write(f"{name}.tau.json", serialize_strategy(sol.tau_star))
        zero = sol.m == math.inf
        dev_expect = (4,) if zero else (0,)
        group, ks = [Job("verify", ["verify", game])], AUDIT_KS
        if count_memoryless(g, Owner.MIN) > 1:
            group, ks = [], AUDIT_KS[:1]
        for k in ks:
            if name == "G3":
                pivot, sigma = "s", fixtures.stubborn3(k)
            else:
                pivot, sigma = witness_stubborn(g, sol.sigma_star, k)
            strat = inputs.write(f"{name}.k{k}.json", serialize_strategy(sigma))
            facts = {"vertices": list(g.vertex_ids), "memories": list(sigma.memory_states),
                     "initial": sigma.initial}
            group.append(Job("quality", ["quality", game, strat], facts=facts))
            group.append(Job("lower-value", ["lower-value", game, strat], facts=facts))
            group.append(Job("deviation-prob",
                             ["deviation-prob", game, strat, tau, "--start", pivot],
                             expect=dev_expect))
            # exit 2: the base strategy keeps a pruned edge where it does not reset
            group.append(Job("reset", ["reset", game, strat],
                             expect=(4,) if zero else (0, 2), facts=facts))
        groups.append(group)
    rng.shuffle(groups)
    return [job for group in groups for job in group]


# ---------------------------------------------------------------------------
# sample: Monte Carlo plays, plain estimates and --deviations

SAMPLE_SIZES = (5, 6, 7)
SAMPLE_PLAYS = 1500
SAMPLE_K = 3  # memory of the stubborn strategy on the seeded games
# A play's cost is its length, which ranges from 0 to about 50 steps on
# these games; keeping the expected length from the start within a narrow
# band makes every seed's plays about equally long.
SAMPLE_STEPS = (Fraction(4), Fraction(8))


def expected_steps(chain, start: str) -> Fraction:
    """Exact expected number of steps before a play enters a closed class."""
    closed = set().union(*chain.bsccs())
    transient = [s for s in chain.states if s not in closed]
    pos = {s: i for i, s in enumerate(transient)}
    matrix = [[Fraction(0)] * len(transient) for _ in transient]
    for s in transient:
        matrix[pos[s]][pos[s]] += 1
        for t, p in chain.transitions[s]:
            if t in pos:
                matrix[pos[s]][pos[t]] -= p
    steps = solve_linear(matrix, [Fraction(1)] * len(transient)) if transient else []
    s0 = chain.start[start]
    return steps[pos[s0]] if s0 in pos else Fraction(0)


def _sample_case(g: GameGraph):
    """(start, sigma, tau) for a game the sample workload may use, or None."""
    # Min without a choice keeps the exact part of --deviations to one
    # quality-table policy, so the sampler's walk dominates
    if count_memoryless(g, Owner.MIN) != 1:
        return None
    sol = solve_game(g)
    if sol.m == math.inf:
        return None
    _, sigma = witness_stubborn(g, sol.sigma_star, SAMPLE_K)
    lo, hi = SAMPLE_STEPS
    for start in g.vertex_ids:
        chain = product_chain(g, sigma, sol.tau_star, [start])
        if lo <= expected_steps(chain, start) <= hi:
            return start, sigma, sol.tau_star
    return None


def sample(seed: int, inputs: Inputs) -> list[Job]:
    rng = random.Random(f"sample|{seed}")
    quotas = {(n, n_max): 6 for n in SAMPLE_SIZES for n_max in (2, 3, 4, 6)}
    cell = lambda g: _sample_case(g) and (len(g.vertices), count_memoryless(g, Owner.MAX))
    g3 = fixtures.g3()
    cases = [("G3", g3, "s", fixtures.sigma3(), fixtures.trivial_min(g3), 4)]
    for i, g in enumerate(draw_games(rng, SAMPLE_SIZES, quotas, cell)):
        cases.append((f"sample{i:02d}", g, *_sample_case(g), 1))

    jobs = []
    for name, g, start, sigma, tau, reps in cases:
        game = inputs.write(f"{name}.json", serialize_game(g))
        strat = inputs.write(f"{name}.sigma.json", serialize_strategy(sigma))
        tau = inputs.write(f"{name}.tau.json", serialize_strategy(tau))
        for workers, deviations, _ in itertools.product((1, 2), (False, True), range(reps)):
            argv = ["simulate", game, strat, tau, "--start", start,
                    "--samples", str(SAMPLE_PLAYS), "--seed", str(rng.randrange(2**31)),
                    "--workers", str(workers)]
            if deviations:
                argv.append("--deviations")
            jobs.append(Job("simulate", argv, facts={"samples": SAMPLE_PLAYS}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "solve-sweep": solve_sweep,
    "strategy-audit": strategy_audit,
    "sample": sample,
}
