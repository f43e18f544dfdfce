"""The integer solver against Fraction elimination, alone and inside the chain kernel."""

from __future__ import annotations

import copy
import functools
import itertools
import random
from fractions import Fraction

import pytest

from stochparity import Owner, product_chain, stubborn_strategy
from stochparity import chains
from stochparity.linalg import solve_linear
from test_acceptance import corpus_games
from test_chains import iter_memoryless, kernel_chain_values


def reference_solve_linear(matrix, rhs):
    """Gauss-Jordan elimination on Fractions, the solver the integer one replaced."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the right-hand side")
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]

    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]

    return [Fraction(a[r][n]) for r in range(n)]


def reference(matrix, rhs):
    """The reference on the same system with every entry made a Fraction."""
    return reference_solve_linear(
        [[Fraction(x) for x in row] for row in matrix], [Fraction(x) for x in rhs]
    )


def outcome(solve, matrix, rhs):
    """The solution, or the ValueError text."""
    try:
        return solve(matrix, rhs)
    except ValueError as exc:
        return str(exc)


DENOMINATORS = (1, 2, 3, 6, 7, 2**31 - 1, 2**63, 2**64 + 1)
# every size from 1 to 12, the small ones most often, as in the kernel's systems
SIZES = (*range(1, 13), *range(1, 7), *range(1, 5))


def random_entry(rng, kind):
    if kind == "small":
        return rng.randint(-3, 3)
    if rng.random() < 0.2:
        den = rng.choice(DENOMINATORS)
    else:
        den = rng.randint(1, 20)
    return Fraction(rng.randint(-2 * den, 2 * den), den)


def random_system(seed):
    """A seeded (kind, matrix, rhs) of size 1-12.

    Kinds: dense with denominators up to 2^64 + 1, sparse, small ints
    (often singular), and absorption-like I - P with P substochastic. Some get
    zeros on the diagonal, so elimination must swap rows, and some a
    repeated row, so they are singular.
    """
    rng = random.Random(seed)
    n = SIZES[seed % len(SIZES)]
    kind = ("dense", "sparse", "small", "absorption")[seed // len(SIZES) % 4]
    matrix = [[random_entry(rng, kind) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        for row in matrix:
            for j in range(n):
                if rng.random() < 0.7:
                    row[j] = 0
    if kind == "absorption":
        for i in range(n):
            weights = [rng.randint(0, 3) for _ in range(n + 1)]
            den = sum(weights) or 1
            matrix[i] = [
                int(i == j) - Fraction(w, den) for j, w in enumerate(weights[:n])
            ]
    if rng.random() < 0.3:
        for i in rng.sample(range(n), rng.randint(1, n)):
            matrix[i][i] = 0
    if n > 1 and rng.random() < 0.1:
        i, j = rng.sample(range(n), 2)
        matrix[j] = [x * -3 for x in matrix[i]]
    rhs = [random_entry(rng, kind) for _ in range(n)]
    return kind, matrix, rhs


class TestAgainstFractionElimination:
    def test_seeded_systems(self):
        covered = {"swap": 0, "singular": 0, "huge": 0}
        kinds = set()
        for seed in range(2200):
            kind, matrix, rhs = random_system(seed)
            kinds.add((kind, len(matrix)))
            want = outcome(reference, matrix, rhs)
            assert outcome(solve_linear, matrix, rhs) == want, seed
            if isinstance(want, str):
                assert want == "singular matrix"
                covered["singular"] += 1
            elif matrix[0][0] == 0:
                covered["swap"] += 1
            dens = [x.denominator for row in matrix for x in row if x]
            covered["huge"] += any(d >= 2**63 for d in dens)
        assert len(kinds) == 4 * 12
        assert all(count >= 50 for count in covered.values()), covered

    def test_int_only_input(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = 1 + seed % 8
            matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-5, 5) for _ in range(n)]
            assert outcome(solve_linear, matrix, rhs) == outcome(reference, matrix, rhs)

    def test_mixed_int_and_fraction_input(self):
        matrix = [[2, Fraction(1, 3)], [Fraction(-1, 2**64 + 1), 5]]
        rhs = [Fraction(7, 4), -1]
        assert solve_linear(matrix, rhs) == reference(matrix, rhs)

    def test_result_is_fractions(self):
        got = solve_linear([[2, 0], [0, 4]], [4, 2])
        assert got == [2, Fraction(1, 2)]
        assert all(type(x) is Fraction for x in got)
        assert solve_linear([], []) == []

    def test_inputs_not_mutated(self):
        for seed in range(0, 240, 7):
            _, matrix, rhs = random_system(seed)
            before = copy.deepcopy((matrix, rhs))
            outcome(solve_linear, matrix, rhs)
            assert (matrix, rhs) == before

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            ([[0]], [1]),
            ([[1, 2], [2, 4]], [1, 1]),
            ([[0, 0], [0, 0]], [0, 0]),
            ([[Fraction(1, 3), 1, 0], [1, 3, 0], [0, 0, 1]], [1, 2, 3]),
        ],
    )
    def test_singular(self, matrix, rhs):
        with pytest.raises(ValueError, match="^singular matrix$"):
            solve_linear(matrix, rhs)

    @pytest.mark.parametrize(
        "matrix, rhs",
        [([[1, 2]], [1]), ([[1], [2]], [1, 2]), ([[1]], [1, 2]), ([[1, 0], [0]], [1, 1])],
    )
    def test_not_square(self, matrix, rhs):
        with pytest.raises(
            ValueError, match="^matrix must be square and match the right-hand side$"
        ):
            solve_linear(matrix, rhs)


def policy_values(g, fixed, choice):
    """One Min policy's values against `fixed`, on a fresh kernel object."""
    return chains._ProductMdp(g, fixed, Owner.MIN).values_of(choice)


def kernel_inputs():
    """One call per chain the chain-kernel tests solve, each on a fresh kernel.

    The games of acceptance criterion 2 under memoryless and counting
    strategy pairs, and the one-player process of the counting machine
    under its first three policies, as in test_chains. A fresh kernel
    object per call shares no solve between calls.
    """
    for g in corpus_games():
        sigmas = list(itertools.islice(iter_memoryless(g, Owner.MAX), 2))
        taus = list(itertools.islice(iter_memoryless(g, Owner.MIN), 2))
        pivot = g.vertex_ids[0]
        moves = {v: sigmas[0].move("m0", v) for v in g.owned_by(Owner.MAX)}
        sigmas.append(stubborn_strategy(g, moves, moves, pivot, 3))
        for sigma, tau in itertools.product(sigmas, taus):
            chain = product_chain(g, sigma, tau, g.vertex_ids)
            yield functools.partial(
                kernel_chain_values, chain.states, chain.transitions, chain.label
            )
        fixed = sigmas[-1]
        pools = chains._ProductMdp(g, fixed, Owner.MIN).pools
        for choice in itertools.islice(itertools.product(*pools), 3):
            yield functools.partial(policy_values, g, fixed, choice)


class TestInsideTheKernel:
    def test_same_values_with_the_reference_solver(self, monkeypatch):
        cases = list(kernel_inputs())
        got = [solve() for solve in cases]
        calls = []

        def recording(matrix, rhs):
            calls.append(len(matrix))
            return reference(matrix, rhs)

        monkeypatch.setattr(chains, "solve_linear", recording)
        assert [solve() for solve in cases] == got
        assert len(cases) > 1000 and len(calls) > 150 and max(calls) >= 9
