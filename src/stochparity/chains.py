"""Product chains, recurrent-class analysis, and one-sided optimization.

Fixing a Max strategy and a Min strategy turns a game into a finite
Markov chain over (vertex, max memory, min memory) states. A play ends
up in one of the chain's closed recurrent classes (bottom SCCs) with
probability one, and visits exactly the vertices of that class
infinitely often, so the parity condition is decided by the least
priority inside the class. Win probabilities are therefore exact:
classify each bottom SCC, then solve the absorption system exactly,
with integer rows and fraction-free elimination (`linalg`).

One kernel object, `_Chain`, does both on the collapsed chain: it splits
a chain once into its forced map and branching rows, each solve lays its
forced moves over that map, and `_collapse` maps every forced state (its
only positive edge has probability 1) to the first branching state or
forced cycle on its path, with the least priority on the way. Recurrent
classes are found by Tarjan over the branching states only, which alone
enter the linear system. Every exact solve goes through it: strategy
pairs, product policies, chain win probabilities and `_absorption`.

Fixing only one player's strategy leaves a finite MDP over (vertex,
memory) pairs. Parity MDPs admit optimal policies that are memoryless
on the product, so the free player's best value is found by exhaustive
enumeration of product policies; the enumeration is capped and the cap
reported when exceeded.

Both enumerators, of product policies here and of strategy pairs in
`values.solve_game`, take their optimum and witness in one pass
(`_optimum`): the witness is the first policy in enumeration order that
is optimal from every state at once. One always exists, so a pass that
finds none reports a bug.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .errors import CapExceededError, DeterminacyError, IllegalPlayError, StrategyError
from .game import GameGraph, Owner, _max_wins
from .linalg import solve_linear
from .mealy import MealyStrategy

# (vertex, max memory, min memory)
State = tuple[str, str, str]

_ZERO, _ONE = Fraction(0), Fraction(1)


class Outcome(Enum):
    WIN = "win"
    LOSE = "lose"
    TRUNCATED = "truncated"


@dataclass
class ProductChain:
    """Finite Markov chain induced by a game and a strategy pair.

    Only states reachable from the requested start vertices are
    materialized. `label` carries each state's vertex priority and
    `start` maps every requested start vertex to its product state.
    """

    states: tuple[State, ...]
    transitions: dict[State, tuple[tuple[State, Fraction], ...]]
    label: dict[State, int]
    start: dict[str, State]

    def bsccs(self) -> list[frozenset[State]]:
        return _bottom_sccs(self.states, lambda s: [t for t, _ in self.transitions[s]])


def _tarjan_sccs(
    nodes: Sequence[Hashable], succ: Callable[[Hashable], Iterable[Hashable]]
) -> list[list[Hashable]]:
    """Strongly connected components, iterative to spare the recursion limit."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    comps: list[list] = []
    counter = itertools.count()

    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = next(counter)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in onstack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
    return comps


def _bottom_sccs(nodes, succ) -> list[frozenset]:
    out = []
    for comp in _tarjan_sccs(nodes, succ):
        members = frozenset(comp)
        if all(w in members for s in comp for w in succ(s)):
            out.append(members)
    out.sort(key=lambda c: tuple(sorted(c)))
    return out


def product_chain(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    start_vertices: Iterable[str],
) -> ProductChain:
    """Build the chain induced by a Max and a Min strategy.

    Both machines read every vertex. Controlled moves follow the owning
    strategy's action as given; the construction only requires action
    targets to be vertices of the game, so machines whose actions
    reference edges absent from `g` (for instance edges removed by
    pruning) still induce a well-defined chain.
    """
    if sigma.player is not Owner.MAX:
        raise StrategyError("sigma must be a Max strategy")
    if tau.player is not Owner.MIN:
        raise StrategyError("tau must be a Min strategy")
    starts = sorted(set(start_vertices))
    for v in starts:
        if v not in g.by_id:
            raise IllegalPlayError(f"start vertex {v!r} is not in the game")

    def expand(s: State) -> tuple[tuple[State, Fraction], ...]:
        v, mx, mn = s
        mx2, mn2 = sigma.step(mx, v), tau.step(mn, v)
        owner = g.owner(v)
        if owner is Owner.RANDOM:
            rows = [(w, p) for w, p in g.distribution[v]]
        elif owner is Owner.MAX:
            rows = [(sigma.move(mx, v), Fraction(1))]
        else:
            rows = [(tau.move(mn, v), Fraction(1))]
        for w, _ in rows:
            if w not in g.by_id:
                raise StrategyError(f"strategy moves to unknown vertex {w!r}")
        return tuple(((w, mx2, mn2), p) for w, p in rows)

    start = {v: (v, sigma.initial, tau.initial) for v in starts}
    states, transitions = _breadth_first(start.values(), expand)
    label = {s: g.priority(s[0]) for s in states}
    return ProductChain(states, transitions, label, start)


def _breadth_first(starts: Iterable[State], expand: Callable) -> tuple:
    """The states reachable from `starts` in breadth-first order, and their rows."""
    # `states` doubles as the queue, read up to index i
    states: list[State] = list(starts)
    transitions: dict[State, tuple[tuple[State, Fraction], ...]] = {}
    seen = set(states)
    i = 0
    while i < len(states):
        s = states[i]
        i += 1
        transitions[s] = expand(s)
        for t, _ in transitions[s]:
            if t not in seen:
                seen.add(t)
                states.append(t)
    return tuple(states), transitions


def bsccs(chain: ProductChain) -> list[frozenset[State]]:
    """Closed recurrent classes (bottom SCCs), in a deterministic order."""
    return chain.bsccs()


def classify_bscc(chain: ProductChain, component: Iterable[State]) -> Outcome:
    """Win iff the least priority inside the class is even."""
    members = frozenset(component)
    if members not in set(chain.bsccs()):
        raise ValueError("not a closed recurrent class of this chain")
    return Outcome.WIN if _max_wins(chain.label[s] for s in members) else Outcome.LOSE


def _collapse(forced, label):
    """Where every forced state's forced path ends, and its least priority.

    `end[s]` is the first branching state on the path from `s`, or, when
    the path closes a cycle of forced states first, the least member of
    that cycle. `low[s]` is the least priority on the path before its
    end; for a path into a forced cycle it is the cycle's own least
    priority, the only one a play that stays on the cycle sees forever.
    """
    end: dict = {}
    low: dict = {}
    for s in forced:
        path: list = []
        on_path: dict = {}
        t = s
        while t in forced and t not in end:
            if t in on_path:
                cycle = path[on_path[t]:]
                rep, least = min(cycle), min(label[c] for c in cycle)
                for c in cycle:
                    end[c], low[c] = rep, least
                del path[on_path[t]:]
                break
            on_path[t] = len(path)
            path.append(t)
            t = forced[t]
        if t in forced:
            last, least = end[t], low[t]
            into_cycle = last in forced
        else:
            last, least, into_cycle = t, None, False
        for r in reversed(path):
            if not into_cycle and (least is None or label[r] < least):
                least = label[r]
            end[r], low[r] = last, least
    return end, low


def _branch_values(rows, end, low, label) -> dict:
    """Win probability of every branching state of a collapsed chain.

    The chain is given as its branching `rows` and the `end`/`low` maps
    of `_collapse`. A forced cycle is won by its own least priority; a
    bottom class of branching states, found by Tarjan over the branching
    states only, by the least priority over its members and the forced
    paths of their edges. The branching states off the winning classes
    that can reach one are the unknowns of the linear system; each one's
    row is built in integers, times the lcm of its probabilities' denominators.
    """
    succ = {b: [end.get(t, t) for t, _ in row] for b, row in rows.items()}
    ends = {e for es in succ.values() for e in es}
    won = {e for e in ends if e not in rows and _max_wins((low[e],))}
    inner = {b: [e for e in es if e in rows] for b, es in succ.items()}
    for comp in map(set, _tarjan_sccs(list(rows), inner.__getitem__)):
        if all(e in comp for b in comp for e in succ[b]):
            paths = [low[t] for b in comp for t, _ in rows[b] if t in low]
            if _max_wins([label[b] for b in comp] + paths):
                won.update(comp)

    preds: dict = {}
    for b, es in succ.items():
        for e in es:
            preds.setdefault(e, []).append(b)
    reach = set(won)
    queue = list(won)
    while queue:
        for b in preds.get(queue.pop(), ()):
            if b not in reach:
                reach.add(b)
                queue.append(b)

    unknown = [b for b in rows if b in reach and b not in won]
    pos = {b: i for i, b in enumerate(unknown)}
    n = len(unknown)
    matrix, rhs = [], []
    for b in unknown:
        scale = math.lcm(*(p.denominator for _, p in rows[b]))
        line = [0] * n
        line[pos[b]] = scale
        hit = 0
        for e, (_, p) in zip(succ[b], rows[b]):
            q = p.numerator * (scale // p.denominator)
            if e in won:
                hit += q
            elif e in pos:
                line[pos[e]] -= q
        matrix.append(line)
        rhs.append(hit)
    solved = solve_linear(matrix, rhs) if n else []
    return {
        b: _ONE if b in won else solved[pos[b]] if b in pos else _ZERO for b in rows
    }


class _Chain:
    """A chain split once into its forced map and branching rows.

    A state whose only positive edge has probability 1 is forced to its
    end; every other state in `transitions` is branching and keeps its
    positive edges. States without a row get their move from each solve.
    """

    def __init__(self, states, transitions: dict, label: dict):
        self.states, self.label = states, label
        self.forced: dict = {}
        self.rows: dict = {}
        for s, row in transitions.items():
            row = tuple((t, p) for t, p in row if p != 0)
            if len(row) == 1 and row[0][1] == 1:
                self.forced[s] = row[0][0]
            else:
                self.rows[s] = row
        self.targets = [t for row in self.rows.values() for t, _ in row]
        self.solved: dict[tuple, dict] = {}

    def values(self, moves: Iterable[tuple]) -> dict:
        """Win probability of every state, with the (state, successor) `moves` forced.

        Move sets whose collapsed systems agree (the same end and least
        priority on every branching row's edge) share one solve.
        """
        forced = dict(self.forced)
        forced.update(moves)
        end, low = _collapse(forced, self.label)
        key = tuple((end.get(t, t), low.get(t)) for t in self.targets)
        branch = self.solved.get(key)
        if branch is None:
            branch = self.solved[key] = _branch_values(self.rows, end, low, self.label)
        out: dict = {}
        for s in self.states:
            e = end.get(s, s)
            if e in branch:
                out[s] = branch[e]
            else:
                out[s] = _ONE if _max_wins((low[e],)) else _ZERO
        return out


def _absorption(
    states: Sequence[Hashable],
    transitions: dict,
    target: frozenset,
) -> dict:
    """P(reach target) for every state; target must be closed.

    A play that enters a closed set ends in a recurrent class inside it,
    and every class lies wholly inside or outside it, so reaching the
    target is winning with priority 0 on its states and 1 elsewhere.
    Only the branching states that can reach it are unknowns.
    """
    label = {s: 0 if s in target else 1 for s in states}
    return _Chain(states, transitions, label).values(())


def absorption_probabilities(
    chain: ProductChain, target: Iterable[State]
) -> dict[State, Fraction]:
    """Exact probability of reaching `target` from every state.

    The target must be a union of the chain's closed recurrent classes;
    everything that cannot reach it gets probability zero and the
    remaining states are solved as one rational linear system.
    """
    wanted = frozenset(target)
    covered: set[State] = set()
    for c in chain.bsccs():
        if c <= wanted:
            covered |= c
    if covered != wanted:
        raise ValueError("target is not a union of closed recurrent classes")
    return _absorption(chain.states, chain.transitions, wanted)


def chain_win_probability(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    start_vertices: Iterable[str],
) -> dict[str, Fraction]:
    """Exact Max win probability from each start vertex under (sigma, tau)."""
    chain = product_chain(g, sigma, tau, start_vertices)
    values = _Chain(chain.states, chain.transitions, chain.label).values(())
    return {v: values[s] for v, s in chain.start.items()}


def _optimum(tagged_maps, better):
    """Pointwise optimum of (tag, map) pairs and the first tag attaining it.

    `better(x, y)` says x strictly beats y. A map that gains somewhere and
    loses nowhere equals the new optimum and becomes the candidate; one
    that loses somewhere never can, as the optimum only improves; one that
    equals the optimum becomes the candidate if there is none. The tag is
    None when no map attains the optimum at every key.
    """
    best = tag = None
    for t, vals in tagged_maps:
        if best is None:
            best, tag = dict(vals), t
            continue
        gains = loses = False
        for k, x in vals.items():
            y = best[k]
            if x != y:
                if better(x, y):
                    best[k], gains = x, True
                else:
                    loses = True
        if gains or tag is None:
            tag = None if loses else t
    return best, tag


class _ProductMdp:
    """The one-player decision process left when one strategy is fixed."""

    def __init__(self, g: GameGraph, fixed: MealyStrategy, free_player: Owner):
        if free_player not in (Owner.MAX, Owner.MIN):
            raise StrategyError("free player must be max or min")
        if fixed.player is free_player:
            raise StrategyError("fixed strategy belongs to the free player")
        mems = sorted(fixed.memory_states)
        self.states = [(v, m) for v in g.vertex_ids for m in mems]
        self.label = {(v, m): g.priority(v) for v, m in self.states}
        self.better = operator.gt if free_player is Owner.MAX else operator.lt

        base: dict[tuple[str, str], tuple] = {}
        self.choice_states: list[tuple[str, str]] = []
        for v, m in self.states:
            owner = g.owner(v)
            m2 = fixed.step(m, v)
            if owner is free_player:
                self.choice_states.append((v, m))
            elif owner is Owner.RANDOM:
                base[(v, m)] = tuple(((w, m2), p) for w, p in g.distribution[v])
            else:
                w = fixed.move(m, v)
                if w not in g.by_id:
                    raise StrategyError(f"strategy moves to unknown vertex {w!r}")
                base[(v, m)] = (((w, m2), _ONE),)
        self.chain = _Chain(self.states, base, self.label)
        self.after = [fixed.step(m, v) for v, m in self.choice_states]
        self.pools = [g.successors[v] for v, _ in self.choice_states]

    def values_of(self, choice: tuple[str, ...]) -> dict:
        return self.chain.values(zip(self.choice_states, zip(choice, self.after)))

    def optimum(self, cap: int) -> tuple[dict, tuple[str, ...] | None]:
        """Best values over every policy, and the first policy attaining them."""
        count = math.prod(len(p) for p in self.pools)
        if count > cap:
            raise CapExceededError(count, cap, "policy enumeration")
        policies = itertools.product(*self.pools)
        return _optimum(((c, self.values_of(c)) for c in policies), self.better)


def mdp_table(
    g: GameGraph,
    fixed: MealyStrategy,
    free_player: Owner,
    cap: int = 2**20,
) -> dict[tuple[str, str], Fraction]:
    """The per-pair optimum of mdp_value, without the witness."""
    return _ProductMdp(g, fixed, free_player).optimum(cap)[0]


def mdp_value(
    g: GameGraph,
    fixed: MealyStrategy,
    free_player: Owner,
    cap: int = 2**20,
) -> tuple[dict[tuple[str, str], Fraction], MealyStrategy]:
    """Optimal value against `fixed` at every (vertex, memory) pair.

    One strategy is fixed; the other player picks any strategy. Their
    best achievable win probability is attained by a policy that is
    memoryless on the (vertex, memory) product, so all such policies
    are enumerated: maximized for a free Max, minimized for a free Min.
    Returns the per-pair optimum together with one policy attaining it
    at every pair simultaneously, folded back into a Mealy strategy
    that reuses the fixed machine's memory structure. Enumeration order
    is lexicographic in (vertex, memory) and successor ids, so the
    witness is the first optimal policy in that order.
    """
    mdp = _ProductMdp(g, fixed, free_player)
    best, choice = mdp.optimum(cap)
    if choice is None:
        raise DeterminacyError(
            "no single product policy is optimal at every state; this is a bug"
        )

    action = {(m, v): w for (v, m), w in zip(mdp.choice_states, choice)}
    witness = MealyStrategy(
        free_player,
        fixed.memory_states,
        fixed.initial,
        dict(fixed.update),
        action,
    )
    return best, witness
