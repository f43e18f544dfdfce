"""Product chains, recurrent-class analysis, and one-sided optimization.

Fixing a Max strategy and a Min strategy turns a game into a finite
Markov chain over (vertex, max memory, min memory) states. A play ends
up in one of the chain's closed recurrent classes (bottom SCCs) with
probability one, and visits exactly the vertices of that class
infinitely often, so the parity condition is decided by the least
priority inside the class. Win probabilities are therefore exact:
classify each bottom SCC, then solve the absorption system exactly,
with integer rows and fraction-free elimination (`linalg`).

One kernel object, `_Chain`, does both on the collapsed chain, and tips
go to values on its one path. A forced state (its only positive edge has
probability 1) stands for its tip: the first end on its forced path with
the least priority on the way, or True or False for a path into a forced
cycle, whether Max wins it. `lay` collapses a chain's forced moves
(`_collapse`, the one exact routine that follows forced paths; the
sampler walks its own, for their length and the vertices passed);
branching states and states whose move is open stay ends. `evaluate`
hops the open moves at those ends, keys the system by the tip of every
branching row's edge, so moves into cycles of one parity share a solve,
and solves once per key, by Tarjan over the branching states only, which
alone enter the linear system. Strategy pairs, product policies, chain
win probabilities and `_absorption` all take this path.

Fixing only one player's strategy leaves a finite MDP over (vertex,
memory) pairs. Parity MDPs admit optimal policies that are memoryless
on the product, so the free player's best value is found by exhaustive
enumeration of product policies, capped, with the cap reported when
exceeded. The fixed strategy is laid once per table, and each policy is
one `evaluate` over the choice states that have more than one move.

`product_chain` can also stop at a given set of (vertex, Max memory)
pairs: a state on one loops to itself and is never expanded, which is
how `resets._deviation_chain` keeps only the states plays reach up to
their first deviation.

The enumeration of product policies here and the Max side of
`values.solve_game` take their optimum and witness in one pass
(`_optimum`): the first policy in enumeration order optimal from every
state at once, which always exists, so a pass that finds none reports a
bug. `solve_game`'s τ* comes from a rank check against that envelope.
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
    *,
    stop: frozenset[tuple[str, str]] = frozenset(),
) -> ProductChain:
    """Build the chain induced by a Max and a Min strategy.

    Both machines read every vertex. Controlled moves follow the owning
    strategy's action as given; the construction only requires action
    targets to be vertices of the game, so machines whose actions
    reference edges absent from `g` (for instance edges removed by
    pruning) still induce a well-defined chain. Each state the starts
    reach is expanded once, in breadth-first order, by `_successors`,
    except that a state on a (vertex, Max memory) pair in `stop` gets a
    self-loop when first reached, so no move or update past it is read.
    """
    if sigma.player is not Owner.MAX:
        raise StrategyError("sigma must be a Max strategy")
    if tau.player is not Owner.MIN:
        raise StrategyError("tau must be a Min strategy")
    starts = sorted(set(start_vertices))
    for v in starts:
        if v not in g.by_id:
            raise IllegalPlayError(f"start vertex {v!r} is not in the game")

    start = {v: (v, sigma.initial, tau.initial) for v in starts}
    # `states` grows while it is read, so it doubles as the breadth-first queue
    states: list[State] = list(start.values())
    transitions: dict[State, tuple[tuple[State, Fraction], ...]] = {}
    seen = set(states)
    for s in states:
        v, mx, mn = s
        if (v, mx) in stop:
            row = ((s, _ONE),)
        else:
            mx2, mn2 = sigma.step(mx, v), tau.step(mn, v)
            mover, mem = (tau, mn) if g.owner(v) is Owner.MIN else (sigma, mx)
            row = tuple(((w, mx2, mn2), p) for w, p in _successors(g, v, mover, mem))
        transitions[s] = row
        for t, _ in row:
            if t not in seen:
                seen.add(t)
                states.append(t)
    label = {s: g.priority(s[0]) for s in states}
    return ProductChain(tuple(states), transitions, label, start)


def _successors(g: GameGraph, v: str, mover: MealyStrategy, mem: str) -> tuple:
    """The (vertex, probability) successors of every product state at `v`:
    a Random vertex's distribution, else `mover`'s move at `mem`, checked."""
    if g.owner(v) is Owner.RANDOM:
        return g.distribution[v]
    w = mover.move(mem, v)
    if w not in g.by_id:
        raise StrategyError(f"strategy moves to unknown vertex {w!r}")
    return ((w, _ONE),)


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
    """Where every forced state's forced path ends: its tip.

    `tip[s]` is True or False when the path from `s` closes a cycle of
    forced states: whether Max wins that cycle, by its least priority,
    the only one a play that stays on it sees forever. Otherwise it is
    (end, low): the first unforced state on the path and the least
    priority on the way before it. A state may also be forced straight
    to True or False, a cycle decided beforehand.
    """
    tip: dict = {}
    for s in forced:
        if s in tip:
            continue
        # the states on the path hold None until their tip is known
        path: list = []
        t = s
        while t in forced and t not in tip:
            tip[t] = None
            path.append(t)
            t = forced[t]
        if t in tip:
            after = tip[t]
            if after is None:  # the path closed a cycle at t
                cycle = path[path.index(t):]
                after = _max_wins(label[c] for c in cycle)
                tip.update(dict.fromkeys(cycle, after))
                del path[-len(cycle):]
        elif t is True or t is False:
            after = t
        else:
            after = (t, None)
        if after is True or after is False:
            for r in path:
                tip[r] = after
            continue
        end, least = after
        for r in reversed(path):
            if least is None or label[r] < least:
                least = label[r]
                after = (end, least)
            tip[r] = after
    return tip


def _branch_values(rows, key, label) -> dict:
    """Win probability of every branching state of a collapsed chain.

    The chain is given as its branching `rows` and a `key` holding the
    `_collapse` tip of every row edge, in row order, with (t, None) for
    an edge into a branching state t. A forced cycle is decided by its
    tip; a bottom class of branching states, found by Tarjan over the
    branching states only, by the least priority over its members and
    the forced paths of their edges. The branching states off the
    winning classes that can reach one are the unknowns of the linear
    system; each one's row is built in integers, times the lcm of its
    probabilities' denominators.
    """
    tips = iter(key)
    edges = {b: [next(tips) for _ in row] for b, row in rows.items()}
    succ = {
        b: [k if k is True or k is False else k[0] for k in ks] for b, ks in edges.items()
    }
    won = {True}
    inner = {b: [e for e in es if e in rows] for b, es in succ.items()}
    for comp in map(set, _tarjan_sccs(list(rows), inner.__getitem__)):
        if all(e in comp for b in comp for e in succ[b]):
            paths = [k[1] for b in comp for k in edges[b] if k[1] is not None]
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

    A state whose only positive edge has probability 1 is forced; every
    other state in `transitions` is branching and keeps its positive
    edges. States without a row get a move from `lay` or stay ends for
    `evaluate` to hop over. Each system is solved once per key, and its
    values are interned, so equal values from one object are one object.
    """

    def __init__(self, states, transitions: dict, label: dict):
        self.states, self.label = states, label
        self.forced: dict = {}
        self.rows: dict = {}
        for s, row in transitions.items():
            # `_ONE` by identity and zeros by numerator, before Fraction's
            # Python-level comparison: forced rows carry `_ONE`
            if len(row) != 1 or row[0][1] is not _ONE and row[0][1] != 1:
                row = tuple(e for e in row if e[1].numerator)
                if len(row) != 1 or row[0][1] != 1:
                    self.rows[s] = row
                    continue
            self.forced[s] = row[0][0]
        # each unforced state's tip: its own end
        self.open = {s: (s, None) for s in states if s not in self.forced}
        self.targets = [t for row in self.rows.values() for t, _ in row]
        self.solved: dict[tuple, dict] = {}
        self.interned: dict = {_ZERO: _ZERO, _ONE: _ONE}

    def solve(self, key: tuple) -> dict:
        """The value at True, False and every branching state of the system
        `key` describes, by `_branch_values`, once per key."""
        at = self.solved.get(key)
        if at is None:
            intern = self.interned.setdefault
            at = self.solved[key] = {True: _ONE, False: _ZERO}
            for b, x in _branch_values(self.rows, key, self.label).items():
                at[b] = intern(x, x)
        return at

    def lay(self, moves: Iterable[tuple]) -> dict:
        """Stage 1: every state's tip, with the (state, successor) `moves`
        forced; a state left unforced is its own end."""
        forced = dict(self.forced)
        forced.update(moves)
        tip = dict(self.open)
        tip.update(_collapse(forced, self.label))
        return tip

    def ends(self, tip: dict) -> list:
        """The end of every state's tip, in state order: True or False for a
        decided cycle."""
        return [k if k is True or k is False else k[0] for k in map(tip.__getitem__, self.states)]

    def evaluate(self, row_tips: tuple, hops: Iterable[tuple] = ()) -> dict:
        """Stage 2: the value at every end, True and False included, in a
        map that callers only read (with no hops, the cached one).

        `row_tips` holds the stage-1 tip of every branching row's edge, in
        `targets` order, and `hops` a (state, tip) pair for each end left
        to a move: the stage-1 tip of its successor. The hops are laid
        over those ends, with the least priority of each and its path,
        and each row tip that ends at one is carried on to its whole tip.
        """
        label, forced, low = self.label, {}, {}
        for u, hop in hops:
            if hop is True or hop is False:
                forced[u] = hop
            else:
                forced[u], least = hop
                low[u] = label[u] if least is None or label[u] < least else least
        if not forced:
            return self.solve(row_tips)
        tip = _collapse(forced, low)

        def whole(first):
            if first is True or first is False or first[0] not in tip:
                return first
            then = tip[first[0]]
            if then is True or then is False or first[1] is None or then[1] <= first[1]:
                return then
            return (then[0], first[1])

        at = dict(self.solve(tuple(map(whole, row_tips))))
        for u in forced:
            k = tip[u]
            at[u] = at[k if k is True or k is False else k[0]]
        return at

    def values(self, moves: Iterable[tuple]) -> dict:
        """Win probability of every state, with the (state, successor) `moves`
        forced. Move sets whose collapsed systems agree share one solve."""
        tip = self.lay(moves)
        at = self.evaluate(tuple(map(tip.__getitem__, self.targets)))
        return dict(zip(self.states, map(at.__getitem__, self.ends(tip))))


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
            if x is not y and x != y:
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
        # (index, state, memory after) of each choice state a policy hops
        self.hops: list[tuple] = []
        for v, m in self.states:
            m2 = fixed.step(m, v)
            if g.owner(v) is not free_player:
                base[v, m] = tuple(((w, m2), p) for w, p in _successors(g, v, fixed, m))
                continue
            ws = g.successors[v]
            if len(ws) == 1:  # forced, as the fixed player's states are
                base[v, m] = (((ws[0], m2), _ONE),)
            else:
                self.hops.append((len(self.choice_states), (v, m), m2))
            self.choice_states.append((v, m))
        self.chain = _Chain(self.states, base, self.label)
        self.pools = [g.successors[v] for v, _ in self.choice_states]
        self.tip = self.chain.lay(())
        self.row_tips = tuple(map(self.tip.__getitem__, self.chain.targets))
        self.ends = self.chain.ends(self.tip)

    def values_of(self, choice: tuple[str, ...]) -> dict:
        hops = [(s, self.tip[choice[i], m2]) for i, s, m2 in self.hops]
        at = self.chain.evaluate(self.row_tips, hops)
        return dict(zip(self.states, map(at.__getitem__, self.ends)))

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
