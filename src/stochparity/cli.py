"""Command line front end.

Commands map one-to-one onto the library: solve, check, prune, verify,
quality, lower-value, deviation-prob, reset, simulate, gen. Machine
output goes to stdout, diagnostics to stderr. Exit codes: 0 pass,
1 check failure, 2 input error, 3 cap exceeded, 4 precondition
violated (inconsistent game or infinite threshold). Every command is
deterministic given identical files, flags, and seeds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .chains import product_chain
from .errors import (
    CapExceededError,
    DeterminacyError,
    GameFormatError,
    InconsistentGameError,
    InvalidThresholdError,
    SimulationError,
    StochparityError,
    StrategyError,
)
from .game import (
    GameGraph,
    Owner,
    format_rational,
    parse_game,
    parse_rational,
    random_game,
    serialize_game,
)
from .mealy import (
    MealyStrategy,
    enumerate_memoryless,
    parse_strategy,
    serialize_strategy,
    stubborn_strategy,
    validate_strategy,
)
from .resets import (
    QualityTable,
    deviation_bound,
    deviation_probabilities,
    deviation_probability,
    lower_value,
    optimality_gap,
    quality_table,
    reset_transform,
    upper_value,
)
from .simulate import estimate_value, simulate_deviations, _stderr
from .values import (
    Solution,
    check_value_equations,
    is_consistent,
    min_positive_value,
    parse_solution,
    prune_superfluous,
    serialize_solution,
    solve_game,
)

# verify's lines after pruning, and those that rest on the martingale
_PRUNED_LINES = ("prune-preserves-values", "pruned-consistent", "one-step-martingale")
_REPAIR_LINES = ("deviation-bound", "reset-optimality", "resets-settle")

# exit status of each error class main reports; any other error exits 2
_EXIT_STATUS = {
    CapExceededError: 3,
    InconsistentGameError: 4,
    InvalidThresholdError: 4,
    DeterminacyError: 1,
    SimulationError: 1,
}


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _load_game(path: str) -> GameGraph:
    return parse_game(_read(path))


def _load_strategy(path: str, g: GameGraph, player: Owner) -> MealyStrategy:
    s = parse_strategy(_read(path))
    if s.player is not player:
        raise StrategyError(f"{path}: expected a {player.value} strategy")
    bad = validate_strategy(g, s)
    if bad:
        raise StrategyError(f"{path}: " + "; ".join(bad))
    return s


def _fmt(x: Fraction, decimal: bool) -> str:
    return f"{format_rational(x)} ({float(x):g})" if decimal else format_rational(x)


def cmd_solve(args) -> int:
    g = _load_game(args.game)
    sol = solve_game(g, cap=args.cap)
    # written before any line is printed, so a failed write prints nothing
    if args.out:
        _write(args.out, serialize_solution(sol))
    for v in g.vertex_ids:
        print(f"{v}={_fmt(sol.values[v], args.decimal)}")
    print(f"consistent={'true' if sol.consistent else 'false'}")
    print(f"m={'inf' if sol.m == math.inf else format_rational(sol.m)}")
    return 0


def cmd_check(args) -> int:
    g = _load_game(args.game)
    sol = parse_solution(_read(args.solution))
    failures = []

    violations = check_value_equations(g, sol.values)
    _report("value-equations", not violations, "; ".join(violations), failures)

    # the flag and m read the game's own vertices alone, so a value for an
    # unknown vertex counts against value-equations only
    own = {v: sol.values[v] for v in g.vertex_ids if v in sol.values}
    if len(own) == len(g.vertex_ids):
        consistent, m = is_consistent(g, own), min_positive_value(own)
        flag_detail = f"file says {sol.consistent}, values give {consistent}"
        m_detail = f"file says {sol.m}, values give {m}"
    else:
        consistent = m = None
        flag_detail = m_detail = "cannot be checked: a vertex has no value"
    _report("consistent-flag", consistent == sol.consistent, flag_detail, failures)
    _report("m-field", sol.m == m, m_detail, failures)

    bad = [f"{k} is a {getattr(sol, k).player.value} strategy, not {p.value}"
           for k, p in (("sigma_star", Owner.MAX), ("tau_star", Owner.MIN))
           if getattr(sol, k).player is not p]
    bad += validate_strategy(g, sol.sigma_star) + validate_strategy(g, sol.tau_star)
    _report("witness-strategies", not bad, "; ".join(bad), failures)
    return 1 if failures else 0


def cmd_prune(args) -> int:
    g = _load_game(args.game)
    sol = solve_game(g, cap=args.cap)
    pruned = prune_superfluous(g, sol.values)
    removed = sorted(set(g.edges) - set(pruned.edges), key=lambda e: (e.src, e.dst))
    text = serialize_game(pruned)
    if args.out:
        _write(args.out, text)
        for e in removed:
            print(f"removed {e.src}->{e.dst}")
        print(f"kept {len(pruned.edges)} of {len(g.edges)} edges")
    else:
        for e in removed:
            print(f"removed {e.src}->{e.dst}", file=sys.stderr)
        sys.stdout.write(text)
    return 0


def _report(name: str, ok: bool, detail: str, failures: list) -> None:
    if ok:
        print(f"PASS {name}")
    else:
        print(f"FAIL {name}: {detail}")
        failures.append(name)


def _verify_candidates(
    g: GameGraph, pruned: GameGraph, sol: Solution, star_quality: QualityTable, cap: int
) -> list[tuple[MealyStrategy, QualityTable, Fraction]]:
    """sigma_star plus up to 8 stubborn one-edge deviations that stay (m/4)-optimal.

    Each candidate comes with its quality table on the pruned game, built
    once (sigma_star's is `star_quality`) and reused by every later check,
    and its optimality gap.
    """

    def with_gap(sigma, q):
        return sigma, q, optimality_gap(pruned, sigma, sol.values, quality=q)

    star = sol.sigma_star
    moves = {v: star.move(star.initial, v) for v in g.owned_by(Owner.MAX)}
    stubborn = (
        stubborn_strategy(g, moves, {**moves, pivot: alt}, pivot, k)
        for pivot in g.owned_by(Owner.MAX)
        for alt in g.successors[pivot]
        if alt != moves[pivot]
        for k in (2, 3)
    )
    tabled = (with_gap(s, quality_table(pruned, s, cap)) for s in stubborn)
    fit = ((s, q, gap) for s, q, gap in tabled if gap <= sol.m / 4)
    return [with_gap(star, star_quality), *itertools.islice(fit, 8)]


def _uncertified(
    pruned: GameGraph, sol: Solution, star_quality: QualityTable, cap: int
) -> str:
    # witnesses that fit the pruned game certify its values from both sides,
    # lower(sigma*) <= val <= upper(tau*); pruning only removes strategies,
    # so solve_game's check of g's pairs bounds both tables; "" if they do
    for name, s in (("sigma_star", sol.sigma_star), ("tau_star", sol.tau_star)):
        for line in validate_strategy(pruned, s):
            return f"{name}: {line}"
    lower = {v: star_quality[v, sol.sigma_star.initial] for v in pruned.vertex_ids}
    upper = upper_value(pruned, sol.tau_star, cap)
    sides = ("sigma_star", "guarantees", lower), ("tau_star", "concedes", upper)
    for name, verb, got in sides:
        for v in pruned.vertex_ids:
            if got[v] != sol.values[v]:
                val, want = format_rational(got[v]), format_rational(sol.values[v])
                return f"{name} from {v}: {verb} {val}, value is {want}"
    return ""


def cmd_verify(args) -> int:
    g = _load_game(args.game)
    failures: list = []

    sol = solve_game(g, cap=args.cap)
    _report(
        "value-equations",
        not check_value_equations(g, sol.values),
        "solver values break the local equations",
        failures,
    )
    _report(
        "determinacy",
        sol.lower_enum == sol.upper_enum,
        "lower and upper enumerations disagree",
        failures,
    )

    # pruning needs values that solve the equations
    if "value-equations" in failures:
        for name in _PRUNED_LINES:
            _report(name, False, "not run: value-equations failed", failures)
    else:
        pruned = prune_superfluous(g, sol.values)
        star_quality = quality_table(pruned, sol.sigma_star, args.cap)
        detail = _uncertified(pruned, sol, star_quality, args.cap)
        _report("prune-preserves-values", not detail, detail, failures)
        # every controlled edge keeping the value and every Random row
        # averaging it is exactly a one-step martingale under every pair
        consistent = is_consistent(pruned, sol.values)
        _report(
            "pruned-consistent",
            consistent,
            "pruned game still has value-changing controlled edges",
            failures,
        )
        violations = check_value_equations(pruned, sol.values)
        _report(
            "one-step-martingale",
            consistent and not violations,
            "; ".join(violations) or "a controlled edge changes the value",
            failures,
        )

    # the deviation bound and the reset repair rest on the martingale
    if "one-step-martingale" in failures:
        for name in _REPAIR_LINES:
            _report(name, False, "not run: one-step-martingale failed", failures)
        return 1
    if sol.m == math.inf:
        for name in _REPAIR_LINES:
            print(f"PASS {name} (vacuous: all values zero)")
        return 1 if failures else 0

    candidates = _verify_candidates(g, pruned, sol, star_quality, args.cap)
    taus = list(enumerate_memoryless(pruned, Owner.MIN))

    detail = ""
    bounds = [(sigma, q, deviation_bound(gap, sol.m)) for sigma, q, gap in candidates]
    for (sigma, q, bound), tau in itertools.product(bounds, taus):
        ps = deviation_probabilities(
            pruned, sigma, tau, sol.values, sol.m, pruned.vertex_ids, quality=q
        )
        over = next((v for v in pruned.vertex_ids if ps[v] > bound), None)
        if over is not None:
            detail = f"from {over}: deviation probability {ps[over]} exceeds {bound}"
            break
    _report("deviation-bound", not detail, detail, failures)

    detail = unsettled = ""
    for sigma, q, _ in candidates:
        try:
            rs = reset_transform(pruned, sigma, sol.values, sol.m, quality=q)
        except StrategyError:
            # the base strategy plays a pruned edge from a pair that does
            # not reset; such machines are outside the transform's domain
            continue
        # with no reset pairs the compiled machine is the base machine,
        # and no state of its chains can reset
        lo = lower_value(
            pruned, rs.strategy, args.cap, quality=None if rs.reset_pairs else q
        )
        off = next((v for v in pruned.vertex_ids if lo[v] != sol.values[v]), None)
        if off is not None and not detail:  # name the first failing candidate
            detail = (
                f"from {off}: reset strategy guarantees {format_rational(lo[off])}, "
                f"value is {format_rational(sol.values[off])}"
            )
        if rs.reset_pairs and any(
            s[:2] in rs.reset_pairs
            for tau in taus
            for c in product_chain(pruned, rs.strategy, tau, pruned.vertex_ids).bsccs()
            for s in c
        ):
            unsettled = "a recurrent class still triggers resets"
    _report("reset-optimality", not detail, detail, failures)
    _report("resets-settle", not unsettled, unsettled, failures)
    return 1 if failures else 0


def cmd_quality(args) -> int:
    g = _load_game(args.game)
    sigma = _load_strategy(args.strategy, g, Owner.MAX)
    table = quality_table(g, sigma, cap=args.cap)
    for (v, mem) in sorted(table):
        print(f"{v},{mem}={_fmt(table[(v, mem)], args.decimal)}")
    return 0


def cmd_lower_value(args) -> int:
    g = _load_game(args.game)
    sigma = _load_strategy(args.strategy, g, Owner.MAX)
    lo = lower_value(g, sigma, cap=args.cap)
    for v in g.vertex_ids:
        print(f"{v}={_fmt(lo[v], args.decimal)}")
    return 0


def cmd_deviation_prob(args) -> int:
    g = _load_game(args.game)
    sigma = _load_strategy(args.strategy, g, Owner.MAX)
    tau = _load_strategy(args.tau, g, Owner.MIN)
    sol = solve_game(g, cap=args.cap)
    q = quality_table(g, sigma, args.cap)
    eps = optimality_gap(g, sigma, sol.values, quality=q)
    p = deviation_probability(g, sigma, tau, sol.values, sol.m, args.start, quality=q)
    bound = deviation_bound(eps, sol.m)
    print(f"epsilon={_fmt(eps, args.decimal)}")
    print(f"m={format_rational(sol.m)}")
    print(f"bound={_fmt(bound, args.decimal)}")
    print(f"deviation-prob={_fmt(p, args.decimal)}")
    return 0


def cmd_reset(args) -> int:
    g = _load_game(args.game)
    sigma = _load_strategy(args.strategy, g, Owner.MAX)
    sol = solve_game(g, cap=args.cap)
    if sol.m == math.inf:
        raise InvalidThresholdError("m = inf: every value is zero, nothing to repair")
    pruned = prune_superfluous(g, sol.values)
    rs = reset_transform(pruned, sigma, sol.values, sol.m, args.cap)
    # the transform's table is sigma's on g too when pruning removed nothing,
    # and with no reset pairs the compiled machine is sigma itself
    before = lower_value(
        g, sigma, args.cap, quality=rs.quality if pruned == g else None
    )
    after = lower_value(g, rs.strategy, args.cap) if rs.reset_pairs else before
    # written before any line is printed, so a failed write prints nothing
    if args.out:
        _write(args.out, serialize_strategy(rs.strategy))
    for v in g.vertex_ids:
        print(
            f"{v}={_fmt(before[v], args.decimal)} -> {_fmt(after[v], args.decimal)}"
            f" value={_fmt(sol.values[v], args.decimal)}"
        )
    pairs = " ".join(f"{v},{mem}" for v, mem in sorted(rs.reset_pairs))
    print(f"reset-pairs={pairs or 'none'}")
    return 0


def cmd_simulate(args) -> int:
    g = _load_game(args.game)
    sigma = _load_strategy(args.strategy, g, Owner.MAX)
    tau = _load_strategy(args.tau, g, Owner.MIN)
    if args.deviations:
        sol = solve_game(g, cap=args.cap)
        stats = simulate_deviations(
            g,
            sigma,
            tau,
            sol.values,
            sol.m,
            args.start,
            args.samples,
            args.seed,
            horizon=args.horizon,
            workers=args.workers,
            cap=args.cap,
        )
        estimate, stderr = stats.empirical_p, _stderr(stats.empirical_p, stats.n)
        truncated = stats.truncated
        histogram = {str(k): v for k, v in stats.histogram.items()}
    else:
        res = estimate_value(
            g,
            sigma,
            tau,
            args.start,
            args.samples,
            args.seed,
            horizon=args.horizon,
            workers=args.workers,
        )
        estimate, stderr, truncated = res.estimate, res.stderr, res.truncated
        histogram = {}
    out = {
        "estimate": format_rational(estimate),
        "stderr": format_rational(stderr),
        "n": args.samples,
        "truncated_count": truncated,
        "histogram": histogram,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_gen(args) -> int:
    # checked here, not by argparse, so a bad value is reported as
    # `error: ...` with exit 2, like a bad input file
    frac = parse_rational(args.random_fraction, "--random-fraction")
    if not 0 <= frac <= 1:
        raise GameFormatError(f"--random-fraction: {frac} is outside [0, 1]")
    g = random_game(
        args.seed,
        args.vertices,
        args.max_priority,
        args.max_out_degree,
        frac,
    )
    text = serialize_game(g)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_FLAG = {"action": "store_true"}
_INT = {"type": int}
_POSITIVE = {"type": _at_least(1)}
_GAME_SIGMA = {"game": {}, "strategy": {}}
_GAME_SIGMA_TAU = {**_GAME_SIGMA, "tau": {}, "--start": {"required": True}}

# command -> (handler, help, arguments after --cap: name -> add_argument keywords)
_COMMANDS = {
    "solve": (cmd_solve, "compute exact values and optimal strategies", {
        "game": {},
        "--out": {"help": "write a solution file here"},
        "--decimal": {**_FLAG, "help": "append decimal renderings"},
    }),
    "check": (cmd_check, "re-run the value equations on a solution file",
              {"game": {}, "solution": {}}),
    "prune": (cmd_prune, "remove value-losing controlled edges",
              {"game": {}, "--out": {"help": "write the pruned game here"}}),
    "verify": (cmd_verify, "run the full invariant suite on a game", {"game": {}}),
    "quality": (cmd_quality, "per (vertex, memory) guarantee of a strategy",
                {**_GAME_SIGMA, "--decimal": _FLAG}),
    "lower-value": (cmd_lower_value, "per-vertex guarantee of a Max strategy",
                    {**_GAME_SIGMA, "--decimal": _FLAG}),
    "deviation-prob": (
        cmd_deviation_prob,
        "exact probability that best play pushes a strategy off its guarantee",
        {**_GAME_SIGMA_TAU, "--decimal": _FLAG},
    ),
    "reset": (cmd_reset, "repair a near-optimal strategy by memory resets", {
        **_GAME_SIGMA,
        "--out": {"help": "write the repaired strategy here"},
        "--decimal": _FLAG,
    }),
    "simulate": (cmd_simulate, "Monte Carlo estimates from sampled plays", {
        **_GAME_SIGMA_TAU,
        "--samples": {**_POSITIVE, "default": 10_000},
        "--seed": {**_INT, "default": 0},
        "--horizon": {**_POSITIVE, "default": 10_000},
        "--workers": {**_POSITIVE, "default": 1},
        "--deviations": {
            **_FLAG,
            "help": "report deviation frequency and first-deviation histogram instead",
        },
    }),
    "gen": (cmd_gen, "generate a pseudorandom game", {
        "--seed": {**_INT, "required": True},
        "--vertices": {**_POSITIVE, "default": 5},
        "--max-priority": {"type": _at_least(0), "default": 2},
        "--max-out-degree": {**_POSITIVE, "default": 2},
        "--random-fraction": {"default": "1/3"},
        "--out": {"help": "write the game here"},
    }),
}


@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for every command, or for `command` alone, cached per command.

    `main` looks the handler up in `_COMMANDS` on each call, and reads a
    command's arguments with its own parser, kept in `command_parsers`. The
    one-command parser lists every command in its metavar, so the top-level
    usage line in its errors reads as the full parser's.
    """
    top = argparse.ArgumentParser(
        prog="stochparity",
        description="Exact analysis of finite stochastic parity games.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # on the full parser a metavar would rename "argument command" in its errors
    meta = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = top.add_subparsers(dest="command", required=True, **meta)
    top.command_parsers = {}
    for name in _COMMANDS if command is None else [command]:
        _, help_, arguments = _COMMANDS[name]
        p = top.command_parsers[name] = sub.add_parser(name, help=help_)
        p.add_argument("--cap", **_POSITIVE, default=2**20, help="enumeration cap")
        for arg, kw in arguments.items():
            p.add_argument(arg, **kw)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    top = _build_parser(command)
    if command is None:
        args = top.parse_args(argv)
    else:  # the rest of argv, read as the full parser's subparser action reads it
        args, extras = top.command_parsers[command].parse_known_args(argv[1:])
        if extras:
            top.error("unrecognized arguments: " + " ".join(extras))
        args.command = command
    try:
        return _COMMANDS[args.command][0](args)
    except (StochparityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_STATUS.get(type(exc), 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
