"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` wraps every public function of the working modules
of `stochparity` and rebinds every module-level name bound to it: the
defining module's global and each `from ... import` copy, so calls made
inside the package go through the wrapper too. Spans (name, job,
start, end, parent) stay in memory; `summary()` turns them into
per-layer metrics at the end. `uninstall()` restores the originals.

A span's self time is its duration minus the time its child spans
cover. Work counts are taken from the arguments or the result at the
same boundary; the time spent taking them is charged to no layer.
Counts of work done inside a function are taken one level down: the
strategy pairs `solve_game` evaluates are its `chain_win_probability`
calls, and the policies `mdp_table` evaluates are calls of
`chains._ProductMdp.values_of` made inside it (0 once that method is gone).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "game", "mealy", "values", "chains", "linalg", "resets", "simulate")


def _strategy_key(s):
    return (
        s.player,
        s.memory_states,
        s.initial,
        tuple(sorted(s.update.items())),
        tuple(sorted(s.action.items())),
    )


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, job, start, end, parent, overhead)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_n = 0
        self.job = 0
        self._stack: list[tuple[int, str]] = []  # (span index, name)
        self._seen: dict[str, set] = defaultdict(set)
        self._distinct: dict[str, int] = defaultdict(int)
        self._originals: dict[int, object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"stochparity.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
                    self._originals[id(fn)] = fn
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "stochparity" or modname.startswith("stochparity.")):
                continue
            for name, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and self._originals[id(value)] is value:
                    setattr(mod, name, w)
                    self._rebound.append((mod, name, value))
        mdp = getattr(sys.modules["stochparity.chains"], "_ProductMdp", None)
        if mdp is not None and hasattr(mdp, "values_of"):
            original = mdp.values_of
            setattr(mdp, "values_of", self._count_policies(original))
            self._rebound.append((mdp, "values_of", original))

    def uninstall(self) -> None:
        for mod, name, value in self._rebound:
            setattr(mod, name, value)
        self._rebound.clear()

    def start_job(self, job: int) -> None:
        self.job = job
        self._seen.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            counts = self.counts

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        measure = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent, parent_name = stack[-1] if stack else (-1, None)
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, self.job, start, end, parent, 0.0)
            counts[name + ".calls"] += 1
            if measure is not None:
                measure(args, result, parent_name)
                spans[index] = (name, self.job, start, end, parent, clock() - end)
            return result

        return wrapper

    def _count_policies(self, values_of):
        stack, counts = self._stack, self.counts

        @functools.wraps(values_of)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == "chains.mdp_table":
                counts["chains.mdp_table.policies"] += 1
            return values_of(*args, **kwargs)

        return wrapper

    def _distinct_input(self, name: str, key) -> None:
        seen = self._seen[name]
        if key not in seen:
            seen.add(key)
            self._distinct[name] += 1

    # work counts at the boundaries the metrics name; signatures as in src/

    def _count_linalg_solve_linear(self, args, result, parent):
        matrix = args[0]
        n = len(matrix)
        self.counts["linalg.solve_linear.unknowns"] += n
        self.counts["linalg.solve_linear.nnz"] += sum(1 for row in matrix for x in row if x)
        self.max_n = max(self.max_n, n)

    def _count_chains_product_chain(self, args, result, parent):
        self.counts["chains.product_chain.states"] += len(result.states)

    def _count_chains_chain_win_probability(self, args, result, parent):
        if parent == "values.solve_game":
            self.counts["values.solve_game.pairs"] += 1

    def _count_values_solve_game(self, args, result, parent):
        # GameGraph is a frozen dataclass of tuples, so it hashes by content
        self._distinct_input("values.solve_game", args[0])

    def _count_resets_quality_table(self, args, result, parent):
        self._distinct_input(
            "resets.quality_table", (args[0], _strategy_key(args[1]))
        )

    def _count_simulate_estimate_value(self, args, result, parent):
        self.counts["simulate.plays"] += result.n
        self.counts["simulate.truncated"] += result.truncated

    _count_simulate_simulate_deviations = _count_simulate_estimate_value

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Totals over all recorded spans: counts, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, job, start, end, parent, overhead in self.spans:
            if parent >= 0:
                child[parent] += end - start + overhead
        out: dict[str, float] = defaultdict(float)
        for i, (name, job, start, end, parent, overhead) in enumerate(self.spans):
            out[name + ".s"] += end - start
            self_s = end - start - child[i]
            out[name + ".self_s"] += self_s
            out[name.split(".", 1)[0] + ".self_s"] += self_s
        out.update(self.counts)
        for name in ("values.solve_game", "resets.quality_table"):
            calls = self.counts.get(name + ".calls", 0)
            out[name + ".distinct_ratio"] = self._distinct.get(name, 0) / calls if calls else 0.0
        out["linalg.solve_linear.max_n"] = self.max_n
        return dict(out)
