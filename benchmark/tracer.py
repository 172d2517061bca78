"""Per-layer call tracing from outside the program.

`Tracer.install` wraps the public functions of each dgmem module at every
binding a caller can reach them through: a class attribute for methods, and
for module-level functions every loaded dgmem module that holds the same
function object (``learner.ppo_update`` is also ``baselines.ppo_update``).
Each wrapper records calls, rows (batch size, where the function has one) and
time. Self time is a call's duration minus the time spent in traced calls it
made. Aggregates stay in memory: `table` returns them per function, and
`caller_table` counts calls per (caller, callee) pair, which is the span tree
in aggregate.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


def _nrows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass
class Target:
    """One traced function: metric name, owner object and attribute."""
    name: str
    owner_path: str  # "module" or "module.Class"
    attr: str
    rows: Optional[Callable] = None  # (args, kwargs) -> rows of the call
    on_result: Optional[Callable] = None  # (tracer, args, result) -> None


def _count_admitted(tracer, args, result) -> None:
    if result is not None:
        tracer.counters["graph.admitted"] += 1


def _count_episode(tracer, args, result) -> None:
    tracer.counters["navigator.steps"] += result.steps
    tracer.counters["navigator.replans"] += result.replans


def _count_drift(tracer, args, result) -> None:
    tracer.counters["navigator.drift_hits"] += result is not None


TARGETS: Tuple[Target, ...] = (
    # nn
    Target("nn.ActorCritic.forward", "nn.ActorCritic", "forward",
           rows=lambda a, k: _nrows(_arg(a, k, 1, "x"))),
    Target("nn.ActorCritic.backward", "nn.ActorCritic", "backward",
           rows=lambda a, k: _nrows(_arg(a, k, 1, "cache")["x"])),
    Target("nn.ActorCritic.act", "nn.ActorCritic", "act",
           rows=lambda a, k: 1),
    Target("nn.Adam.step", "nn.Adam", "step"),
    Target("nn.MLP.forward", "nn.MLP", "forward"),
    Target("nn.MLP.backward", "nn.MLP", "backward"),
    # learner
    Target("learner.training_loop", "learner", "training_loop"),
    Target("learner.ppo_update", "learner", "ppo_update",
           rows=lambda a, k: len(_arg(a, k, 3, "actions"))),
    Target("learner.il_update", "learner", "il_update",
           rows=lambda a, k: len(_arg(a, k, 2, "actions"))),
    Target("learner.build_il_batch", "learner", "build_il_batch"),
    Target("learner.compute_advantages", "learner", "compute_advantages"),
    # graph: writes
    Target("graph.GraphMemory.localize", "graph.GraphMemory", "localize"),
    Target("graph.GraphMemory.try_add_node", "graph.GraphMemory",
           "try_add_node", on_result=_count_admitted),
    Target("graph.GraphMemory.record_transition", "graph.GraphMemory",
           "record_transition"),
    Target("graph.GraphMemory.distances_from", "graph.GraphMemory",
           "distances_from"),
    Target("graph.GraphMemory.sample_goal", "graph.GraphMemory",
           "sample_goal"),
    Target("graph.GraphMemory.prune_edges", "graph.GraphMemory",
           "prune_edges"),
    # graph: reads
    Target("graph.GraphMemory.similarity", "graph.GraphMemory", "similarity"),
    Target("graph.GraphMemory.weighted_path", "graph.GraphMemory",
           "weighted_path"),
    # navigator and the evaluation loop that drives it
    Target("cli.run_eval", "cli", "run_eval"),
    Target("navigator.execute", "navigator", "execute",
           on_result=_count_episode),
    Target("navigator._drift_correction", "navigator", "_drift_correction",
           on_result=_count_drift),
    Target("navigator._select_action", "navigator", "_select_action"),
    Target("navigator._advance_cursor", "navigator", "_advance_cursor"),
    Target("navigator.localize_goal", "navigator", "localize_goal"),
    # gridworld
    Target("gridworld.GridEnv.step", "gridworld.GridEnv", "step"),
    Target("gridworld.GridMap.patch", "gridworld.GridMap", "patch"),
    # encoder, reward
    Target("encoder.PatchEncoder.encode", "encoder.PatchEncoder", "encode"),
    Target("encoder.semantic_score", "encoder", "semantic_score"),
    Target("reward.topo_progress_reward", "reward", "topo_progress_reward"),
    Target("reward.novelty_reward", "reward", "novelty_reward"),
    Target("reward.success_reward", "reward", "success_reward"),
    # metrics
    Target("metrics.grid_shortest_length", "metrics", "grid_shortest_length"),
    # baselines
    Target("baselines.explore_random", "baselines", "explore_random"),
    Target("baselines.explore_straight", "baselines", "explore_straight"),
    Target("baselines.explore_intrinsic", "baselines", "explore_intrinsic"),
    Target("baselines.RNDModel.intrinsic_reward", "baselines.RNDModel",
           "intrinsic_reward"),
    Target("baselines.ForwardDynamicsModel.intrinsic_reward",
           "baselines.ForwardDynamicsModel", "intrinsic_reward"),
)

COUNTERS = ("graph.admitted", "navigator.steps", "navigator.replans",
            "navigator.drift_hits")


class Stat:
    __slots__ = ("calls", "rows", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps the functions in TARGETS while installed; see module docstring."""

    package = "dgmem"

    def __init__(self):
        self.stats: Dict[str, Stat] = {t.name: Stat() for t in TARGETS}
        self.callers: Dict[Tuple[str, str], int] = {}
        self.counters: Dict[str, int] = {c: 0 for c in COUNTERS}
        # one frame per active traced call: [name, time spent in children]
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _resolve(self, owner_path: str):
        module, _, cls = owner_path.partition(".")
        mod = sys.modules[f"{self.package}.{module}"]
        return getattr(mod, cls) if cls else mod

    def _bindings(self, target: Target) -> List[object]:
        owner = self._resolve(target.owner_path)
        if isinstance(owner, type):
            return [owner]
        fn = getattr(owner, target.attr)
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if (name == self.package or name.startswith(prefix))
                and getattr(mod, target.attr, None) is fn]

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            bindings = self._bindings(target)
            original = getattr(bindings[0], target.attr)
            wrapper = self._wrap(target, original)
            for owner in bindings:
                self._patches.append((owner, target.attr,
                                      owner.__dict__[target.attr]))
                setattr(owner, target.attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, fn):
        stat = self.stats[target.name]
        stack = self._stack
        callers = self.callers
        clock = time.perf_counter
        name = target.name
        rows = target.rows
        on_result = target.on_result
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                key = (parent, name)
                callers[key] = callers.get(key, 0) + 1
            if rows is not None:
                stat.rows += rows(args, kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def table(self) -> Dict[str, dict]:
        return {name: {"calls": s.calls, "rows": s.rows,
                       "total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.stats.items()}

    def caller_table(self) -> List[dict]:
        return [{"caller": c or None, "callee": f, "calls": n}
                for (c, f), n in sorted(self.callers.items())]


def wrapper_cost_s(n: int = 20000, repeats: int = 5) -> float:
    """Measured time one traced call adds to the call it wraps (median of
    `repeats` timings of `n` calls to a no-op, traced minus untraced)."""
    probe = Tracer()
    probe.stats["probe"] = Stat()

    def noop():
        return None

    traced = probe._wrap(Target("probe", "", ""), noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return sorted(costs)[len(costs) // 2]


def metric_specs() -> List[Tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    specs: List[Tuple[str, str]] = []
    for t in TARGETS:
        specs.append((f"{t.name}.calls", "count"))
        if t.rows is not None:
            specs.append((f"{t.name}.rows", "count"))
        specs.append((f"{t.name}.self_s", "s"))
    specs += [("graph.admitted", "count"), ("graph.nodes", "count"),
              ("graph.edges", "count"), ("navigator.steps", "count"),
              ("navigator.replans", "count"),
              ("navigator.drift_hit_ratio", "ratio"),
              ("trace.overhead_s", "s")]
    return specs
