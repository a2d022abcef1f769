"""Outside-in instrumentation of gcnsim.

gcnsim's modules call each other through names they import
(`from .model import ...`), so replacing such a module-level name wraps every
call made through it without touching the package. `Recorder` installs its
wrappers on entry and puts the original objects back on exit.

Two levels:

* Always on, a few calls per slot: a timer around each GEAR decision, the
  placement checks on every strategy outcome, the solver evidence read from
  each returned `Solution`, and capture of every simulated day's `RunResult`.
* With `trace=True`, in addition: calls and self time of each public
  function one layer calls in another, and spans at the
  run -> slot -> strategy -> build_instance/solve boundaries. The per-call
  wrappers on the world-evolution functions cost several percent of a day,
  which is why end-to-end figures come from untraced runs.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# Layer metric -> the (importing module, name) bindings that carry its calls.
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "scenario.step_mobility": (("engine", "step_mobility"),),
    "scenario.sample_utilization": (("engine", "sample_utilization"),),
    "scenario.enb_of": (("engine", "enb_of"),),
    "scenario.green_power": (("engine", "green_power"),),
    "scenario.init": (("engine", "init_topology"), ("engine", "init_ues"),
                      ("cli", "load_scenario_config"),
                      ("cli", "load_solar_trace"),
                      ("gcnsim", "load_solar_trace")),
    "model.assignment_loads": (("engine", "assignment_loads"),
                               ("strategy", "assignment_loads")),
    "model.pack_first_fit": (("engine", "pack_first_fit"),),
    "model.cloudlet_power": (("engine", "cloudlet_power_exact"),
                             ("engine", "cloudlet_power_approx"),
                             ("strategy", "cloudlet_power_approx")),
    "solver.build_instance": (("strategy", "build_instance"),),
    "solver.solve": (("strategy", "solve"),),
    "strategy.far_assign": (("engine", "far_assign"),),
    "strategy.far_assign.in_gear": (("strategy", "far_assign"),),
    "strategy.gear_assign": (("engine", "gear_assign"),),
    "engine.run": (("cli", "run"), ("gcnsim", "run")),
    "engine.compute_slot_metrics": (("engine", "compute_slot_metrics"),),
    "cli.main": (("cli", "main"),),
    "cli.emit": (("cli", "emit_csv"), ("cli", "_emit_slots_pair"),
                 ("cli", "_emit_summary")),
}

# Layer metrics whose calls also open a span.
SPANNED = {"engine.run": "run", "strategy.far_assign": "strategy",
           "strategy.gear_assign": "strategy",
           "solver.build_instance": "build_instance", "solver.solve": "solve"}

EVIDENCE_KEYS = ("solve_calls", "nodes", "nodes_max", "unproven", "improved",
                 "warm_prev", "warm_far")


def _module(short: str):
    return importlib.import_module("gcnsim" if short == "gcnsim"
                                   else f"gcnsim.{short}")


@dataclass
class DayRecord:
    """One simulated day as seen from outside: the strategy asked for, the
    `RunResult` returned (None if the run raised) and every problem found."""

    strategy: str
    result: object = None
    problems: list[str] = field(default_factory=list)


class Recorder:
    """Installs the wrappers for the duration of a `with` block."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self._saved: dict[tuple[str, str], object] = {}
        self._t0 = time.perf_counter()
        # The wrappers hold on to these containers, so reset() empties them
        # in place rather than replacing them.
        self.days: list[DayRecord] = []
        self.decide_ms: list[float] = []
        self.evidence: dict[str, int] = {}
        self.stats: dict[str, list] = {k: [0, 0.0] for k in TRACED}
        self._stack = [0.0]           # child-time accumulators, root first
        self._spans: list[tuple] = []
        self._open: list = [None]     # ids of open spans, root first
        self._next_id = 0             # spans accumulate across passes
        self.reset()

    # -- per-pass state ---------------------------------------------------
    def reset(self) -> None:
        """Start a new measurement pass with empty counters."""
        self.days.clear()
        self.decide_ms.clear()
        self.evidence.update(dict.fromkeys(EVIDENCE_KEYS, 0))
        for stat in self.stats.values():
            stat[:] = [0, 0.0]
        self._stack[:] = [0.0]
        self._open[:] = [None]
        self._day: DayRecord | None = None
        self._state = self._seed = self._sol = None
        self._slot_id = None
        self._slot_mark = 0.0
        self._slot_index = 0

    def spans(self) -> list[tuple]:
        """Spans as (id, parent id, name, start s, end s, attrs), in order of
        closing; times are relative to the recorder's creation."""
        return list(self._spans)

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "Recorder":
        if self.trace:
            for key, sites in TRACED.items():
                for site in sites:
                    self._patch(site, lambda fn, key=key: self._timed(key, fn))
        self._patch(("engine", "gear_assign"), self._gear_hook)
        self._patch(("engine", "far_assign"), self._far_hook)
        self._patch(("strategy", "solve"), self._solve_hook)
        self._patch(("cli", "run"), self._run_hook)
        self._patch(("gcnsim", "run"), self._run_hook)
        return self

    def __exit__(self, *exc) -> None:
        for (mod, name), original in self._saved.items():
            setattr(_module(mod), name, original)
        self._saved.clear()

    def _patch(self, site: tuple[str, str], make) -> None:
        mod = _module(site[0])
        current = getattr(mod, site[1], None)
        if current is None:   # the program no longer binds this name here
            return
        self._saved.setdefault(site, current)
        setattr(mod, site[1], make(current))

    # -- tracing wrappers -------------------------------------------------
    def _timed(self, key: str, fn):
        stat, stack, perf = self.stats[key], self._stack, time.perf_counter
        span = SPANNED.get(key)
        after = {"engine.compute_slot_metrics": self._slot_close,
                 "scenario.init": self._slot_start}.get(key)

        if span is None and after is None:   # the per-avatar hot path
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stat[0] += 1
                    stat[1] += dt - stack.pop()
                    stack[-1] += dt
            return wrapper

        def wrapper(*args, **kwargs):
            sid = self._span_open(span) if span else None
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stat[0] += 1
                stat[1] += t1 - t0 - stack.pop()
                stack[-1] += t1 - t0
                if span:
                    self._span_close(sid, span, t0, t1, args)
                else:
                    after(t1)
        return wrapper

    def _slot_start(self, t: float) -> None:
        self._slot_mark = t

    def _span_open(self, name: str) -> int:
        if name == "run":
            self._slot_index = 0
        elif name == "strategy" and self._slot_id is None:
            self._next_id += 1
            self._slot_id = self._next_id
        self._next_id += 1
        self._open.append(self._next_id)
        return self._next_id

    def _span_close(self, sid: int, name: str, t0: float, t1: float,
                    args) -> None:
        self._open.pop()
        parent, attrs = self._open[-1], {}
        if name == "run":
            attrs = {"strategy": args[1] if len(args) > 1 else None}
            self._slot_id = None
        elif name == "strategy":
            parent, attrs = self._slot_id, {"slot": self._slot_index}
        self._spans.append((sid, parent, name, t0 - self._t0, t1 - self._t0,
                            attrs))

    def _slot_close(self, t1: float) -> None:
        if self._slot_id is not None:
            self._spans.append((self._slot_id, self._open[-1], "slot",
                                self._slot_mark - self._t0, t1 - self._t0,
                                {"slot": self._slot_index}))
        self._slot_id = None
        self._slot_mark = t1
        self._slot_index += 1

    # -- always-on hooks --------------------------------------------------
    def _run_hook(self, run):
        from gcnsim.solver import Infeasible

        def wrapper(config, strategy, *args, **kwargs):
            day = DayRecord(strategy)
            self.days.append(day)
            self._day = day
            try:
                day.result = run(config, strategy, *args, **kwargs)
            except Infeasible as exc:
                day.problems.append(f"{strategy} raised Infeasible: {exc}")
                raise
            finally:
                self._day = None
            return day.result
        return wrapper

    def _check_outcome(self, state, outcome, strategy: str) -> None:
        placement = outcome.assignment.placement
        problem = None
        if placement.keys() != {a.avatar_id for a in state.loads}:
            problem = "not every avatar is placed exactly once"
        else:
            cap = state.power.server_capacity
            for i, n in enumerate(outcome.assignment.counts(len(state.specs))):
                if n > state.specs[i].server_count * cap:
                    problem = f"cloudlet {i} over capacity"
        if problem and self._day is not None:
            self._day.problems.append(f"{strategy} slot: {problem}")

    def _far_hook(self, far_assign):
        def wrapper(state):
            outcome = far_assign(state)
            self._check_outcome(state, outcome, "far")
            return outcome
        return wrapper

    def _gear_hook(self, gear_assign):
        perf = time.perf_counter

        def wrapper(state, *args, **kwargs):
            self._state, self._sol = state, None
            t0 = perf()
            outcome = gear_assign(state, *args, **kwargs)
            self.decide_ms.append((perf() - t0) * 1000.0)
            self._check_outcome(state, outcome, "gear")
            sol, seed = self._sol, self._seed
            if sol is not None and seed is not None:
                chosen = outcome.assignment.placement
                if chosen == sol.assignment.placement != seed.placement:
                    self.evidence["improved"] += 1
            self._state = None
            return outcome
        return wrapper

    def _solve_hook(self, solve):
        def wrapper(inst, config=None):
            sol = solve(inst, config)
            ev = self.evidence
            ev["solve_calls"] += 1
            ev["nodes"] += sol.nodes_explored
            ev["nodes_max"] = max(ev["nodes_max"], sol.nodes_explored)
            ev["unproven"] += not sol.proven_optimal
            seed = config.seed_assignment if config is not None else None
            if self._state is not None and seed is not None:
                if seed is self._state.prev_assignment:
                    ev["warm_prev"] += 1
                else:
                    ev["warm_far"] += 1
            self._sol, self._seed = sol, seed
            return sol
        return wrapper
