"""Reach map: the package lines that no user path runs.

Runs the benchmark's user paths under `sys.settrace`: the CLI's `run
--strategy both` at 1000 UEs, `sweep-kappa` at 600 UEs and `sweep-ues` at
24 slots, the three seed-1 `tight-sla` worlds (300 UEs, a 7 ms SLA, FAR
then GEAR on each) and one 45-UE GEAR day. Then it prints, for each
module of the package, the executable lines that none of them reached,
as line ranges per function; the package is imported under the trace, so
module and class bodies count too. A line is executable when its module's
compiled code holds an instruction on it. The output depends only on the
code and the interpreter's version. Standard library only, and not a
gate: it shows what the tests alone must cover.

    python tests/reach_map.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gcnsim"


def executable_lines(code: CodeType, name: str = "<module>",
                     out: dict[str, set[int]] | None = None
                     ) -> dict[str, set[int]]:
    """Each function's executable lines, keyed by its dotted name within
    the module; comprehensions, generator expressions and lambdas count
    as lines of the function that holds them."""
    out = {} if out is None else out
    lines = out.setdefault(name, set())
    lines.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            inner = const.co_name
            if inner.startswith("<"):  # a comprehension or a lambda
                inner = name
            elif name != "<module>":
                inner = f"{name}.{inner}"
            executable_lines(const, inner, out)
    return out


def ranges(unreached: list[int], executable: list[int]) -> str:
    """Ascending unreached lines as comma-separated runs, `a-b` for a run
    with no reached executable line inside it."""
    index = {line: k for k, line in enumerate(executable)}
    runs: list[list[int]] = []
    for line in unreached:
        if runs and index[line] == index[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace_user_paths(reached: dict[str, set[int]]) -> None:
    """Run every user path with `sys.settrace` recording each package
    line it reaches into `reached`, keyed by file path."""
    # Each frame of a package file gets a local tracer that records its
    # lines; every other frame runs untraced.
    local_tracers: dict[str, object] = {}

    def tracer_for(lines: set[int]):
        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        local = local_tracers.get(filename, False)
        if local is False:
            path = Path(filename).resolve()
            local = local_tracers[filename] = (
                tracer_for(reached.setdefault(str(path), set()))
                if path.parent == PACKAGE else None)
        if local is not None:
            local(frame, event, arg)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        from gcnsim import DelayParams, ScenarioConfig, SolverConfig, run
        from gcnsim.cli import bundled_trace_path, emit_csv, main
        from gcnsim.scenario import load_solar_trace

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)

            def cli(command: list[str], config: str) -> None:
                cfg = out / "scenario.cfg"
                cfg.write_text(config, encoding="utf-8")
                code = main([*command, "--config", str(cfg),
                             "--out", str(out / "out")])
                assert code == 0, (command, config, code)

            cli(["run", "--strategy", "both"], "ue_count = 1000\n")
            cli(["sweep-kappa"], "ue_count = 600\n")
            cli(["sweep-ues"], "slot_count = 24\n")
            trace = load_solar_trace(bundled_trace_path())
            tight = DelayParams(sla_max_delay=7.0)
            for seed in (1, 1001, 2001):
                config = ScenarioConfig(ue_count=300, rng_seed=seed)
                for strategy in ("far", "gear"):
                    emit_csv(run(config, strategy, trace,
                                 SolverConfig(node_limit=100_000),
                                 delay=tight),
                             str(out / "slots.csv"))
            run(ScenarioConfig(ue_count=45), "gear", trace)
    finally:
        sys.settrace(None)


def main() -> None:
    reached: dict[str, set[int]] = {}
    trace_user_paths(reached)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        functions = executable_lines(code)
        hit = reached.get(str(path), set())
        lines = set().union(*functions.values())
        unreached = {name: sorted(body - hit)
                     for name, body in functions.items() if body - hit}
        count = len(lines - hit)
        total, missed = total + len(lines), missed + count
        print(f"{path.name}: {count} of {len(lines)} executable lines "
              "unreached")
        for name, body in sorted(unreached.items(),
                                 key=lambda item: (item[1][0], item[0])):
            print(f"  {name}: {ranges(body, sorted(functions[name]))}")
    print(f"total: {missed} of {total} executable lines unreached")


if __name__ == "__main__":
    main()
