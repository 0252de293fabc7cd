"""Self-checks of the benchmark itself, at tiny sizes (about a minute).

Usage, from the root of a checkout::

    python3 e2ebench/selfcheck.py

1. Smoke: every workload runs untraced and traced at a tiny size, passes
   its output checks, and reports every metric as a finite number.
2. Wrappers leave no mark: per workload, one pass before the layer
   wrappers are installed, one with them, one after they are removed
   give bit-identical results, and every patched attribute is the
   original object again afterwards.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import math
import pathlib

from harness import pin_thread_pools


def _problems(result, names) -> list[str]:
    from run import outcome

    metrics, failures, extra = result
    _, failed = outcome(failures, extra["passes"])
    lost = failed - len(failures)
    return (
        failures
        + ([f"{lost} operations failed their check"] if lost else [])
        + [f"{m} missing or not finite" for m in names
           if not math.isfinite(metrics.get(m, math.nan))]
    )


def smoke(name: str, root: pathlib.Path) -> list[str]:
    from run import END_TO_END, PER_LAYER, make_workload, run_traced, run_untraced

    untraced = run_untraced(make_workload(name, 0, tiny=True), seconds=0)
    trace_path = root / ".bench_out" / f"selfcheck-{name}.json"
    traced = run_traced(make_workload(name, 0, tiny=True), 0, trace_path)
    return _problems(untraced, END_TO_END) + _problems(traced, PER_LAYER)


def wrappers_leave_no_mark(name: str) -> list[str]:
    import layertrace
    from harness import HostClock
    from run import make_workload

    targets = [t for _, t in layertrace.SPAN_TARGETS]
    targets += [t for _, t, _ in layertrace.COUNTER_TARGETS]
    targets.append(layertrace.FORWARD_TARGET)
    originals = {t: layertrace._resolve(t)[2] for t in targets}

    workload = make_workload(name, 0, tiny=True)
    clock = HostClock(workload.reference)
    state = workload.setup(clock)
    workload.run_pass(state, clock)  # warm-up: caches and arenas filled
    before = workload.run_pass(state, clock)["digest"]
    tracer = layertrace.LayerTracer()
    with tracer:
        tracer.begin_run("pass0")
        during = workload.run_pass(state, clock)["digest"]
        tracer.end_run()
    after = workload.run_pass(state, clock)["digest"]
    problems = []
    if not before == during == after:
        problems.append(f"results before/with/after wrappers: {before} {during} {after}")
    problems += [f"{t} not restored" for t in targets
                 if layertrace._resolve(t)[2] is not originals[t]]
    return problems


def main() -> int:
    from run import WORKLOADS, enter_checkout

    pin_thread_pools()
    root = enter_checkout()
    if root is None:
        return 2

    ok = True
    for name in WORKLOADS:
        for label, check in (("smoke", lambda n: smoke(n, root)),
                             ("wrappers", wrappers_leave_no_mark)):
            problems = check(name)
            ok = ok and not problems
            print(f"{'ok  ' if not problems else 'FAIL'} {label:8} {name}")
            for problem in problems:
                print(f"     {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
