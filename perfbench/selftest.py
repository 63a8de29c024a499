"""Smoke mode of the benchmark: ``python3 perfbench/run.py --smoke``.

A few seconds per workload.  Checks the benchmark itself, not the
program's speed:

1. every workload runs with correct answers, and its result line carries
   exactly the end-to-end metric names, each with its unit;
2. a traced run carries exactly the per-layer metric names and units;
3. a deliberately wrong oracle is caught: reads against it count as
   ``wrong_answer`` failures, the store checks of ``embed_rules`` report
   problems, and both results say ``"correct": false``.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import dataclasses

import run

SMOKE_SECONDS = 2.0


def _names_and_units(result: dict, expected: dict) -> "str | None":
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics {sorted(got.items())} != {sorted(expected.items())}"
    bad = [n for n, m in result["metrics"].items() if not isinstance(m.get("value"), (int, float))]
    return f"non-numeric values: {bad}" if bad else None


def main(seed: int) -> int:
    bench = run.Bench(seed, SMOKE_SECONDS, warmup=0.5, trials=1)
    outcomes: list[tuple[str, "str | None"]] = []
    try:
        for workload in run.WORKLOADS:
            result = run.run_workload(bench, workload, trace=False)
            problem = _names_and_units(result, run.END_TO_END)
            if not result["correct"] or result["failed"]:
                problem = f"not correct: {result}"
            outcomes.append((f"{workload} end-to-end", problem))

        result = run.run_workload(bench, "serve_write", trace=True)
        problem = _names_and_units(result, run.PER_LAYER)
        if not result["correct"]:
            problem = f"traced run not correct: {result}"
        outcomes.append(("serve_write traced", problem))

        good = bench.oracle
        bench.oracle = dataclasses.replace(good, balances=[b + 1 for b in good.balances])
        for workload in ("serve_read", "embed_rules"):
            result = run.run_workload(bench, workload, trace=False)
            caught = not result["correct"]
            if workload == "serve_read":
                caught = caught and result["failed"] == result["attempted"]
            outcomes.append(
                (f"{workload} wrong oracle caught", None if caught else f"missed: {result}")
            )
        bench.oracle = good
    finally:
        bench.close()

    for name, problem in outcomes:
        print(f"selftest {name}: {'ok' if problem is None else 'FAIL ' + problem}")
    failed = sum(1 for _name, problem in outcomes if problem is not None)
    print(f"selftest: {len(outcomes) - failed}/{len(outcomes)} passed")
    return 1 if failed else 0
