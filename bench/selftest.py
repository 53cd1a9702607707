"""Quick self-test of the benchmark on a tiny corpus and n <= 5, in well under a minute.

    python3 bench/selftest.py

It checks that both modes print every metric BENCHMARK.json declares, with
its unit; that the program's outputs pass every oracle; that corrupted
outputs and a failed run are counted as failed operations; and that a span
whose entry point is gone, or that records no call, stops the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types

import run
from run import Workload

sys.path.insert(0, str(run.SRC))
import traced  # noqa: E402  (imports graphirr from the checkout's src)
from spans import SpanRecorder  # noqa: E402

TINY = {
    "selftest-verify": Workload("verify", ns=(3, 4, 5)),
    "selftest-compute": Workload("compute", corpus_size=40),
    "selftest-rank": Workload("rank", corpus_size=40),
}
SEED = 7


def bench(name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0, f"{name} trace={trace} exited with {code}"
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics_and_units() -> None:
    for trace in (0, 1):
        units = run.declared_units(bool(trace))
        for name in TINY:
            result = bench(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            metrics = result["metrics"]
            assert list(metrics) == list(units), (name, trace)
            for metric, unit in units.items():
                value = metrics[metric]["value"]
                assert metrics[metric]["unit"] == unit, metric
                assert isinstance(value, (int, float)) and value == value, (metric, value)
            if not trace:
                assert all(metrics[m]["value"] > 0 for m in units), (name, metrics)
        print(f"trace={trace}: {len(units)} metrics with units on {len(TINY)} workloads")


def _corrupt(name: str, text: str) -> str:
    if name == "selftest-verify":
        return text.replace('"passed": true', '"passed": false', 1)
    lines = text.splitlines()
    if name == "selftest-compute":
        cells = lines[1].split(",")
        cells[2] = str(int(cells[2]) + 1)  # irr_t of the first graph
        lines[1] = ",".join(cells)
    else:
        lines[1], lines[2] = lines[2], lines[1]  # the first two rank rows
    return "\n".join(lines) + "\n"


def check_corruption_counts() -> None:
    """Corrupt each CLI output as it lands; the run must count failed operations."""
    real_spawn = run.spawn

    def corrupting_spawn(argv, env, stdout_path):
        sample = real_spawn(argv, env, stdout_path)
        if run.CONSOLE_SCRIPT in argv:
            stdout_path.write_text(_corrupt(current, stdout_path.read_text()))
        return sample

    run.spawn = corrupting_spawn
    try:
        for current in TINY:
            result = bench(current, 0)
            assert not result["correct"] and result["failed"] >= 1, (current, result)
            assert result["metrics"]["ok_frac"]["value"] < 1, result
            print(f"{current}: corrupted output counted, {result['failed']} of "
                  f"{result['attempted']} operations failed")
    finally:
        run.spawn = real_spawn

    work = run.ROOT / ".bench_work" / "selftest-rank"
    inputs = run.Inputs(TINY["selftest-rank"], SEED, work)
    crashed = run.Sample(wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, returncode=1)
    check, _ = inputs.check(crashed, work / "out.txt")
    assert check.failed == check.attempted == 40, check
    print("a non-zero exit fails every operation of its run")


def check_spans_fail_loudly() -> None:
    rec = SpanRecorder()
    try:
        rec.patch(types.ModuleType("renamed"), "parse_graph6", "io.parse_graph6")
    except RuntimeError:
        pass
    else:
        raise AssertionError("patching a missing entry point must fail")
    try:
        traced.layer_metrics(rec, "compute", [])
    except RuntimeError:
        pass
    else:
        raise AssertionError("an expected span with no calls must fail")
    print("missing or silent spans stop the traced run")


def main() -> int:
    run.WORKLOADS = TINY
    check_metrics_and_units()
    check_corruption_counts()
    check_spans_fail_loudly()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
