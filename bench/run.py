"""End-to-end benchmark of the graphirr CLI, run from the root of a source checkout.

    python3 bench/run.py --workload verify-n7 --seed 1 --seconds 10 --trace 0

Workloads (BENCHMARK.json gives the reason for each):

- verify-n7       graphirr verify --claims all --n 3-7 --output json
- compute-corpus  graphirr compute CORPUS --output csv
- rank-corpus     graphirr rank CORPUS --by ira

CORPUS is 5,000 G(n,p) graphs in graph6 that bench/corpus.py draws from the
seed.  Each CLI run is its own subprocess, started as the ``graphirr``
console script starts it, with ``src`` on PYTHONPATH.  Runs repeat while the
next one is expected to end within ``--seconds``, at least once, and every
output is checked against the oracles in bench/oracles.py.

With ``--trace 0`` the last line reports, as medians over the runs:
wall_s (spawn to exit), cpu_s (user + system, from os.wait4), peak_rss_mb
(from the same rusage), setup_s (a subprocess that only imports graphirr.cli)
and ok_frac (1 - failed/attempted; one operation is one claim x n report of
verify, or one input graph of compute and rank).

With ``--trace 1`` it reports per-layer metrics from one in-process traced
run (bench/traced.py) next to one untraced run, whose wall time gives
trace.overhead_frac.

The line before the last holds the record of the run: environment, corpus
statistics, output digests, every sample and the failures with their base.
The same record goes to .bench_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from corpus import build_corpus, corpus_stats
from oracles import (
    CLAIMS, Check, check_compute_csv, check_rank_text, check_verify, expected_measures, failed_run,
    graphs_checked,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONSOLE_SCRIPT = "import sys; from graphirr.cli import main; sys.exit(main())"
SETUP_REPEATS = 6
CLI_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    kind: str                # verify, compute or rank
    ns: tuple[int, ...] = ()  # verify orders
    corpus_size: int = 0

    def argv(self, corpus_path: Path) -> list[str]:
        if self.kind == "verify":
            spec = f"{min(self.ns)}-{max(self.ns)}"
            return ["verify", "--claims", "all", "--n", spec, "--output", "json"]
        if self.kind == "compute":
            return ["compute", str(corpus_path), "--output", "csv"]
        return ["rank", str(corpus_path), "--by", "ira"]


WORKLOADS = {
    "verify-n7": Workload("verify", ns=(3, 4, 5, 6, 7)),
    "compute-corpus": Workload("compute", corpus_size=5000),
    "rank-corpus": Workload("rank", corpus_size=5000),
}


def child_env() -> tuple[dict, dict]:
    """Environment for every subprocess: the checkout's src only, thread pools at most nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = env.get(var, "")
        caps[var] = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(caps[var])
    return env, caps


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def spawn(argv: list[str], env: dict, stdout_path: Path) -> Sample:
    """Run one subprocess; wall time from spawn to exit, rusage from os.wait4."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def setup_samples(env: dict, work: Path, repeats: int) -> list[float]:
    """Wall times of importing graphirr.cli in a fresh interpreter."""
    argv = [sys.executable, "-c", "import graphirr.cli"]
    samples = [spawn(argv, env, work / "setup.out") for _ in range(repeats)]
    if any(s.returncode for s in samples):
        raise RuntimeError(f"importing graphirr.cli failed: {(work / 'setup.err').read_text()}")
    return [s.wall_s for s in samples]


class Inputs:
    """The seeded inputs of one workload and the oracle for its output."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.graphs = build_corpus(seed, workload.corpus_size)
        self.expected = [expected_measures(g) for g in self.graphs]
        self.corpus_path = work / "corpus.g6"
        self.corpus_path.write_text("".join(g.graph6 + "\n" for g in self.graphs))
        self.stats = corpus_stats(self.graphs) if self.graphs else None
        self.checked: dict[str, Check] = {}  # output digest -> its check

    @property
    def operations(self) -> int:
        if self.workload.kind == "verify":
            return len(self.workload.ns) * len(CLAIMS)
        return len(self.graphs)

    def check(self, sample: Sample, output: Path) -> tuple[Check, str]:
        """Check one output; identical outputs are checked once."""
        data = output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if sample.returncode != 0:
            return failed_run(self.operations, f"exit code {sample.returncode}: "
                              f"{output.with_suffix('.err').read_text()[-300:]}"), digest
        if digest not in self.checked:
            text = data.decode()
            kind = self.workload.kind
            if kind == "verify":
                self.checked[digest] = check_verify(text, list(self.workload.ns))
            elif kind == "compute":
                self.checked[digest] = check_compute_csv(text, self.expected)
            else:
                self.checked[digest] = check_rank_text(text, self.graphs, self.expected)
        return self.checked[digest], digest


def environment(caps: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "graphirr").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_caps": caps,
    }


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result line and the run record."""
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    env, caps = child_env()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(caps), "loadavg_before": os.getloadavg()}
    setup_samples(env, work, 1)  # warm-up: the first import may write bytecode caches
    setup = setup_samples(env, work, SETUP_REPEATS)
    inputs = Inputs(workload, seed, work)
    record["corpus"] = inputs.stats
    cli = [sys.executable, "-c", CONSOLE_SCRIPT] + workload.argv(inputs.corpus_path)

    samples, checks, digests = [], [], []
    start = time.perf_counter()
    # never start a run that would, at the median pace so far, end after --seconds
    while not samples or (not trace and time.perf_counter() - start
                          + median([s.wall_s for s in samples]) <= seconds):
        samples.append(spawn(cli, env, work / "out.txt"))
        check, digest = inputs.check(samples[-1], work / "out.txt")
        checks.append(check)
        digests.append(digest)

    # set-up samples on both sides of the runs, so that their median covers the same window
    setup += setup_samples(env, work, SETUP_REPEATS)
    if trace:
        metrics, check, digest = traced_run(workload, inputs, env, work)
        checks.append(check)
        digests.append(digest)
        untraced_main_s = samples[0].wall_s - median(setup)
        metrics["trace.overhead_frac"] = metrics.pop("cli.main.s") / untraced_main_s - 1
        metrics["enumeration.graphs_checked"] = (
            graphs_checked((work / "traced.out").read_text(), max(workload.ns))
            if workload.kind == "verify" and check.failed == 0 else 0)
    else:
        metrics = {
            "wall_s": median([s.wall_s for s in samples]),
            "cpu_s": median([s.cpu_s for s in samples]),
            "peak_rss_mb": median([s.peak_rss_mb for s in samples]),
            "setup_s": median(setup),
        }

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    if not trace:
        metrics["ok_frac"] = 1 - failed / attempted
    record.update({
        "loadavg_after": os.getloadavg(),
        "setup_s_samples": setup,
        "samples": [vars(s) for s in samples],
        "output_sha256": digests,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_base": f"{failed} of {attempted} operations over {len(checks)} CLI runs, "
                       f"{inputs.operations} per run",
        "problems": [p for c in checks for p in c.problems][:10],
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def traced_run(workload: Workload, inputs: Inputs, env: dict, work: Path) -> tuple[dict, Check, str]:
    """Per-layer metrics from bench/traced.py, and the check of its CLI output."""
    spec = {
        "kind": workload.kind,
        "ns": list(workload.ns),
        "argv": workload.argv(inputs.corpus_path),
        "output": str(work / "traced.out"),
        "result": str(work / "traced.json"),
        "seed": inputs.seed,
        "corpus_size": workload.corpus_size,
    }
    (work / "traced_spec.json").write_text(json.dumps(spec))
    sample = spawn([sys.executable, str(BENCH_DIR / "traced.py"), str(work / "traced_spec.json")],
                   env, work / "traced.log")
    if sample.returncode != 0:
        raise RuntimeError(f"traced run failed: {(work / 'traced.err').read_text()[-2000:]}")
    traced = json.loads((work / "traced.json").read_text())
    sample.returncode = traced["cli_exit_code"]
    check, digest = inputs.check(sample, work / "traced.out")
    return traced["metrics"], check, digest


def declared_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphirr" / "cli.py").is_file():
        print(f"error: no graphirr source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    result, record = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    (ROOT / ".bench_work" / args.workload / "result.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
