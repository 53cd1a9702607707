"""The benchmark's traced run wraps graphirr entry points by name, so a rename
must fail here and not only in bench/selftest.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEED = 7
CORPUS_SIZE = 20
# the checkout's src, and no bytecode written into bench/
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def write_corpus(path):
    """The benchmark's own seeded corpus, as graph6 lines."""
    script = ("import sys; from corpus import build_corpus; "
              f"sys.stdout.write(''.join(g.graph6 + '\\n' for g in build_corpus({SEED}, {CORPUS_SIZE})))")
    path.write_text(subprocess.run([sys.executable, "-c", script], cwd=BENCH, env=ENV,
                                   check=True, capture_output=True, text=True).stdout)


@pytest.mark.parametrize("kind", ["verify", "compute", "rank"])
def test_traced_benchmark_runs(tmp_path, kind):
    corpus = tmp_path / "corpus.g6"
    argv = {
        "verify": ["verify", "--claims", "all", "--n", "3-4", "--output", "json"],
        "compute": ["compute", str(corpus), "--output", "csv"],
        "rank": ["rank", str(corpus), "--by", "ira"],
    }[kind]
    if kind != "verify":
        write_corpus(corpus)
    spec = {
        "kind": kind,
        "ns": [3, 4] if kind == "verify" else [],
        "argv": argv,
        "output": str(tmp_path / "traced.out"),
        "result": str(tmp_path / "traced.json"),
        "seed": SEED,
        "corpus_size": 0 if kind == "verify" else CORPUS_SIZE,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(BENCH / "traced.py"), str(spec_path)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "traced.json").read_text())
    assert result["cli_exit_code"] == 0
    assert (tmp_path / "traced.out").read_text()
