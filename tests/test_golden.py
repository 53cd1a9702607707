"""CLI output, byte for byte, against files captured from earlier implementations.

The verify_* files were written by the code that ran one scan per claim, except
verify_table_rows_n6.txt, written by a table_rows search with its own scan loop.  The
compute, rank and spectrum files were written by the code that computed each
degree measure on its own (irr_t pairwise, n0 once per pair-count measure),
over golden/corpus.g6: antiregular n = 2..12, the four table_rows witnesses,
path(7), cycle(8), star(9), complete_split(8, 3), 40 seeded gnp graphs with
n = 8..30, and one 6-vertex graph with an isolated vertex.  They pin every
count, rounded value and ordering; regenerating them from the current code
would make this test vacuous.
"""

import hashlib
from pathlib import Path

import pytest

from graphirr import cli

GOLDEN = Path(__file__).parent / "golden"
CORPUS = str(GOLDEN / "corpus.g6")


@pytest.mark.parametrize("name, argv", [
    ("verify_all_n3-7.json", ["verify", "--claims", "all", "--n", "3-7", "--output", "json"]),
    ("verify_all_n3-6.txt", ["verify", "--claims", "all", "--n", "3-6"]),
    ("verify_table_rows_n6.json", ["verify", "--claims", "table_rows", "--n", "6",
                                   "--output", "json"]),
    ("compute.txt", ["compute", CORPUS]),
    ("compute.csv", ["compute", CORPUS, "--output", "csv"]),
    ("compute.json", ["compute", CORPUS, "--output", "json"]),
    ("compute_no_spectral_d6.csv", ["compute", CORPUS, "--no-spectral", "--decimals", "6",
                                    "--output", "csv"]),
    ("rank_ira.txt", ["rank", CORPUS, "--by", "ira"]),
    ("rank_ira.csv", ["rank", CORPUS, "--by", "ira", "--output", "csv"]),
    ("rank_ira.json", ["rank", CORPUS, "--by", "ira", "--output", "json"]),
    ("rank_cs.txt", ["rank", CORPUS, "--by", "cs"]),
    ("rank_cs.csv", ["rank", CORPUS, "--by", "cs", "--output", "csv"]),
    ("rank_cs.json", ["rank", CORPUS, "--by", "cs", "--output", "json"]),
    ("spectrum.txt", ["spectrum", CORPUS]),
    ("spectrum.csv", ["spectrum", CORPUS, "--output", "csv"]),
    ("spectrum.json", ["spectrum", CORPUS, "--output", "json"]),
    ("verify_table_rows_n6.txt", ["verify", "--claims", "table_rows", "--n", "6"]),
])
def test_verify_output_matches_golden(capsys, name, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_compute_edgeless_error_matches_golden(tmp_path, capsys):
    edgeless = tmp_path / "edgeless.g6"
    edgeless.write_text("B?\n")
    assert cli.main(["compute", str(edgeless)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / "compute_edgeless.err").read_bytes()


def test_verify_n8_json_matches_digest(capsys):
    # 770 kB of JSON, so pinned by its sha256: the digest of the output of the
    # code that decided every claim graph by graph, one reducer per claim
    assert cli.main(["verify", "--claims", "all", "--n", "8", "--output", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ab73284493331cc2e9bd1220031b729d876c09f87fd9718af6ece6c729f49d30"
