"""verify output, byte for byte, against files captured from the per-claim scan code.

The files under golden/ were written by the earlier implementation, which ran
one scan per claim.  They pin every count, detail value and witness order;
regenerating them from the current code would make this test vacuous.
"""

from pathlib import Path

import pytest

from graphirr import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("verify_all_n3-7.json", ["verify", "--claims", "all", "--n", "3-7", "--output", "json"]),
    ("verify_all_n3-6.txt", ["verify", "--claims", "all", "--n", "3-6"]),
    ("verify_table_rows_n6.json", ["verify", "--claims", "table_rows", "--n", "6",
                                   "--output", "json"]),
])
def test_verify_output_matches_golden(capsys, name, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
