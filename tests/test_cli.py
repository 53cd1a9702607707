"""CLI subcommands, output formats, and the exit-code contract."""

import csv
import io
import json
import sys

import pytest

from graphirr import cli, compute_all, emit_graph6, parse_graph6, round_half_away
from graphirr import enumeration
from graphirr.enumeration import VerificationReport
from graphirr.generators import antiregular, cycle, path, star

A6_G6 = "E@^w"
TABLE_WITNESSES = ["E~q?", "E}a?", "E}q?", "E~a?"]  # n0 = 1..4, shared irr_t 26
HUGE_N = "99999999999999999999"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_lines(tmp_path, name, lines):
    target = tmp_path / name
    target.write_text("".join(line + "\n" for line in lines))
    return str(target)


def test_compute_text_output(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    code, out, err = run(capsys, ["compute", g6_file])
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["input", "n", "m"]
    row = lines[1].split()
    assert row[0] == A6_G6
    assert row[1] == "6" and row[2] == "9"


def test_compute_csv_round_trips_rounded_values(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    code, out, _ = run(capsys, ["compute", g6_file, "--output", "csv"])
    assert code == 0
    parsed = next(csv.DictReader(io.StringIO(out)))
    expected = compute_all(parse_graph6(A6_G6))
    assert int(parsed["irr_t"]) == expected.irr_t
    assert float(parsed["ira"]) == round_half_away(expected.ira, 3)
    assert float(parsed["cs"]) == round_half_away(expected.cs, 3)
    assert float(parsed["gini"]) == round_half_away(expected.gini, 3)


def test_compute_json_and_measure_selection(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    code, out, _ = run(capsys, ["compute", g6_file, "--measures", "n0,ira,irb",
                                "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"input": A6_G6, "n0": 1, "ira": 14.0, "irb": 0.933}]


def test_compute_decimals_flag(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    code, out, _ = run(capsys, ["compute", g6_file, "--measures", "irb",
                                "--output", "csv", "--decimals", "5"])
    assert code == 0
    assert out.splitlines()[1] == "0.93333"


def test_compute_no_spectral(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    code, out, _ = run(capsys, ["compute", g6_file, "--no-spectral", "--output", "csv"])
    assert code == 0
    parsed = next(csv.DictReader(io.StringIO(out)))
    assert parsed["cs"] == "" and parsed["rho"] == ""
    # spectral measures are on by default, so there is no switch to turn them on
    code, _, err = run(capsys, ["compute", g6_file, "--spectral"])
    assert code == 1 and "unrecognized arguments: --spectral" in err


@pytest.mark.parametrize("command, flags, message", [
    ("compute", ["--tolerance", "-1"], "tolerance must be positive, got -1.0"),
    ("compute", ["--max-iterations", "0"], "max_iterations must be >= 1, got 0"),
    ("compute", ["--decimals", "400"], "decimals must be in 0..15, got 400"),
    ("compute", ["--decimals", "-1"], "decimals must be in 0..15, got -1"),
    ("rank", ["--decimals", "16"], "decimals must be in 0..15, got 16"),
    ("rank", ["--by", "cs", "--tolerance", "0"], "tolerance must be positive, got 0.0"),
])
def test_bad_settings_give_one_line_error(tmp_path, capsys, command, flags, message):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    code, out, err = run(capsys, [command, g6_file, *flags])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_compute_decimals_9_is_fixed_point_on_regular_graph(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "c5.g6", [emit_graph6(cycle(5))])
    code, out, _ = run(capsys, ["compute", g6_file, "--output", "csv", "--decimals", "9"])
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    for name in ("var", "gini", "cs", "ira", "irb", "s", "rho"):
        assert row[name] == "0.000000000", name
    assert "E" not in out


def test_compute_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(A6_G6 + "\n"))
    code, out, _ = run(capsys, ["compute", "-", "--measures", "m", "--output", "csv"])
    assert code == 0
    assert out.splitlines() == ["m", "9"]


def test_compute_edgelist_format(tmp_path, capsys):
    target = tmp_path / "p4.edges"
    target.write_text("n 4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, ["compute", str(target), "--format", "edgelist",
                                "--measures", "irr_t", "--output", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "4"


def test_compute_rejects_unknown_measure_before_reading(tmp_path, capsys):
    code, _, err = run(capsys, ["compute", "/nonexistent-path", "--measures", "bogus"])
    assert code == 1
    assert "unknown measure" in err


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, ["compute", "/nonexistent-path"])
    assert code == 1 and "error:" in err


def test_compute_bad_graph6(tmp_path, capsys):
    bad = write_lines(tmp_path, "bad.g6", ["B"])
    code, _, err = run(capsys, ["compute", bad])
    assert code == 1 and "error:" in err


def test_rank_tie_and_strict_order(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "four.g6", TABLE_WITNESSES)
    code, out, _ = run(capsys, ["rank", g6_file, "--by", "irr_t"])
    assert code == 0
    assert "tie at rank 1: 4 graphs" in out

    code, out, _ = run(capsys, ["rank", g6_file, "--by", "ira", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [e["rank"] for e in payload] == [1, 2, 3, 4]
    assert [e["input"] for e in payload] == TABLE_WITNESSES
    assert [e["ira"] for e in payload] == [14.0, 6.5, 4.0, 2.75]
    assert all(not e["tie"] for e in payload)


def test_rank_ira_and_irb_agree(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "four.g6", list(reversed(TABLE_WITNESSES)))
    _, out_a, _ = run(capsys, ["rank", g6_file, "--by", "ira", "--output", "csv"])
    _, out_b, _ = run(capsys, ["rank", g6_file, "--by", "irb", "--output", "csv"])
    order_a = [line.rsplit(",", 1)[-1] for line in out_a.splitlines()[1:]]
    order_b = [line.rsplit(",", 1)[-1] for line in out_b.splitlines()[1:]]
    assert order_a == order_b == TABLE_WITNESSES


def test_rank_stable_on_ties(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "dup.g6", [A6_G6, A6_G6, A6_G6])
    code, out, _ = run(capsys, ["rank", g6_file, "--by", "ira", "--output", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "1", "1"]
    assert all(r.split(",")[2] == "true" for r in rows)


def test_rank_by_spectral_requires_spectral(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    # rank computes cs and rho exactly when ranking by them, so it has no switch
    for flag in ("--spectral", "--no-spectral"):
        code, _, err = run(capsys, ["rank", g6_file, "--by", "cs", flag])
        assert code == 1 and f"unrecognized arguments: {flag}" in err
    code, _, _ = run(capsys, ["rank", g6_file, "--by", "cs"])
    assert code == 0


def test_rank_unknown_measure(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "a6.g6", [A6_G6])
    code, _, err = run(capsys, ["rank", g6_file, "--by", "nope"])
    assert code == 1 and "unknown measure" in err


def test_generate_graph6(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "antiregular", "--n", "6"])
    assert code == 0
    assert out.strip() == emit_graph6(antiregular(6))


def test_generate_edgelist(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "path", "--n", "4",
                                "--format", "edgelist"])
    assert code == 0
    assert out == "n 4\n0 1\n1 2\n2 3\n"


def test_generate_gnp_and_split(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "gnp", "--n", "8",
                                "--p", "0.5", "--seed", "11"])
    assert code == 0
    assert parse_graph6(out.strip()).n == 8
    code, _, err = run(capsys, ["generate", "--family", "gnp", "--n", "8"])
    assert code == 1 and "error:" in err
    code, _, _ = run(capsys, ["generate", "--family", "complete_split", "--n", "6",
                              "--k", "2"])
    assert code == 0


def test_generate_domain_error(capsys):
    code, _, err = run(capsys, ["generate", "--family", "cycle", "--n", "2"])
    assert code == 1 and "error:" in err


def test_spectrum_outputs(tmp_path, capsys):
    g6_file = write_lines(tmp_path, "star.g6", [emit_graph6(star(6))])
    code, out, _ = run(capsys, ["spectrum", g6_file])
    assert code == 0
    assert "0:10" in out and "4:5" in out

    code, out, _ = run(capsys, ["spectrum", g6_file, "--output", "json"])
    payload = json.loads(out)
    assert payload[0]["counts"] == {"0": 10, "4": 5}
    assert payload[0]["total_pairs"] == 15
    assert payload[0]["weighted_sum"] == 20

    code, out, _ = run(capsys, ["spectrum", g6_file, "--output", "csv"])
    assert out.splitlines()[0] == "input,k,count"
    assert len(out.splitlines()) == 3


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", "--claims", "all", "--n", "3"])
    assert code == 0
    assert "10 of 10 claim runs passed" in out


def test_verify_n_spec_forms(capsys):
    code, out, _ = run(capsys, ["verify", "--claims", "eq2_identity", "--n", "3-4,5"])
    assert code == 0
    assert out.count("claim eq2_identity") == 3


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "--claims", "lemma_n0", "--n", "4",
                                "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["claim_id"] == "lemma_n0" and payload[0]["passed"]


def test_verify_table_rows(capsys):
    code, out, _ = run(capsys, ["verify", "--claims", "table_rows", "--n", "6"])
    assert code == 0
    assert "table_rows" in out


def test_verify_failed_claim_exits_two(capsys, monkeypatch):
    def fake(claim_id, n):
        return VerificationReport(claim_id=claim_id, n=n, graphs_checked=1, violations=1)

    monkeypatch.setattr(cli, "verify_claim", fake)
    code, out, _ = run(capsys, ["verify", "--claims", "lemma_n0", "--n", "3"])
    assert code == 2
    assert "FAILED" in out


def test_verify_bad_inputs(capsys):
    code, _, err = run(capsys, ["verify", "--claims", "mystery", "--n", "3"])
    assert code == 1 and "unknown claim" in err
    code, _, err = run(capsys, ["verify", "--claims", "lemma_n0", "--n", "5-3"])
    assert code == 1
    code, _, err = run(capsys, ["verify", "--claims", "lemma_n0", "--n", "abc"])
    assert code == 1
    for n in ("5", "7"):
        code, _, err = run(capsys, ["verify", "--claims", "table_rows", "--n", n])
        assert code == 1 and "table_rows" in err


def test_verify_checks_whole_request_before_scanning(capsys, monkeypatch):
    def no_scan(n):
        raise AssertionError(f"scan started at n={n}")

    monkeypatch.setattr(enumeration, "_verify_all", no_scan)
    monkeypatch.setattr(enumeration, "_scan_chunks", no_scan)
    for flags, message in (
        (["--claims", "all", "--n", "6-9"], "claim lemma_n0 supports 3 <= n <= 8, got n=9"),
        (["--claims", "lemma_n0,table_rows", "--n", "6-7"],
         "claim table_rows supports 6 <= n <= 6, got n=7"),
        (["--n", "3-100000"], "claim lemma_n0 supports 3 <= n <= 8, got n=9"),
    ):
        code, out, err = run(capsys, ["verify", *flags])
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_n_spec_stops_one_past_the_largest_order():
    assert cli._parse_n_spec("5,3-100000,200-300") == [3, 4, 5, 6, 7, 8, 9, 200]
    assert cli._parse_n_spec("4-6,5") == [4, 5, 6]


def test_huge_edgelist_header_is_one_line_error(tmp_path, capsys):
    # the vertex arrays cannot be allocated, so this fails at once and uses no memory
    target = tmp_path / "huge.el"
    target.write_text("n 1000000000000000\n0 1\n")
    code, out, err = run(capsys, ["compute", str(target), "--format", "edgelist"])
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_edgelist_count_too_large_to_hold_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "huge.el"
    target.write_text(f"n {HUGE_N}\n0 1\n")
    code, out, err = run(capsys, ["compute", str(target), "--format", "edgelist"])
    assert (code, out) == (1, "")
    assert err == f"error: line 1: vertex count {HUGE_N} is outside 1..{sys.maxsize}\n"


@pytest.mark.parametrize("family", [["complete"], ["antiregular"], ["path"],
                                    ["gnp", "--p", "0.5", "--seed", "1"]])
def test_generate_huge_n_as_graph6_fails_before_building(capsys, family):
    # complete, antiregular and gnp list every vertex pair first: at this n
    # that would run until memory ran out
    code, out, err = run(capsys, ["generate", "--family", *family, "--n", HUGE_N])
    assert (code, out, err) == (1, "", f"error: graph6 output supports n <= 62, got n={HUGE_N}\n")


def test_generate_huge_n_as_edgelist_is_one_line_error(capsys):
    code, out, err = run(capsys, ["generate", "--family", "path", "--n", HUGE_N,
                                  "--format", "edgelist"])
    assert (code, out, err) == (1, "", f"error: vertex count must be in 1..{sys.maxsize}, got n={HUGE_N}\n")


@pytest.mark.parametrize("spec", ["3-", "3-x", "abc", "4,-5"])
def test_verify_bad_n_spec_names_the_part(capsys, spec):
    code, out, err = run(capsys, ["verify", "--claims", "lemma_n0", "--n", spec])
    bad_part = spec.split(",")[-1]
    assert code == 1 and not out
    assert err == f"error: bad vertex counts {bad_part!r}; expected N or A-B\n"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["compute"])[0] == 1  # missing path
    assert run(capsys, ["compute", "x", "--output", "yaml"])[0] == 1
    assert run(capsys, ["frobnicate"])[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["compute", "--help"])[0] == 0


def test_generate_pipes_into_compute(tmp_path, capsys):
    code, out, _ = run(capsys, ["generate", "--family", "star", "--n", "6"])
    g6_file = write_lines(tmp_path, "gen.g6", [out.strip()])
    code, out, _ = run(capsys, ["compute", g6_file, "--measures", "ira", "--output", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "0.500"
