import dataclasses
import json
import re
import time
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaconn import cli, edgelist, from_edge_list, generate, graph, invariants, lp
from gammaconn.cli import _emit, build_result_document, main, render_text
from gammaconn.edgelist import (
    MAX_VERTICES,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from gammaconn.errors import EdgeListParseError
from gammaconn.random_graphs import gnm_connected, gnp_disconnected, random_tree

from conftest import counted, family, naive_parse_edge_list, small_family_corpus


# small vertex ids and counts, or ones past the header cap, so no header
# that parses asks for a large graph
EDGE_LIST_TOKEN = st.sampled_from([str(i) for i in range(51)] + ["-1", "-7", "-50"]
                                  + [str(MAX_VERTICES + 1), str(2 ** 63 - 1), str(10 ** 23)]
                                  + ["x", "n", "1.5", "0x1", "#", "# note", ""])
# half the lines have the two tokens of a header or an edge
EDGE_LIST_LINE = st.one_of(st.lists(EDGE_LIST_TOKEN, min_size=2, max_size=2),
                           st.lists(EDGE_LIST_TOKEN, max_size=4))

# int() spellings of a small id: plain, signed, with an underscore, in
# Arabic-Indic and in fullwidth digits
ORACLE_SPELLINGS = (str, "+{}".format, "0_{}".format, lambda v: chr(0x0660 + v),
                    lambda v: chr(0xFF10 + v))
# tokens int() refuses, and integers outside every drawn [0, n), int64 or not
ORACLE_BAD_TOKENS = ["x", "1.0", "0x1", "-1", "1_0", str(2 ** 63), str(2 ** 64),
                     str(-2 ** 63 - 1)]
ORACLE_GAP = st.sampled_from([" ", "\t", "  ", " \t "])
ORACLE_COMMENT = st.sampled_from(["", "", "", " # note", "#", "\t#0 1"])
ORACLE_BREAK = st.sampled_from(["\n", "\n", "\r\n", "\r", "\f", "\x0b", "\x85", "\u2028"])


@st.composite
def near_valid_edge_lists(draw):
    """A header and edge lines a few faults away from a valid document.

    Random pairs over few vertices give self-loops and duplicates in both
    orientations; the declared m may be one off either way; now and then a
    token is respelled or replaced by a bad one, or a line gains or loses a
    token; blank and comment-only lines are mixed in.
    """
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=min(8, n * (n - 1) // 2)))
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    text = ""
    for row in [(n, m), *pairs]:
        if draw(st.integers(0, 5)) == 0:
            text += draw(st.sampled_from(["", " ", "\t"])) + draw(ORACLE_COMMENT) + draw(ORACLE_BREAK)
        tokens = [draw(st.sampled_from(ORACLE_SPELLINGS))(v) if 0 <= v < 10 else str(v)
                  for v in row]
        fault = draw(st.integers(0, 31))
        if fault == 0:
            tokens[draw(st.integers(0, 1))] = draw(st.sampled_from(ORACLE_BAD_TOKENS))
        elif fault == 1:
            tokens.pop()
        elif fault == 2:
            tokens.append("1")
        text += draw(ORACLE_GAP).join(tokens) + draw(ORACLE_COMMENT) + draw(ORACLE_BREAK)
    return text if draw(st.booleans()) else text.rstrip("\n\r\f\x0b\x85\u2028")


# writer-alphabet tokens no drawn n admits as ids: past int64 (numpy clamps
# them), at n's bound, a leading-zero spelling of 1, and an empty token,
# which leaves a line's single space and LF in place
WRITER_BAD_TOKENS = [str(2 ** 63), str(2 ** 64), "0" * 25 + "1", "6", "7", "99", ""]


@st.composite
def writer_alphabet_edge_lists(draw):
    """Documents of digits, single spaces and LFs a few faults from valid.

    Unlike near_valid_edge_lists, every line is "digits SP digits LF" unless
    it loses or gains a token, so most documents are in the writer's own
    format. Random pairs over few vertices give self-loops and duplicates in
    both orientations; the declared m may be one off either way; now and
    then a token is replaced by an id out of range or past int64.
    """
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * (n - 1) // 2))
    m = max(0, len(pairs) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    text = ""
    for row in [(n, m), *pairs]:
        tokens = [str(v) for v in row]
        fault = draw(st.integers(0, 15))
        if fault == 0:
            tokens[draw(st.integers(0, 1))] = draw(st.sampled_from(WRITER_BAD_TOKENS))
        elif fault == 1:
            tokens.pop()
        elif fault == 2:
            tokens.append(draw(st.sampled_from(["0", "1"])))
        text += " ".join(tokens) + "\n"
    return text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except EdgeListParseError as exc:
        return type(exc), exc.line_no, str(exc)


def assert_line_reader_matches(monkeypatch, text, respelled):
    """respelled goes to the line reader and parses element-identical to text."""
    want = parse_edge_list(text)
    lines = counted(monkeypatch, edgelist, "_parse_lines")
    got = parse_edge_list(respelled)
    assert len(lines) == 1 and got.n == want.n
    for a, b in ((got.edges, want.edges), (got._indptr, want._indptr),
                 (got._indices, want._indices)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestEdgeListFormat:
    def test_round_trip_all_families(self, tmp_path):
        for spec in small_family_corpus(9):
            g = generate(spec)
            path = tmp_path / "g.txt"
            write_edge_list(g, path)
            assert read_edge_list(path) == g

    def test_byte_stable_output(self):
        text = format_edge_list(family("path", 3))
        assert text == "3 2\n0 1\n1 2\n"
        text = format_edge_list(family("torus", 3, 4))  # multi-digit vertex ids
        assert text == ("12 24\n0 1\n0 3\n0 4\n0 8\n1 2\n1 5\n1 9\n2 3\n2 6\n2 10\n"
                        "3 7\n3 11\n4 5\n4 7\n4 8\n5 6\n5 9\n6 7\n6 10\n7 11\n8 9\n"
                        "8 11\n9 10\n10 11\n")

    def test_comments_and_blanks_accepted(self):
        g = parse_edge_list("# a path\n\n3 2\n0 1  # first\n\n1 2\n")
        assert g.n == 3 and g.m == 2

    @pytest.mark.parametrize("doc,fragment", [
        ("", "empty document"),
        ("3\n", "header"),
        ("3 2\n0 1\n", "2 edges but 1"),
        ("3 1\n0 1\n1 2\n", "more edge lines"),
        ("3 1\n0 x\n", "non-integer"),
        ("3 1\n0 3\n", "outside"),
        ("3 1\n1 1\n", "self-loop"),
        ("3 2\n0 1\n1 0\n", "duplicate"),
        # header values numpy cannot hold once raised its bare ValueError
        ("99999999999999999999999 0\n", "line 1: header values n=99999999999999999999999 m=0"),
        ("3 99999999999999999999999\n", "line 1: header values n=3 m=99999999999999999999999"),
        ("# n = 2^63\n9223372036854775808 1\n0 1\n", "line 2: header values"),
        # which fault a line names first, and an id past int64
        ("3 1\n5 5\n", "line 2: edge (5, 5) outside"),
        ("3 2\n1 1\n0 1\n1 0\n", "line 2: self-loop"),
        ("3 1\n0 99999999999999999999999\n", "line 2: edge (0, 99999999999999999999999) outside"),
    ])
    def test_parse_errors_carry_line_numbers(self, doc, fragment):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(doc)
        assert fragment in str(exc.value)
        assert exc.value.line_no >= 1

    @pytest.mark.parametrize("doc,fragment", [
        ("9223372036854775807 0\n", "n=9223372036854775807 m=0 exceed the caps"),
        (f"{MAX_VERTICES + 1} 0\n", f"n={MAX_VERTICES + 1} m=0 exceed the caps"),
        ("4 7\n0 1\n", "n=4 m=7 exceed the caps"),
    ])
    def test_oversized_header_rejected_before_building(self, doc, fragment, monkeypatch):
        def refuse(*args):
            raise AssertionError("from_edge_list reached")

        monkeypatch.setattr(edgelist, "from_edge_list", refuse)
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(doc)
        assert exc.value.line_no == 1
        assert f"line 1: header values {fragment}" in str(exc.value)

    def test_late_fault_in_large_document_named_quickly(self):
        lines = format_edge_list(family("path", 100_000)).splitlines()
        lines[-1] = "1 0"  # line 100,000 repeats the first edge
        t0 = time.perf_counter()
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("\n".join(lines))
        assert time.perf_counter() - t0 < 2.0
        assert str(exc.value) == "line 100000: duplicate edge (0, 1)"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(EDGE_LIST_LINE, max_size=10), st.sampled_from(["\n", "\r\n"]))
    def test_fuzzed_text_parses_or_names_a_line(self, lines, newline):
        text = newline.join(" ".join(tokens) for tokens in lines)
        try:
            g = parse_edge_list(text)
        except EdgeListParseError as exc:
            assert 1 <= exc.line_no <= max(1, len(text.splitlines()))
        else:
            assert parse_edge_list(format_edge_list(g)) == g

    @settings(max_examples=600, deadline=None)
    @given(near_valid_edge_lists())
    def test_parser_matches_line_loop(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(naive_parse_edge_list, text)

    @settings(max_examples=600, deadline=None)
    @given(writer_alphabet_edge_lists())
    def test_writer_alphabet_matches_line_loop(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(naive_parse_edge_list, text)

    def test_writer_output_skips_the_line_reader(self, monkeypatch):
        # the writer's own format is read by one numpy call: the line
        # reader, _parse_lines, is never reached
        def refuse(*args):
            raise AssertionError("line reader reached")

        graphs = [family("path", 999), family("torus", 30, 40),
                  gnm_connected(2000, 10000, seed=5), from_edge_list(1, [])]
        texts = [format_edge_list(g) for g in graphs]
        assert texts[-1] == "1 0\n"
        monkeypatch.setattr(edgelist, "_parse_lines", refuse)
        for g, text in zip(graphs, texts):
            h = parse_edge_list(text)
            assert h.n == g.n
            for a, b in ((h.edges, g.edges), (h._indptr, g._indptr), (h._indices, g._indices)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("respell", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace(" ", "\t"),
        lambda t: "# respelled\n\n" + t,
        lambda t: t[:-1],
    ], ids=["crlf", "tabs", "comment", "no-final-lf"])
    @pytest.mark.parametrize("g", [family("path", 999), family("torus", 30, 40),
                                   gnm_connected(2000, 10000, seed=5)],
                             ids=["path999", "torus30x40", "gnm2000"])
    def test_line_reader_matches_writer_path(self, monkeypatch, g, respell):
        text = format_edge_list(g)
        assert_line_reader_matches(monkeypatch, text, respell(text))

    @pytest.mark.parametrize("doc", ["5 0", "# none\n5 0\n"])
    def test_line_reader_builds_int64_without_edges(self, monkeypatch, doc):
        assert_line_reader_matches(monkeypatch, "5 0\n", doc)

    def test_non_utf8_byte_named_by_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"3 2\n0 1\n1 \xff2\n")
        with pytest.raises(EdgeListParseError) as exc:
            read_edge_list(path)
        assert exc.value.line_no == 3
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 2
        assert err.startswith("error: line 3: ")

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        body = b"3 2\r\n0 1\r\n1 2\r\n"
        plain, marked, bad = (tmp_path / name for name in ("plain.txt", "bom.txt", "bad.txt"))
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        assert read_edge_list(marked) == read_edge_list(plain)
        code, _, err = run_cli(capsys, "compute", str(marked))
        assert code == 0 and err == ""
        # a bad byte after the mark keeps its line and its offset in the file
        bad.write_bytes(b"\xef\xbb\xbf3 2\n0 1\n1 \xff2\n")
        with pytest.raises(EdgeListParseError) as exc:
            read_edge_list(bad)
        assert exc.value.line_no == 3
        assert "byte 0xff at offset 13" in str(exc.value)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommand:
    def test_path5_text(self, tmp_path, capsys):
        path = tmp_path / "p5.txt"
        write_edge_list(family("path", 5), path)
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 0
        assert "gamma: 1/2 (0.5)" in out
        assert "attaining vertex: 0" in out

    def test_cycle6_with_lp(self, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        write_edge_list(family("cycle", 6), path)
        code, out, _ = run_cli(capsys, "--json", "compute", str(path), "--lp")
        doc = json.loads(out)
        assert code == 0
        assert (doc["gamma"]["num"], doc["gamma"]["den"]) == (2, 3)
        assert abs(doc["oracle"]["gamma"] - 2 / 3) <= 1e-6
        assert doc["oracle"]["agrees"] is True

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        write_edge_list(
            __import__("gammaconn").from_edge_list(4, [(0, 1), (2, 3)]), path)
        code, out, _ = run_cli(capsys, "--json", "compute", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["graph"]["connected"] is False
        assert (doc["gamma"]["num"], doc["gamma"]["den"]) == (0, 1)
        assert doc["invariants"]["wiener"] == {"skipped": "graph is disconnected"}

    def test_schema_stable_across_flag_sets(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(family("cycle", 5), path)
        docs = []
        for flags in ([], ["--lp"], ["--spectral", "--cheeger"]):
            _, out, _ = run_cli(capsys, "--json", "compute", str(path), *flags)
            docs.append(json.loads(out))
        keysets = [set(d) for d in docs]
        assert keysets[0] == keysets[1] == keysets[2]
        inv_keys = [set(d["invariants"]) for d in docs]
        assert inv_keys[0] == inv_keys[1] == inv_keys[2]

    def test_json_output_byte_deterministic(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(family("torus", 3, 3), path)
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "--json", "compute", str(path),
                                "--lp", "--spectral", "--cheeger")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 9\n")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "/nonexistent/graph.txt")
        assert code == 2

    def test_cheeger_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GAMMA_MAX_N", raising=False)
        path = tmp_path / "c30.txt"
        write_edge_list(family("cycle", 30), path)
        code, _, err = run_cli(capsys, "compute", str(path), "--cheeger")
        assert code == 3

    @pytest.mark.parametrize("override", [None, "60"], ids=["default", "override60"])
    def test_cheeger_width_limit_names_no_override(self, tmp_path, capsys, monkeypatch,
                                                   override):
        # no GAMMA_MAX_N lifts the 48-vertex limit, so the message must not offer one
        if override is None:
            monkeypatch.delenv("GAMMA_MAX_N", raising=False)
        else:
            monkeypatch.setenv("GAMMA_MAX_N", override)
        path = tmp_path / "c50.txt"
        write_edge_list(family("cycle", 50), path)
        code, _, err = run_cli(capsys, "compute", str(path), "--cheeger")
        assert code == 3
        assert "n <= 48" in err and "GAMMA_MAX_N" not in err

    def test_tol_does_not_reach_the_simplex(self, tmp_path, capsys):
        path = tmp_path / "pet.txt"
        write_edge_list(family("petersen"), path)
        oracles = []
        for tol in ([], ["--tol", "0.1"]):
            code, out, _ = run_cli(capsys, *tol, "--json", "compute", str(path), "--lp")
            assert code == 0
            oracles.append(json.loads(out)["oracle"])
        assert oracles[1]["agrees"] is True
        assert oracles[1] == oracles[0]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9", "x"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, monkeypatch, tol):
        power = counted(monkeypatch, invariants, "_power_iteration")
        path = tmp_path / "c40.txt"
        write_edge_list(family("cycle", 40), path)
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "verify", str(path)])
        assert exc.value.code == 2
        assert "argument --tol: must be finite and positive" in capsys.readouterr().err
        assert power == []

    @pytest.mark.parametrize("override", ["-5", "0"])
    def test_cap_override_must_be_positive(self, tmp_path, capsys, monkeypatch, override):
        monkeypatch.setenv("GAMMA_MAX_N", override)
        path = tmp_path / "c40.txt"
        write_edge_list(family("cycle", 40), path)
        code, _, err = run_cli(capsys, "compute", str(path), "--cheeger")
        assert code == 2
        assert err == f"error: GAMMA_MAX_N must be a positive integer, got {override!r}\n"

    def test_malformed_cap_override_read_only_with_cheeger(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAMMA_MAX_N", "x")
        path = tmp_path / "c6.txt"
        write_edge_list(family("cycle", 6), path)
        code, _, err = run_cli(capsys, "compute", str(path))
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, "compute", str(path), "--cheeger")
        assert (code, out) == (2, "")
        assert err == "error: GAMMA_MAX_N must be an integer, got 'x'\n"

    def test_cap_override_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAMMA_MAX_N", "30")
        path = tmp_path / "c26.txt"
        write_edge_list(family("cycle", 26), path)
        code, out, _ = run_cli(capsys, "--json", "compute", str(path), "--cheeger")
        assert code == 0
        assert json.loads(out)["invariants"]["cheeger"]["value"] == pytest.approx(2 / 26)


class TestVerifyCommand:
    def test_flags_and_help_match_compute(self, capsys):
        helps = []
        for command in ("compute", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out.replace(command, "COMMAND"))
        assert helps[0] == helps[1]
        assert "also run exact expansion" in helps[1]

    def test_k5_all_hold(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        write_edge_list(family("complete", 5), path)
        code, out, _ = run_cli(capsys, "--json", "verify", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["bounds"]["all_hold"] is True
        spectral = next(e for e in doc["bounds"]["entries"]
                        if e["name"] == "spectral_radius_upper")
        assert spectral["equality_attained"] and spectral["equality_expected"]

    def test_star_equality(self, tmp_path, capsys):
        path = tmp_path / "s7.txt"
        write_edge_list(family("star", 7), path)
        code, out, _ = run_cli(capsys, "--json", "verify", str(path))
        doc = json.loads(out)
        tree = next(e for e in doc["bounds"]["entries"] if e["name"] == "tree_upper")
        assert code == 0 and tree["equality_attained"] and tree["equality_expected"]

    def test_petersen_expansion_strict(self, tmp_path, capsys):
        path = tmp_path / "pet.txt"
        write_edge_list(family("petersen"), path)
        code, out, _ = run_cli(capsys, "--json", "verify", str(path), "--cheeger")
        doc = json.loads(out)
        assert code == 0
        exp = next(e for e in doc["bounds"]["entries"] if e["name"] == "expansion_upper")
        assert exp["holds"] and exp["lhs"] < exp["rhs"]

    def test_cap_override_leaves_l1_oracle_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAMMA_MAX_N", "20")
        calls = []
        monkeypatch.setattr(invariants, "b_small_oracle",
                            lambda *a, **k: calls.append((a, k)) or 0.0)
        path = tmp_path / "c14.txt"
        write_edge_list(family("cycle", 14), path)
        code, out, _ = run_cli(capsys, "--json", "verify", str(path))
        assert code == 0
        assert calls == []
        l1 = next(e for e in json.loads(out)["bounds"]["entries"]
                  if e["name"] == "l1_variation_upper")
        assert l1["skipped"] and l1["reason"] == "l1 oracle capped at n <= 12"

    def test_cheeger_cap_exit_3_names_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GAMMA_MAX_N", raising=False)
        power = counted(monkeypatch, invariants, "_power_iteration")
        path = tmp_path / "c30.txt"
        write_edge_list(family("cycle", 30), path)
        code, _, err = run_cli(capsys, "verify", str(path), "--spectral", "--cheeger")
        assert code == 3
        assert "override with GAMMA_MAX_N" in err
        assert power == []  # the cap fails the call before the spectral work

    def test_override_past_width_limit_skips_expansion(self, tmp_path, capsys, monkeypatch):
        # GAMMA_MAX_N cannot lift the 48-vertex limit, so verify skips the
        # expansion entries there instead of failing with exit 3
        monkeypatch.setenv("GAMMA_MAX_N", "60")
        path = tmp_path / "c50.txt"
        write_edge_list(family("cycle", 50), path)
        code, out, err = run_cli(capsys, "--json", "verify", str(path))
        assert code == 0, err
        entries = {e["name"]: e for e in json.loads(out)["bounds"]["entries"]}
        for name in ("expansion_upper", "expansion_vs_mu_upper", "expansion_vs_mu_lower"):
            assert entries[name]["skipped"]
            assert entries[name]["reason"] == "exact expansion capped at n <= 48"

    def test_dense_cap_skips_dense_entries(self, tmp_path, capsys, monkeypatch):
        # cycle(30) is past the default Cheeger cap of 24 too, so the
        # normalized-Laplacian entries stay skipped by that cap
        monkeypatch.delenv("GAMMA_MAX_N", raising=False)
        monkeypatch.setattr(graph, "_DENSE_MAX_N", 16)
        path = tmp_path / "c30.txt"
        write_edge_list(family("cycle", 30), path)
        code, out, err = run_cli(capsys, "--json", "verify", str(path))
        assert code == 0, err
        doc = json.loads(out)
        entries = {e["name"]: e for e in doc["bounds"]["entries"]}
        for name in ("spectral_radius_upper", "laplacian_gap_upper"):
            assert entries[name]["skipped"]
            assert entries[name]["reason"] == "dense matrices capped at n <= 16"
        assert entries["expansion_vs_mu_upper"]["reason"] == "exact expansion capped at n <= 24"
        assert doc["bounds"]["all_hold"] is True
        for command in ("compute", "verify"):
            code, _, err = run_cli(capsys, command, str(path), "--spectral")
            assert code == 3
            assert "dense matrices capped at n <= 16" in err and "GAMMA_MAX_N" not in err

    def test_disconnected_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        write_edge_list(
            __import__("gammaconn").from_edge_list(4, [(0, 1), (2, 3)]), path)
        code, _, _ = run_cli(capsys, "verify", str(path))
        assert code == 2

    def test_failing_bound_exit_1(self, tmp_path, capsys, monkeypatch):
        # no real graph fails a bound, so fake one to pin the exit-code wiring
        import gammaconn.cli as cli_mod
        from gammaconn.invariants import BoundEntry, BoundReport

        broken = BoundReport((BoundEntry(
            name="wiener_upper", lhs=2.0, rhs=1.0, relation="<=", holds=False,
            equality_attained=False, equality_expected=False),))
        monkeypatch.setattr(cli_mod.invariants, "bound_report",
                            lambda *a, **k: broken)
        path = tmp_path / "k3.txt"
        write_edge_list(family("complete", 3), path)
        code, out, _ = run_cli(capsys, "--json", "verify", str(path))
        assert code == 1
        assert json.loads(out)["bounds"]["all_hold"] is False

    def test_invalid_certificate_exit_1(self, tmp_path, capsys, monkeypatch):
        real = invariants.gamma
        monkeypatch.setattr(invariants, "gamma",
                            lambda g: dataclasses.replace(real(g), witness_valid=False))
        path = tmp_path / "c5.txt"
        write_edge_list(family("cycle", 5), path)
        code, out, _ = run_cli(capsys, "--json", "verify", str(path))
        doc = json.loads(out)
        assert code == 1
        assert doc["witness"]["valid"] is False and doc["bounds"]["all_hold"] is True

    def test_disagreeing_oracle_exit_1(self, tmp_path, capsys, monkeypatch):
        real = lp.gamma_lp_details

        def off_by_half(g):
            value, per_k, best_k = real(g)
            return value + 0.5, per_k, best_k

        monkeypatch.setattr(lp, "gamma_lp_details", off_by_half)
        path = tmp_path / "c5.txt"
        write_edge_list(family("cycle", 5), path)
        code, out, _ = run_cli(capsys, "--json", "verify", str(path), "--lp")
        doc = json.loads(out)
        assert code == 1
        assert doc["oracle"]["agrees"] is False and doc["bounds"]["all_hold"] is True
        # compute reports the disagreement without judging it
        code, _, _ = run_cli(capsys, "--json", "compute", str(path), "--lp")
        assert code == 0


EVERY_FLAG_SET = [{"with_lp": lp_, "with_spectral": spectral, "with_cheeger": cheeger}
                  for lp_ in (False, True) for spectral in (False, True)
                  for cheeger in (False, True)]
ALL_FLAGS = EVERY_FLAG_SET[-1]


class TestEmit:
    """JSON output is json.dumps(doc, indent=2) byte for byte; text output is unchanged."""

    @staticmethod
    def check(capsys, g, command, flags):
        doc = build_result_document(g, command=command, tol=1e-9, **flags)
        # the same data with one fresh entry dict per vertex, nothing shared
        fresh = [{"num": w.numerator, "den": w.denominator, "approx": float(w)}
                 for w in invariants.gamma(g).witness]
        assert doc["witness"]["vector"] == fresh
        _emit(doc, True)
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
        _emit(doc, False)
        unshared = {**doc, "witness": {**doc["witness"], "vector": fresh}}
        assert capsys.readouterr().out == render_text(unshared) + "\n"

    def test_family_corpus(self, capsys):
        for spec in small_family_corpus():
            g = generate(spec)
            self.check(capsys, g, "compute", {})
            self.check(capsys, g, "verify", ALL_FLAGS)

    @pytest.mark.parametrize("flags", EVERY_FLAG_SET,
                             ids=lambda f: "-".join(k[5:] for k, on in f.items() if on) or "none")
    @pytest.mark.parametrize("g", [
        gnp_disconnected(12, 0.2, seed=3),
        from_edge_list(300, []),
        from_edge_list(2, []),
        family("path", 2),
        family("petersen"),
    ], ids=["gnp12-disconnected", "edgeless300", "edgeless2", "path2", "petersen"])
    def test_every_flag_set(self, capsys, g, flags):
        self.check(capsys, g, "compute", flags)
        if graph.is_connected(g):  # verify refuses disconnected graphs
            self.check(capsys, g, "verify", flags)


    @pytest.mark.parametrize("g", [
        family("path", 999),
        random_tree(300, seed=5),
        family("cycle", 101),
        family("torus", 6, 7),
        family("complete", 2),
    ], ids=["path999", "tree300", "cycle101", "torus6x7", "k2"])
    def test_many_shells_and_maximisers(self, capsys, g):
        self.check(capsys, g, "compute", {})
        argmax = build_result_document(g, command="compute", tol=1e-9)["invariants"][
            "transmission_argmax"]
        if invariants.is_transmission_regular(g):  # torus6x7 and k2: every vertex
            assert argmax == list(range(g.n))


class TestShellEntries:
    """The witness entries come from the certificate's integers, not from Fractions."""

    @pytest.mark.parametrize("command,g", [
        ("compute", family("path", 999)),
        ("verify", family("path", 200)),
    ], ids=["compute-path999", "verify-path200"])
    def test_document_builds_few_fractions(self, monkeypatch, command, g):
        made = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(invariants, "Fraction", Counted)
        doc = build_result_document(g, command=command, tol=1e-9)
        assert doc["witness"]["valid"] is True
        # one per vertex shell (999 and 200 here) if the witness were built
        assert len(made) <= 20

    @pytest.mark.parametrize("den", [7, 2 ** 53 - 1, 2 ** 53, 3 ** 40, 2 ** 62 + 1])
    def test_entries_equal_fraction_docs(self, den):
        rng = np.random.default_rng(den % 1000)
        nums = [den, -den, 0, 1, -1, den - 1] + [
            int(rng.integers(-(2 ** 62), 2 ** 62)) % (2 * den + 1) - den for _ in range(200)]
        cert = types.SimpleNamespace(shell_nums=tuple(nums), witness_den=den)
        expected = [cli._fraction_doc(Fraction(a, den)) for a in nums]
        got = cli._shell_entries(cert)
        assert got == expected
        assert [tuple(map(type, e.values())) for e in got] == [(int, int, float)] * len(nums)


class TestParser:
    def test_main_builds_one_parser(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k3.txt"
        write_edge_list(family("complete", 3), path)
        cli._main_parser.cache_clear()
        builds = counted(monkeypatch, cli, "build_parser")
        code, flagged, _ = run_cli(capsys, "--json", "--tol", "1e-3", "compute", "--lp", str(path))
        assert code == 0 and json.loads(flagged)["oracle"]["agrees"] is True
        with pytest.raises(SystemExit):
            main(["--tol", "nan", "compute", str(path)])
        capsys.readouterr()
        # nothing of the earlier calls' flags carries over
        plain = json.loads(run_cli(capsys, "--json", "compute", str(path))[1])
        assert "skipped" in plain["oracle"] and "skipped" in plain["invariants"]["cheeger"]
        assert len(builds) == 1
        assert cli.build_parser() is not cli.build_parser()


def _rendered_doc(run):
    skip = {"skipped": "why"}
    estimate = {"value": 2.5, "residual": 1.25e-11, "iterations": 7, "converged": True}
    bound = {"name": "tree_upper", "lhs": 0.5, "relation": "<=", "rhs": 1.0, "holds": True,
             "equality_attained": None, "equality_expected": None,
             "skipped": False, "reason": None}
    return {
        "graph": {"n": 4, "m": 3, "connected": True, "tree": True},
        "gamma": {"num": 2, "den": 3, "approx": 2 / 3},
        "attaining_vertex": 1,
        "witness": {"valid": True},
        "invariants": {
            "wiener": 10 if run else skip,
            "max_transmission": 6 if run else skip,
            "transmission_argmax": [0, 3] if run else skip,
            "transmission_regular": False if run else skip,
            "distance_spectral_radius": estimate if run else skip,
            "algebraic_connectivity": estimate if run else skip,
            "normalized_laplacian_mu": estimate if run else skip,
            "cheeger": {"value": 1 / 3, "subset": [0, 1]} if run else skip,
        },
        "bounds": {"all_hold": True, "entries": [
            bound,
            {**bound, "name": "star_lower", "equality_attained": True,
             "equality_expected": False},
            {**bound, "name": "l1_variation_upper", "skipped": True, "reason": "capped"},
        ]} if run else skip,
        "oracle": {"gamma": 2 / 3, "per_k": [], "best_k": 2, "agrees": True} if run else skip,
    }


class TestRenderText:
    HEAD = ("graph: n=4 m=3 connected=True tree=True\n"
            "gamma: 2/3 (0.666667)\n"
            "attaining vertex: 1\n"
            "witness valid: True\n")

    def test_every_block_skipped(self):
        keys = ["wiener", "max_transmission", "transmission_argmax", "transmission_regular",
                "distance_spectral_radius", "algebraic_connectivity",
                "normalized_laplacian_mu", "cheeger", "bounds", "oracle"]
        assert render_text(_rendered_doc(False)) == self.HEAD + "\n".join(
            f"{key}: skipped (why)" for key in keys)

    def test_every_block_ran(self):
        estimate = "2.5 (residual 1.25e-11, 7 iterations, converged=True)"
        assert render_text(_rendered_doc(True)) == self.HEAD + (
            "wiener: 10\n"
            "max_transmission: 6\n"
            "transmission_argmax: [0, 3]\n"
            "transmission_regular: False\n"
            f"distance_spectral_radius: {estimate}\n"
            f"algebraic_connectivity: {estimate}\n"
            f"normalized_laplacian_mu: {estimate}\n"
            "cheeger: 0.3333333333 subset=[0, 1]\n"
            "bounds: all_hold=True\n"
            "  tree_upper: 0.5 <= 1 holds=True\n"
            "  star_lower: 0.5 <= 1 holds=True equality_attained=True equality_expected=False\n"
            "  l1_variation_upper: skipped (capped)\n"
            "oracle: gamma=0.6666666667 best_k=2 agrees=True")


class TestOncePerGraph:
    """Each analysis runs once per CLI call, however many parts read it."""

    def test_compute_runs_one_all_sources_bfs(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        write_edge_list(gnm_connected(70, 150, seed=3), path)
        sweeps = counted(monkeypatch, graph, "_all_sources_levels")
        code, _, _ = run_cli(capsys, "--json", "compute", str(path))
        assert code == 0 and len(sweeps) == 1

    def test_verify_runs_cheeger_and_each_eigh_once(self, tmp_path, capsys, monkeypatch):
        g = family("cycle", 8)
        path = tmp_path / "c8.txt"
        write_edge_list(g, path)
        sweeps = counted(monkeypatch, graph, "_all_sources_levels")
        cheeger = counted(monkeypatch, invariants, "_exact_cheeger")
        power = counted(monkeypatch, invariants, "_power_iteration")
        eigh = counted(monkeypatch, np.linalg, "eigh")
        code, out, _ = run_cli(capsys, "--json", "verify", str(path), "--spectral", "--cheeger")
        assert code == 0 and json.loads(out)["bounds"]["all_hold"] is True
        assert len(cheeger) == len(power) == 1
        # one transmission table, plus the distance matrix of the power iteration
        assert len(sweeps) == 2
        assert len(eigh) == 2
        assert np.array_equal(eigh[0][0], invariants.laplacian_matrix(g))
        assert np.array_equal(eigh[1][0], invariants.normalized_laplacian_matrix(g))

    @pytest.mark.parametrize("g,args", [
        (gnm_connected(2000, 10000, seed=5), ("compute",)),
        (family("path", 999), ("compute",)),
        (family("torus", 4, 6), ("verify", "--spectral", "--cheeger", "--lp")),
        (family("petersen"), ("verify", "--spectral", "--cheeger", "--lp")),
    ], ids=["gnm2000-compute", "path999-compute", "torus4x6-verify", "petersen-verify"])
    def test_connectivity_bfs_runs_once(self, tmp_path, capsys, monkeypatch, g, args):
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        # every single-source traversal, from graph or invariants, is a graph._bfs call
        sweeps = counted(monkeypatch, graph, "_bfs")
        code, _, _ = run_cli(capsys, "--json", args[0], str(path), *args[1:])
        assert code == 0
        # one connectivity sweep plus the witness shells
        assert len(sweeps) <= 2

    @pytest.mark.parametrize("g", [family("path", 999), random_tree(1200, seed=20240801)],
                             ids=["path999", "tree1200"])
    def test_tree_compute_skips_all_sources_bfs(self, tmp_path, capsys, monkeypatch, g):
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        levels = counted(monkeypatch, graph, "_all_sources_levels")
        sweeps = counted(monkeypatch, graph, "_bfs")
        code, _, _ = run_cli(capsys, "--json", "compute", str(path))
        assert code == 0
        assert len(levels) == 0 and len(sweeps) <= 2


class TestGenerateAndProduct:
    def test_generate_cycle(self, tmp_path, capsys):
        out_path = tmp_path / "c6.txt"
        code, _, _ = run_cli(capsys, "generate", "--family", "cycle",
                             "--params", "6", "-o", str(out_path))
        assert code == 0
        g = read_edge_list(out_path)
        assert (g.n, g.m) == (6, 6)

    def test_generate_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "generate", "--family", "hamming", "--params", "2,3",
                "-o", str(a))
        run_cli(capsys, "generate", "--family", "hamming", "--params", "2,3",
                "-o", str(b))
        assert a.read_bytes() == b.read_bytes()
        g = read_edge_list(a)
        assert (g.n, g.m) == (9, 18)

    def test_generate_invalid_spec_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "generate", "--family", "cycle",
                             "--params", "2", "-o", str(tmp_path / "x.txt"))
        assert code == 2

    def test_generate_output_lines(self, tmp_path, capsys):
        out_path = str(tmp_path / "c6.txt")
        code, out, _ = run_cli(capsys, "--json", "generate", "--family", "cycle",
                               "--params", "6", "-o", out_path)
        assert code == 0
        assert out == json.dumps({"command": "generate", "family": "cycle(6)",
                                  "path": out_path, "n": 6, "m": 6}, indent=2) + "\n"
        code, out, _ = run_cli(capsys, "generate", "--family", "petersen", "-o", out_path)
        assert code == 0
        assert out == f"wrote petersen: n=10 m=15 -> {out_path}\n"
        assert read_edge_list(out_path) == family("petersen")

    def test_generate_refuses_what_the_reader_refuses(self, tmp_path, capsys):
        out_path = tmp_path / "p.txt"
        code, out, err = run_cli(capsys, "generate", "--family", "path",
                                 "--params", str(MAX_VERTICES + 1), "-o", str(out_path))
        assert (code, out) == (3, "")
        assert err == (f"error: edge-list files are capped at n <= {MAX_VERTICES},"
                       f" got n={MAX_VERTICES + 1}\n")
        assert not out_path.exists()

    def test_oversized_spec_refused_before_building(self, tmp_path, capsys, monkeypatch):
        # the vertex count follows from the parameters; building hypercube(40)
        # would ask for 2^40 vertices
        def never(spec):
            raise AssertionError(f"built {spec}")

        monkeypatch.setattr(cli, "generate", never)
        out_path = tmp_path / "q40.txt"
        code, out, err = run_cli(capsys, "generate", "--family", "hypercube",
                                 "--params", "40", "-o", str(out_path))
        assert (code, out) == (3, "")
        assert err == (f"error: edge-list files are capped at n <= {MAX_VERTICES},"
                       f" got n={2 ** 40}\n")
        assert not out_path.exists()
        code, out, err = run_cli(capsys, "bench", "--family", "path", "--sizes", "61",
                                 "--method", "lp")
        assert (code, out) == (3, "")
        assert "n <= 60" in err

    def test_product_refuses_before_building(self, tmp_path, capsys, monkeypatch):
        p1025 = tmp_path / "p1025.txt"
        write_edge_list(family("path", 1025), p1025)
        built = counted(monkeypatch, cli, "cartesian_product")
        out_path = tmp_path / "big.txt"
        code, out, err = run_cli(capsys, "product", str(p1025), str(p1025), "-o", str(out_path))
        assert (code, out) == (3, "")
        assert err == f"error: edge-list files are capped at n <= {MAX_VERTICES}, got n=1050625\n"
        assert built == [] and not out_path.exists()

    def test_product_three_edges_gives_cube(self, tmp_path, capsys):
        k2 = tmp_path / "k2.txt"
        write_edge_list(family("complete", 2), k2)
        out_path = tmp_path / "q3.txt"
        code, _, _ = run_cli(capsys, "product", str(k2), str(k2), str(k2),
                             "-o", str(out_path))
        assert code == 0
        assert read_edge_list(out_path) == family("hypercube", 3)

    def test_product_single_input_exit_2(self, tmp_path, capsys):
        k2 = tmp_path / "k2.txt"
        write_edge_list(family("complete", 2), k2)
        code, _, err = run_cli(capsys, "product", str(k2), "-o", str(tmp_path / "x.txt"))
        assert code == 2 and "2 input graphs" in err

    def test_product_grid(self, tmp_path, capsys):
        p2, p3 = tmp_path / "p2.txt", tmp_path / "p3.txt"
        write_edge_list(family("path", 2), p2)
        write_edge_list(family("path", 3), p3)
        out_path = tmp_path / "grid.txt"
        code, _, _ = run_cli(capsys, "product", str(p2), str(p3), "-o", str(out_path))
        assert code == 0
        g = read_edge_list(out_path)
        assert (g.n, g.m) == (6, 7)

    def test_product_output_lines(self, tmp_path, capsys):
        p2, p3 = tmp_path / "p2.txt", tmp_path / "p3.txt"
        write_edge_list(family("path", 2), p2)
        write_edge_list(family("path", 3), p3)
        out_path = str(tmp_path / "grid.txt")
        code, out, _ = run_cli(capsys, "--json", "product", str(p2), str(p3), "-o", out_path)
        assert code == 0
        assert out == json.dumps({"command": "product", "factors": [2, 3], "path": out_path,
                                  "n": 6, "m": 7}, indent=2) + "\n"
        code, out, _ = run_cli(capsys, "product", str(p2), str(p3), "-o", out_path)
        assert code == 0
        assert out == f"wrote product: n=6 m=7 -> {out_path}\n"


class TestBenchCommand:
    def test_cycles_agree(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bench", "--family", "cycle",
                               "--sizes", "6..8", "--method", "both")
        doc = json.loads(out)
        assert code == 0
        assert [r["size"] for r in doc["rows"]] == [6, 7, 8]
        assert all(r["agree"] for r in doc["rows"])

    def test_disagreeing_row_exit_1(self, capsys, monkeypatch):
        real = lp.gamma_lp_details

        def off_by_a_tenth(g):
            value, per_k, best_k = real(g)
            return value + 0.1, per_k, best_k

        monkeypatch.setattr(lp, "gamma_lp_details", off_by_a_tenth)
        code, out, _ = run_cli(capsys, "--json", "bench", "--family", "cycle",
                               "--sizes", "6..7", "--method", "both")
        assert code == 1
        assert [r["agree"] for r in json.loads(out)["rows"]] == [False, False]
        # without both methods no row is judged
        code, _, _ = run_cli(capsys, "bench", "--family", "cycle", "--sizes", "6",
                             "--method", "lp")
        assert code == 0

    def test_formula_only(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bench", "--family", "path",
                               "--sizes", "50", "--method", "formula")
        doc = json.loads(out)
        assert code == 0
        row = doc["rows"][0]
        assert row["lp_seconds"] is None and row["formula_gamma"] == pytest.approx(2 / 49)

    def test_lp_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.delenv("GAMMA_MAX_N", raising=False)
        code, _, _ = run_cli(capsys, "bench", "--family", "path",
                             "--sizes", "99", "--method", "lp")
        assert code == 3

    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--family", "cycle", "--sizes", "6..8")
        assert code == 0
        head, *rows = out.splitlines()
        assert head == "  size      n        m    formula_s         lp_s  agree"
        assert [row.split()[:3] + row.split()[5:] for row in rows] == [
            [str(k), str(k), str(k), "True"] for k in (6, 7, 8)]
        assert all(re.fullmatch(r" +\d+ +\d+ +\d+ +\d+\.\d{6} +\d+\.\d{6} +True", row)
                   for row in rows)
        code, out, _ = run_cli(capsys, "bench", "--family", "path", "--sizes", "5",
                               "--method", "formula")
        assert code == 0
        assert re.fullmatch(r" +5 +5 +4 +\d+\.\d{6} +- +-", out.splitlines()[1])

    def test_unsupported_family_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--family", "torus", "--sizes", "5")
        assert (code, out) == (2, "")
        assert err == ("error: bench supports single-parameter families"
                       " ('path', 'cycle', 'complete', 'star', 'hypercube')\n")

    def test_no_sizes_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--family", "path", "--sizes", ",")
        assert (code, out, err) == (2, "", "error: no sizes given\n")

    def test_cap_override_leaves_the_lp_cap(self, capsys, monkeypatch):
        # GAMMA_MAX_N sets the exact-expansion cap only
        monkeypatch.setenv("GAMMA_MAX_N", "30")
        code, out, _ = run_cli(capsys, "--json", "bench", "--family", "cycle",
                               "--sizes", "40", "--method", "both")
        assert code == 0
        assert json.loads(out)["rows"][0]["agree"] is True
        monkeypatch.setenv("GAMMA_MAX_N", "100")
        code, _, err = run_cli(capsys, "bench", "--family", "path",
                               "--sizes", "99", "--method", "lp")
        assert code == 3
        assert "n <= 60" in err and "GAMMA_MAX_N" not in err

    def test_malformed_cap_override_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("GAMMA_MAX_N", "x")
        code, _, _ = run_cli(capsys, "--json", "bench", "--family", "path",
                             "--sizes", "50", "--method", "formula")
        assert code == 0

    def test_complete_per_k_constant(self, capsys):
        # every pinned vertex of a complete graph yields the same optimum
        from gammaconn.lp import gamma_lp_details

        _, per_k, _ = gamma_lp_details(family("complete", 8))
        assert all(abs(v - 8 / 7) <= 1e-6 for v in per_k)
