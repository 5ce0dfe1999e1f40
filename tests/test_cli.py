import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaconn import edgelist, generate, graph, invariants, lp
from gammaconn.cli import main
from gammaconn.edgelist import (
    MAX_VERTICES,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from gammaconn.errors import EdgeListParseError
from gammaconn.random_graphs import gnm_connected

from conftest import counted, family, small_family_corpus


# small vertex ids and counts, or ones past the header cap, so no header
# that parses asks for a large graph
EDGE_LIST_TOKEN = st.sampled_from([str(i) for i in range(51)] + ["-1", "-7", "-50"]
                                  + [str(MAX_VERTICES + 1), str(2 ** 63 - 1), str(10 ** 23)]
                                  + ["x", "n", "1.5", "0x1", "#", "# note", ""])
# half the lines have the two tokens of a header or an edge
EDGE_LIST_LINE = st.one_of(st.lists(EDGE_LIST_TOKEN, min_size=2, max_size=2),
                           st.lists(EDGE_LIST_TOKEN, max_size=4))


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

    def test_cap_override_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAMMA_MAX_N", "30")
        path = tmp_path / "c26.txt"
        write_edge_list(family("cycle", 26), path)
        code, out, _ = run_cli(capsys, "--json", "compute", str(path), "--cheeger")
        assert code == 0
        assert json.loads(out)["invariants"]["cheeger"]["value"] == pytest.approx(2 / 26)


class TestVerifyCommand:
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
        monkeypatch.setattr(lp, "b_small_oracle", lambda *a, **k: calls.append((a, k)) or 0.0)
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
        in_graph = counted(monkeypatch, graph, "_bfs")
        in_invariants = counted(monkeypatch, invariants, "_bfs")
        code, _, _ = run_cli(capsys, "--json", args[0], str(path), *args[1:])
        assert code == 0
        # one connectivity sweep plus the witness shells
        assert len(in_graph) + len(in_invariants) <= 2


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


class TestBenchCommand:
    def test_cycles_agree(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bench", "--family", "cycle",
                               "--sizes", "6..8", "--method", "both")
        doc = json.loads(out)
        assert code == 0
        assert [r["size"] for r in doc["rows"]] == [6, 7, 8]
        assert all(r["agree"] for r in doc["rows"])

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

    def test_complete_per_k_constant(self, capsys):
        # every pinned vertex of a complete graph yields the same optimum
        from gammaconn.lp import gamma_lp_details

        _, per_k, _, _ = gamma_lp_details(family("complete", 8))
        assert all(abs(v - 8 / 7) <= 1e-6 for v in per_k)
