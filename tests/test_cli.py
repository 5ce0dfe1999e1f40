import json

import numpy as np
import pytest

from gammaconn import generate, graph, invariants
from gammaconn.cli import main
from gammaconn.edgelist import (
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from gammaconn.errors import EdgeListParseError
from gammaconn.random_graphs import gnm_connected

from conftest import family, small_family_corpus


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
    ])
    def test_parse_errors_carry_line_numbers(self, doc, fragment):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(doc)
        assert fragment in str(exc.value)
        assert exc.value.line_no >= 1


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


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


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
