"""Tests for the command-line interface: commands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import digsym
from digsym import symmetry, verify
from digsym.cli import main
from digsym.construct import circuit, complete, paley_tournament
from digsym.digraph import build, from_text, to_text
from digsym.errors import SearchBudgetExceeded
from digsym.perm import parse_cycles, write_permutations
from digsym.symmetry import automorphism_group


@pytest.fixture
def paley_file(tmp_path):
    path = tmp_path / "p7.dg"
    path.write_text(to_text(paley_tournament(7)))
    return str(path)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "c6.dg"
    path.write_text(to_text(circuit(6)))
    return str(path)


class TestAnalyze:
    def test_circuit(self, circuit_file, capsys):
        assert main(["analyze", circuit_file]) == 0
        out = capsys.readouterr().out
        assert "aut_order=6" in out
        assert "diameter=5" in out
        assert "max_geodesic_s=5" in out

    def test_paley(self, paley_file, capsys):
        assert main(["analyze", paley_file]) == 0
        out = capsys.readouterr().out
        assert "aut_order=21" in out
        assert "max_arc_s=1" in out
        assert "max_geodesic_s=1" in out
        assert "girth=3" in out

    def test_not_strongly_connected_is_reported_not_crashed(self, tmp_path, capsys):
        path = tmp_path / "line.dg"
        path.write_text("n 2\n0 1\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "strongly_connected=false" in out

    def test_empty_digraph_neither_vertex_nor_distance_transitive(self, tmp_path, capsys):
        path = tmp_path / "empty.dg"
        path.write_text("n 0\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vertex_transitive=false" in out
        assert "distance_transitive=false" in out

    def test_malformed_line_cites_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.dg"
        path.write_text("n 3\n0 1\nzzz\n")
        assert main(["analyze", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.dg"]) == 2

    def test_irregular_digraph_prints_valency_none(self, tmp_path, capsys):
        path = tmp_path / "nvt.dg"
        path.write_text("n 4\n0 1\n1 2\n2 0\n2 3\n3 0\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valency=none\ngirth=3\n" in out

    def test_exhausted_search_budget_incomplete(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c7.dg"
        path.write_text(to_text(circuit(7)))
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith(
            "diameter=6\nincomplete (automorphism search exceeded 1 nodes)\n"
        )
        assert captured.err == ""


class TestCayley:
    def test_analyze_paley(self, capsys):
        assert main(["cayley", "--group", "cyclic:7", "--conn", "1,2,4", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "group_order=21" in out
        assert "max_arc_s=1" in out

    def test_python_m_digsym_matches_main(self, capsys):
        argv = ["cayley", "--group", "cyclic:7", "--conn", "1,2,4", "--analyze"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        src = str(Path(digsym.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "digsym", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    def test_plain_file_and_cayley_digraph_give_the_same_counts(self, tmp_path, capsys):
        # `analyze` reads a plain file and searches from the color
        # refinement; `cayley --analyze` starts from R(T).  The order and
        # every orbit count agree.
        argv = ["cayley", "--group", "cyclic:12", "--conn", "1,4,7,10"]
        path = tmp_path / "z12.dg"
        assert main([*argv, "--emit", str(path)]) == 0
        assert main(["analyze", str(path)]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main([*argv, "--analyze"]) == 0
        seeded = capsys.readouterr().out.splitlines()
        assert "aut_order=41472" in plain and "group_order=41472" in seeded
        orbits = [line for line in plain if line.startswith("orbits[")]
        assert len(orbits) == 7
        assert orbits == [line for line in seeded if line.startswith("orbits[")]

    def test_analyze_exhausted_search_budget_incomplete(self, capsys, monkeypatch):
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        assert main(["cayley", "--group", "cyclic:7", "--conn", "1,2,4", "--analyze"]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "group=cyclic:7\nconn=1,2,4\ngenerates=true\n"
            "incomplete (automorphism search exceeded 1 nodes)\n"
        )
        assert captured.err == ""

    def test_analyze_not_strongly_connected_before_any_search(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(symmetry, "automorphism_group", no_search)
        assert main(["cayley", "--group", "cyclic:6", "--conn", "2", "--analyze"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "group=cyclic:6\nconn=2\ngenerates=false\n"
        assert captured.err == "error: transitivity reports need strong connectivity\n"

    def test_emit_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "c5.dg"
        assert main(["cayley", "--group", "cyclic:5", "--conn", "1", "--emit", str(out_path)]) == 0
        g = from_text(out_path.read_text())
        assert g.arcs == circuit(5).arcs

    def test_emit_to_stdout(self, capsys):
        for emit in ([], ["--emit", "-"]):
            assert main(["cayley", "--group", "cyclic:5", "--conn", "1", *emit]) == 0
            g = from_text(capsys.readouterr().out)
            assert g.arcs == circuit(5).arcs, emit

    @pytest.mark.parametrize("flags", [["--emit"], ["--analyze", "--emit", "c5.dg"]])
    def test_emit_usage_errors(self, tmp_path, monkeypatch, capsys, flags):
        # --emit takes a file, and --analyze writes none.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["cayley", "--group", "cyclic:5", "--conn", "1", *flags])
        assert exc.value.code == 2
        assert "--emit" in capsys.readouterr().err
        assert not (tmp_path / "c5.dg").exists()

    def test_identity_in_connection_set(self, capsys):
        assert main(["cayley", "--group", "cyclic:5", "--conn", "0"]) == 2
        assert "IdentityInConnectionSet" in capsys.readouterr().err

    def test_antisymmetry_violation(self, capsys):
        assert main(["cayley", "--group", "cyclic:5", "--conn", "1,4"]) == 2

    def test_non_integer_group_argument_named(self, capsys):
        assert main(["cayley", "--group", "dihedral:y", "--conn", "1"]) == 2
        assert "dihedral:y" in capsys.readouterr().err

    def test_non_integer_connection_element_named(self, capsys):
        assert main(["cayley", "--group", "cyclic:7", "--conn", "1,a"]) == 2
        assert "'a'" in capsys.readouterr().err


class TestQuotient:
    def test_c6_mod_rot3(self, circuit_file, tmp_path, capsys):
        group_file = tmp_path / "group.perm"
        group_file.write_text(write_permutations(6, [parse_cycles("(0 1 2 3 4 5)", 6)]))
        normal_file = tmp_path / "normal.perm"
        normal_file.write_text(write_permutations(6, [parse_cycles("(0 3)(1 4)(2 5)", 6)]))
        prefix = str(tmp_path / "out")
        code = main(["quotient", circuit_file, str(group_file), str(normal_file),
                     "--out-prefix", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "symmetry_class=directed" in out
        assert "orbits=3" in out
        quotient = from_text((tmp_path / "out.quotient").read_text())
        assert quotient.arcs == circuit(3).arcs
        blocks = (tmp_path / "out.blocks").read_text().split()
        assert blocks == ["0", "0", "1", "1", "2", "2", "3", "0", "4", "1", "5", "2"]

    def test_non_normal_rejected(self, circuit_file, tmp_path, capsys):
        group_file = tmp_path / "group.perm"
        group_file.write_text(write_permutations(6, [parse_cycles("(0 1 2 3 4 5)", 6)]))
        bad = tmp_path / "bad.perm"
        bad.write_text(write_permutations(6, [parse_cycles("(0 1)", 6)]))
        assert main(["quotient", circuit_file, str(group_file), str(bad)]) == 2

    def test_subgroup_not_normal_rejected(self, tmp_path, capsys):
        # (0 1) lies in S4 = Aut(K4) but is not normal there.
        k4 = tmp_path / "k4.dg"
        k4.write_text(to_text(complete(4)))
        group = automorphism_group(complete(4))
        transposition = parse_cycles("(0 1)", 4)
        assert group.order() == 24 and group.contains(transposition)
        group_file = tmp_path / "s4.perm"
        group_file.write_text(write_permutations(4, group.generators))
        normal_file = tmp_path / "t.perm"
        normal_file.write_text(write_permutations(4, [transposition]))
        assert main(["quotient", str(k4), str(group_file), str(normal_file),
                     "--out-prefix", str(tmp_path / "out")]) == 2
        assert "NotNormal" in capsys.readouterr().err
        assert not (tmp_path / "out.quotient").exists()

    def test_group_must_be_automorphisms(self, circuit_file, tmp_path, capsys):
        group_file = tmp_path / "group.perm"
        group_file.write_text(write_permutations(6, [parse_cycles("(0 1)", 6)]))
        normal_file = tmp_path / "normal.perm"
        normal_file.write_text(write_permutations(6, [parse_cycles("(0 1)", 6)]))
        assert main(["quotient", circuit_file, str(group_file), str(normal_file)]) == 2
        assert "NotAutomorphismGroup" in capsys.readouterr().err


class TestCheck:
    def test_small_valency_on_paley(self, paley_file, capsys):
        assert main(["check", "--id", "T1.4i", paley_file]) == 0
        assert "T1.4i: pass" in capsys.readouterr().out

    def test_arc_local_batch(self, paley_file, capsys):
        assert main(["check", "--id", "L2.1", paley_file]) == 0
        out = capsys.readouterr().out
        assert "L2.1.1: pass" in out and "L4.1: pass" in out

    def test_sub_id_filter(self, paley_file, capsys):
        assert main(["check", "--id", "L4.1", paley_file]) == 0
        out = capsys.readouterr().out
        assert "L4.1: pass" in out and "L2.1.1" not in out

    def test_explicit_normal_subgroup(self, circuit_file, tmp_path, capsys):
        normal_file = tmp_path / "normal.perm"
        normal_file.write_text(write_permutations(6, [parse_cycles("(0 3)(1 4)(2 5)", 6)]))
        assert main(["check", "--id", "L3.1", circuit_file, "--normal", str(normal_file)]) == 0
        assert "L3.1: pass" in capsys.readouterr().out

    def test_transitive_normal_not_applicable(self, circuit_file, tmp_path, capsys):
        normal_file = tmp_path / "normal.perm"
        normal_file.write_text(write_permutations(6, [parse_cycles("(0 1 2 3 4 5)", 6)]))
        assert main(["check", "--id", "L3.1", circuit_file, "--normal", str(normal_file)]) == 0
        assert "not_applicable" in capsys.readouterr().out

    def test_normal_with_other_id_is_usage_error(self, circuit_file, tmp_path, capsys):
        normal_file = tmp_path / "normal.perm"
        normal_file.write_text(write_permutations(6, [parse_cycles("(0 2 4)(1 3 5)", 6)]))
        assert main(["check", "--id", "T1.4i", circuit_file, "--normal", str(normal_file)]) == 2
        captured = capsys.readouterr()
        assert "--normal" in captured.err and "T1.4i:" not in captured.out

    @pytest.mark.parametrize("check_id", verify.SUBGROUP_CHECK_IDS)
    def test_normal_of_another_degree_is_usage_error(self, tmp_path, capsys, check_id):
        c3 = tmp_path / "c3.dg"
        c3.write_text(to_text(circuit(3)))
        normal_file = tmp_path / "g4.perm"
        normal_file.write_text(write_permutations(4, [parse_cycles("(0 1 2 3)", 4)]))
        assert main(["check", "--id", check_id, str(c3), "--normal", str(normal_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: DegreeMismatch: degree 4 != 3\n"

    def test_undirected_digraph_meets_the_guard(self, tmp_path, capsys):
        k4 = tmp_path / "k4.dg"
        k4.write_text(to_text(complete(4)))
        assert main(["check", "--id", "T1.2", str(k4)]) == 0
        assert capsys.readouterr().out == "T1.2: not_applicable (not a directed-class digraph)\n"

    @pytest.mark.parametrize(
        "digraph, line",
        [
            (build(3, [(0, 1), (1, 2)]), "report: not_applicable (not strongly connected)"),
            (complete(4), "report: not_applicable (not a directed-class digraph)"),
        ],
    )
    def test_report_meets_the_guards(self, tmp_path, capsys, digraph, line):
        path = tmp_path / "g.dg"
        path.write_text(to_text(digraph))
        assert main(["check", "--id", "report", str(path)]) == 0
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize(
        "text, notes",
        [
            ("n 4\n0 1\n1 2\n2 0\n2 3\n3 0\n", "valency=none diameter=3 girth=3"),
            ("n 1\n", "valency=0 diameter=0 girth=none"),
        ],
        ids=["irregular", "no-cycle"],
    )
    def test_report_prints_missing_values_as_none(self, tmp_path, capsys, text, notes):
        path = tmp_path / "g.dg"
        path.write_text(text)
        assert main(["check", "--id", "report", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"report: pass ({notes} |Aut|=1 max_arc_s=0 max_geodesic_s=0)\n"
        )

    def test_undirected_digraph_meets_the_guard_with_normal(self, tmp_path, capsys):
        k4 = tmp_path / "k4.dg"
        k4.write_text(to_text(complete(4)))
        normal_file = tmp_path / "normal.perm"
        normal_file.write_text(write_permutations(4, [parse_cycles("(0 1 2 3)", 4)]))
        assert main(["check", "--id", "L3.1", str(k4), "--normal", str(normal_file)]) == 0
        assert capsys.readouterr().out == "L3.1: not_applicable (not a directed-class digraph)\n"

    def test_regular_automorphism_group_of_circuit(self, circuit_file, capsys):
        # Aut of a circuit is regular, so T1.2 has a source without a Cayley spec.
        assert main(["check", "--id", "T1.2", circuit_file]) == 0
        assert "T1.2: pass" in capsys.readouterr().out

    def test_incomplete_check_exits_1(self, paley_file, capsys, monkeypatch):
        def over_budget(facts):
            raise SearchBudgetExceeded("automorphism search exceeded 1 nodes")

        monkeypatch.setitem(verify._CHECKS, "T1.4i", over_budget)
        assert main(["check", "--id", "T1.4i", paley_file]) == 1
        assert "T1.4i: incomplete" in capsys.readouterr().out

    def test_exhausted_search_budget_incomplete(self, paley_file, capsys, monkeypatch):
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        assert main(["check", "--id", "T1.4i", paley_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "T1.4i: incomplete (automorphism search exceeded 1 nodes)\n"
        assert captured.err == ""

    def test_unknown_id(self, paley_file, capsys):
        assert main(["check", "--id", "T9.9", paley_file]) == 2

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--id", "T9.9"], "error: BadParameter: unknown check 'T9.9'\n"),
            (["--id", "L4.1", "--normal", "missing.perm"],
             "error: BadParameter: --normal (normal=) applies only to L3.1, L3.2, T1.1, T1.2\n"),
        ],
        ids=["unknown-id", "normal-with-sub-id"],
    )
    def test_usage_error_before_any_file_is_read(self, tmp_path, capsys, argv, err):
        assert main(["check", *argv, str(tmp_path / "missing.dg")]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)

    def test_sub_id_of_an_incomplete_batch(self, tmp_path, capsys, monkeypatch):
        def over_budget(facts):
            raise SearchBudgetExceeded("automorphism search exceeded 1 nodes")

        monkeypatch.setitem(verify._CHECKS, "L2.1", over_budget)
        c3 = tmp_path / "c3.dg"
        c3.write_text(to_text(circuit(3)))
        assert main(["check", "--id", "L4.1", str(c3)]) == 1
        assert capsys.readouterr().out == (
            "L4.1: incomplete (automorphism search exceeded 1 nodes)\n"
        )

    def test_exhausted_search_gives_every_batch_id(self, paley_file, capsys, monkeypatch):
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        assert main(["check", "--id", "L2.1", paley_file]) == 1
        assert capsys.readouterr().out == "".join(
            f"{cid}: incomplete (automorphism search exceeded 1 nodes)\n"
            for cid in verify.ARC_LOCAL_IDS
        )


class TestSurvey:
    def config_file(self, tmp_path, **overrides):
        data = {
            "circulant_orders": [4, 5, 6],
            "min_valency": 2,
            "max_valency": 5,
            "max_vertices": 6,
            "checks": ["report", "T1.4i"],
        }
        data.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_small_survey(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["survey", "--config", self.config_file(tmp_path), "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["fail"] == 0
        assert payload["records"]

    def test_byte_identical_reruns(self, tmp_path):
        config = self.config_file(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["survey", "--config", config, "--out", str(out_a)])
        main(["survey", "--config", config, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"checks": ["report"]}))
        assert main(["survey", "--config", str(path)]) == 2

    def test_bad_paley_entry_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"paley_primes": [7, 9]}))
        assert main(["survey", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Paley" in err and "got 9" in err

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"circulant_ordrs": [5]}, "circulant_ordrs"),
            ({"circulant_orders": 5}, "circulant_orders"),
            ({"cayley_groups": ["cyclic:x"]}, "cyclic:x"),
            ([{"circulant_orders": [5]}], "JSON object"),
            ({"circulant_orders": [5], "min_valency": "2"}, "min_valency"),
            ({"circulant_orders": ["5"]}, "circulant_orders"),
            ({"cayley_groups": [5]}, "cayley_groups"),
            ({"circulant_orders": [5], "parallelism": 1.5}, "parallelism"),
            ({"circulant_orders": [5], "seed": True}, "seed"),
            ({"circulant_orders": [5], "checks": []}, "checks"),
            ({"circulant_orders": [5], "min_valency": 2, "max_valency": 2,
              "checks": ["report", "report"]}, "repeats ['report']"),
        ],
    )
    def test_malformed_config_named(self, tmp_path, capsys, data, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["survey", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_bad_search_budget_env_named(self, tmp_path, capsys, monkeypatch):
        for value in ("abc", "0", "-3"):
            monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", value)
            assert main(["survey", "--config", self.config_file(tmp_path)]) == 2, value
            assert "DIGSYM_SEARCH_BUDGET" in capsys.readouterr().err, value

    def test_incomplete_records_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        config = self.config_file(
            tmp_path, circulant_orders=[5, 6, 7], min_valency=2, max_valency=2,
            max_vertices=7,
        )
        out_path = tmp_path / "report.json"
        assert main(["survey", "--config", config, "--out", str(out_path)]) == 1
        summary = json.loads(out_path.read_text())["summary"]
        assert summary["fail"] == 0 and summary["incomplete"] > 0

    def test_exhausted_budget_tally_has_the_record_ids(self, tmp_path, capsys, monkeypatch):
        # 8 of the 20 instances run out of search budget: each gives one
        # incomplete record per record id, so every row counts 20 records.
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        config = self.config_file(
            tmp_path, circulant_orders=[8], min_valency=2, max_valency=3, max_vertices=14,
            checks=list(verify.CHECK_IDS),
        )
        assert main(["survey", "--config", config]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "instances: 20"
        rows = {line.split()[0]: [int(x) for x in line.split()[1:]] for line in lines[2:17]}
        assert sorted(rows) == sorted({*verify.CHECK_IDS, *verify.ARC_LOCAL_IDS} - {"L2.1"})
        assert all(sum(row) == 20 for row in rows.values())
        assert rows["SC"] == [0, 0, 12, 8]

    def test_error_records_exit_1(self, tmp_path, capsys, monkeypatch):
        generate = verify.generate_descriptors
        monkeypatch.setattr(
            verify, "generate_descriptors", lambda c: generate(c) + [("circulant", 6, (1, 5))]
        )
        config = self.config_file(tmp_path, circulant_orders=[5], min_valency=2, max_valency=2)
        out_path = tmp_path / "report.json"
        assert main(["survey", "--config", config, "--out", str(out_path)]) == 1
        summary = json.loads(out_path.read_text())["summary"]
        assert summary["fail"] == summary["incomplete"] == 0 and summary["error"] > 0
        assert "ERROR ('circulant', 6, (1, 5))" in capsys.readouterr().out

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["survey", "--config", str(path)]) == 2


class TestUnreadableInput:
    """A directory or a non-UTF-8 file is a file problem: exit 2, path named."""

    @staticmethod
    def unreadable(tmp_path, kind):
        if kind == "directory":
            return str(tmp_path)
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe")
        return str(path)

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{}"],
            ["survey", "--config", "{}"],
            ["cayley", "--group", "table:{}", "--conn", "1"],
        ],
        ids=["analyze", "survey_config", "cayley_table"],
    )
    def test_exit_2_names_path(self, tmp_path, capsys, argv, kind):
        path = self.unreadable(tmp_path, kind)
        assert main([arg.format(path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err

    def test_missing_file_named(self, capsys):
        assert main(["check", "--id", "T1.4i", "/nonexistent/file.dg"]) == 2
        assert "/nonexistent/file.dg" in capsys.readouterr().err


class TestUnwritableOutput:
    """An output path that is a directory is a file problem: exit 2, with an
    error line and no traceback."""

    def test_survey_out_directory(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"circulant_orders": [5], "min_valency": 2, "max_valency": 2}))
        assert main(["survey", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_cayley_emit_directory(self, tmp_path, capsys):
        assert main(["cayley", "--group", "cyclic:5", "--conn", "1", "--emit", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_quotient_output_directory(self, circuit_file, tmp_path, capsys):
        group_file = tmp_path / "group.perm"
        group_file.write_text(write_permutations(6, [parse_cycles("(0 1 2 3 4 5)", 6)]))
        normal_file = tmp_path / "normal.perm"
        normal_file.write_text(write_permutations(6, [parse_cycles("(0 3)(1 4)(2 5)", 6)]))
        (tmp_path / "out.quotient").mkdir()
        argv = ["quotient", circuit_file, str(group_file), str(normal_file),
                "--out-prefix", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "out.quotient" in err


class TestRoundTrips:
    def test_digraph_file_round_trip(self, tmp_path):
        g = paley_tournament(11)
        path = tmp_path / "p11.dg"
        path.write_text(to_text(g))
        assert from_text(path.read_text()) == g

    def test_permutation_file_round_trip(self, tmp_path):
        from digsym.perm import read_permutations

        perms = [parse_cycles("(0 1 2)(3 4)", 6), parse_cycles("(5 0)", 6)]
        text = write_permutations(6, perms)
        degree, back = read_permutations(text)
        assert degree == 6 and back == perms
