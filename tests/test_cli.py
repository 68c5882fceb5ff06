import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from sumsetlab import (BoundMode, BoundReport, bound, dumps_points, gen_wild, loads_points,
                       minkowski_sum)
from sumsetlab.cli import _MODE_CHOICES, main
from sumsetlab.errors import ConsistencyError

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, stdin_text=""):
    """Invoke main() in-process, capturing stdout; returns (exit, stdout)."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


class TestPipelines:
    def test_gen_wild_into_bound_subprocess(self):
        gen = subprocess.run([sys.executable, "-m", "sumsetlab", "gen", "wild", "--x", "4"],
                             capture_output=True, text=True)
        assert gen.returncode == 0
        rep = subprocess.run([sys.executable, "-m", "sumsetlab", "bound", "--mode", "sections"],
                             input=gen.stdout, capture_output=True, text=True)
        assert rep.returncode == 0
        payload = json.loads(rep.stdout)
        assert payload["lhs"] == payload["rhs"] == "17"
        assert payload["extremal"] is True

    def test_bound_report_bytes_with_approx(self):
        """Pinned: the report's keys in order, as json.dumps prints them."""
        _, stream = run_cli(["gen", "wild", "--x", "9/2"])
        code, out = run_cli(["bound", "--mode", "sections", "--approx"], stream)
        want = {"mode": "sections", "m": 1, "n": 4, "lhs": "17", "rhs": "17", "gap": "0",
                "extremal": True, "approx": {"lhs": 17.0, "rhs": 17.0, "gap": 0.0}}
        assert (code, out) == (0, json.dumps(want, indent=2) + "\n")

    def test_gen_file_load_check_matches_in_memory(self, tmp_path):
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        code, _ = run_cli(["gen", "wild", "--x", "5",
                           "--out-a", str(pa), "--out-b", str(pb)])
        assert code == 0
        code, out = run_cli(["bound", "--mode", "sections", "--a", str(pa), "--b", str(pb)])
        assert code == 0
        in_memory = bound(BoundMode.SECTIONS_GS, *gen_wild(5)).to_json_dict()
        assert json.loads(out) == in_memory

    def test_compress_stream_pipes_into_bound(self):
        _, stream = run_cli(["gen", "wild", "--x", "4"])
        code, compressed = run_cli(["compress"], stdin_text=stream)
        assert code == 0
        code, out = run_cli(["bound", "--mode", "lines"], stdin_text=compressed)
        assert code == 0
        payload = json.loads(out)
        assert payload["extremal"] is True  # compression preserves the bound value

    def test_sumset_command(self):
        _, stream = run_cli(["gen", "wild", "--x", "4"])
        code, out = run_cli(["sumset"], stdin_text=stream)
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 17
        assert loads_points(payload["points"]) == minkowski_sum(*gen_wild(4))


class TestChecks:
    def test_check_thm3_on_generated_pair(self):
        _, stream = run_cli(["gen", "case-c", "--m", "4", "--n", "4", "--k", "7"])
        code, out = run_cli(["check", "thm3"], stdin_text=stream)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "CaseCPair"
        assert payload["spec"] == {"m": 4, "n": 4, "k": 7}

    def test_check_thm2_trapezoids(self):
        _, a = run_cli(["gen", "trapezoid", "--m", "2", "--h", "2", "--c", "0", "--d", "0"])
        _, b = run_cli(["gen", "trapezoid", "--m", "3", "--h", "2", "--c", "0", "--d", "0"])
        stream = a + b.replace("# set: A", "# set: B")
        code, out = run_cli(["check", "thm2"], stdin_text=stream)
        assert code == 0
        assert json.loads(out)["verdict"] == "TrapezoidPair"

    def test_check_split(self):
        _, stream = run_cli(["gen", "case-c", "--m", "4", "--n", "4", "--k", "7"])
        code, out = run_cli(["check", "split"], stdin_text=stream)
        assert code == 0
        assert json.loads(out)["split_extremal"] is True

    def test_check_split_on_an_empty_set_names_split_check(self, capsys):
        stream = "# set: A\n# set: B\n0 0\n1 0\n"
        assert run_cli(["check", "split"], stdin_text=stream) == (2, "")
        assert capsys.readouterr().err == "error: split_check needs nonempty sets\n"

    def test_check_1d(self):
        stream = "# set: A\n0 0\n1 0\n2 0\n# set: B\n0 5\n1 5\n"
        code, out = run_cli(["check", "1d"], stdin_text=stream)
        assert code == 0
        payload = json.loads(out)
        assert payload["equality"] is True and payload["ap_case"] is True

    def test_check_thm2_on_crossing_lines_names_its_hypothesis(self, capsys):
        # a horizontal and a vertical segment: collinear, but not parallel
        stream = "# set: A\n0 0\n1 0\n# set: B\n0 0\n0 1\n"
        assert run_cli(["check", "thm2"], stdin_text=stream) == (2, "")
        assert capsys.readouterr().err == \
            "error: thm2 needs two 2D sets or collinear sets on parallel lines\n"

    def test_check_thm3_wild_regime_is_input_error(self):
        _, stream = run_cli(["gen", "wild", "--x", "4"])
        code, _ = run_cli(["check", "thm3"], stdin_text=stream)
        assert code == 2

    def test_check_continuous(self):
        stream = "# set: A\n0 0\n1 0\n1 2\n0 2\n# set: B\n0 0\n2 0\n2 1\n0 1\n"
        code, out = run_cli(["check", "continuous"], stdin_text=stream)
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["extremal"] is True
        assert payload["certificate"]["ratio"] == "1/2"


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        code, out = run_cli(["sweep", "--grid", "2x2", "--mode", "sections",
                             "--csv", str(csv)])
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == [] and payload["unclassified"] == []
        assert "pairs_checked,100" in csv.read_text()

    def test_sharded_matches_plain(self):
        code1, out1 = run_cli(["sweep", "--grid", "2x2", "--mode", "lines"])
        code2, out2 = run_cli(["sweep", "--grid", "2x2", "--mode", "lines",
                               "--shards", "3", "--jobs", "2"])
        assert code1 == code2 == 0
        assert json.loads(out1) == json.loads(out2)

    def test_3x4_sections_report_pinned(self, tmp_path):
        # the smallest sweep that reaches EpsTrapezoidPair
        csv = tmp_path / "sweep.csv"
        code, out = run_cli(["sweep", "--grid", "3x4", "--mode", "sections",
                             "--min-mn", "2", "--max-size-b", "3", "--csv", str(csv)])
        assert code == 0
        assert json.loads(out) == {
            "pairs_checked": 146430,
            "violations": [],
            "extremal_count": 194,
            "classified_tally": {"EpsTrapezoidPair": 8, "OneDimensional": 5,
                                 "OutOfHypothesis": 111, "TrapezoidPair": 70},
            "unclassified": [],
            "wild_regime_count": 0,
        }
        assert csv.read_text() == (
            "metric,value\npairs_checked,146430\nextremal_count,194\n"
            "wild_regime_count,0\nviolations,0\nunclassified,0\n"
            "tally.EpsTrapezoidPair,8\ntally.OneDimensional,5\n"
            "tally.OutOfHypothesis,111\ntally.TrapezoidPair,70\n")

    @pytest.mark.parametrize("cap", [["--max-size-a", "0"], ["--max-size-a", "-1"],
                                     ["--max-size-b", "0"]])
    def test_size_cap_below_one_exit_2(self, cap, capsys):
        code, out = run_cli(["sweep", "--grid", "2x2", "--mode", "lines", *cap])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: max_size_a and max_size_b must be >= 1\n"

    @pytest.mark.parametrize("jobs", [["0"], ["-3"], ["0", "--shard-index", "0"]],
                             ids=" ".join)
    def test_jobs_below_one_exit_2(self, jobs, capsys):
        code, out = run_cli(["sweep", "--grid", "2x2", "--mode", "lines", "--jobs", *jobs])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"

    def test_single_shard_run(self):
        code, out = run_cli(["sweep", "--grid", "2x2", "--mode", "lines",
                             "--shards", "2", "--shard-index", "1"])
        assert code == 0
        assert json.loads(out)["pairs_checked"] < 100


class TestPolyCommands:
    RECTS = "# set: A\n0 0\n1 0\n1 2\n0 2\n# set: B\n0 0\n2 0\n2 1\n0 1\n"

    def test_poly_sum_stream(self):
        code, out = run_cli(["poly", "sum"], stdin_text=self.RECTS)
        assert code == 0
        assert "3 3" in out

    def test_poly_report(self):
        code, out = run_cli(["poly", "report"], stdin_text=self.RECTS)
        assert code == 0
        payload = json.loads(out)
        assert payload["extremal"] is True and payload["bonnesen_rhs"] == "9"

    def test_poly_stretch(self):
        code, out = run_cli(["poly", "stretch", "--input", "-", "--amount", "3/2"],
                            stdin_text="0 0\n2 0\n0 2\n")
        assert code == 0
        assert "0 7/2" in out

    def test_poly_decompose(self):
        code, out = run_cli(["poly", "decompose"], stdin_text=self.RECTS)
        assert code == 0
        assert json.loads(out)["certificate"]["amount_a"] == "2"

    def test_poly_partition(self):
        code, out = run_cli(["poly", "partition", "--k", "3"], stdin_text=self.RECTS)
        assert code == 0
        assert json.loads(out) == {"k": 3, "all_extremal": True}

    def test_poly_graph_bounds(self):
        stream = "# set: A\n0 0\n2 0\n2 2\n0 2\n# set: B\n0 0\n1 0\n1 1\n0 1\n"
        code, out = run_cli(["poly", "graph-bounds"], stdin_text=stream)
        assert code == 0
        assert json.loads(out)["delta"] == "0"


class TestLemmaAvg:
    def test_equality_instance(self):
        code, out = run_cli(["lemma-avg", "--a", "0=1,1=2", "--b", "0=3,1=4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["equality"] is True and payload["full_mean"] == "5"

    def test_rational_entries(self):
        code, out = run_cli(["lemma-avg", "--a", "0=1/2", "--b", "0=1,2=7"])
        assert code == 0
        assert json.loads(out)["equality"] is True

    def test_report_bytes_with_approx(self):
        """Pinned: the report's keys in order, as json.dumps prints them."""
        code, out = run_cli(["lemma-avg", "--a", "0=0,1/2=5", "--b", "0=7/3", "--approx"])
        third = 4.833333333333333
        want = {"u_values": {"0": "7/3", "1/2": "22/3"}, "u_plus_mean": "29/6",
                "full_mean": "29/6", "rhs": "29/6", "equality": True, "ap_condition": True,
                "approx": {"u_plus_mean": third, "full_mean": third, "rhs": third}}
        assert (code, out) == (0, json.dumps(want, indent=2) + "\n")

    @pytest.mark.parametrize("a", ["0=1,0=5,1=3", "0=1,1=3,0/1=5"])
    def test_repeated_index_exit_2(self, a, capsys):
        code, out = run_cli(["lemma-avg", "--a", a, "--b", "0=2,1=4"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: sequence index 0 repeats\n"


class TestFigures:
    def test_figure_outputs_verify_and_are_stable(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for n in (1, 2, 3):
            code, out = run_cli(["figure", str(n), "--out-dir", str(d1)])
            assert code == 0
            assert json.loads(out)["verified"] is True
            code, _ = run_cli(["figure", str(n), "--out-dir", str(d2)])
            assert code == 0
            svg1 = (d1 / f"figure{n}.svg").read_bytes()
            svg2 = (d2 / f"figure{n}.svg").read_bytes()
            assert svg1 == svg2

    def test_figure_point_counts(self, tmp_path):
        code, out = run_cli(["figure", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        assert json.loads(out)["sizes"] == [69]
        pts = loads_points((tmp_path / "figure1_a.txt").read_text())
        assert len(pts) == 69
        svg = (tmp_path / "figure1.svg").read_text()
        assert svg.count('r="4"') == 69  # one emphasized dot per member point

    def test_empty_overlay_rejected(self):
        from sumsetlab import EmptySet, emit_figure_svg
        import pytest
        with pytest.raises(EmptySet):
            emit_figure_svg([], "/tmp/nope.svg")


class TestErrors:
    def test_malformed_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\nnonsense\n")
        code, _ = run_cli(["bound", "--mode", "lines", "--a", str(bad), "--b", str(bad)])
        assert code == 2

    def test_invalid_spec_exit_2(self):
        code, _ = run_cli(["gen", "trapezoid", "--m", "2", "--h", "1", "--c", "0", "--d", "2"])
        assert code == 2

    def test_non_integer_ones_exit_2(self, capsys):
        for ones in ("8,x", "8,12.5"):
            code, out = run_cli(["gen", "eps-trapezoid", "--m", "4", "--h", "16",
                                 "--c", "1", "--d", "2", "--ones", ones])
            assert (code, out) == (2, "")
            assert capsys.readouterr().err.startswith("error: --ones expects")

    def test_wild_domain_exit_2(self):
        code, _ = run_cli(["gen", "wild", "--x", "3"])
        assert code == 2

    def test_partition_non_extremal_exit_2(self):
        stream = "# set: A\n0 0\n1 0\n0 1\n# set: B\n0 0\n1 0\n1 1\n0 1\n"
        code, _ = run_cli(["poly", "partition", "--k", "2"], stdin_text=stream)
        assert code == 2

    def test_star_polygon_exit_2(self, capsys):
        # a pentagram turns left at every vertex but winds twice; it used to exit 0
        stream = "# set: A\n0 0\n5 3\n-1 3\n4 0\n2 5\n# set: B\n0 0\n1 0\n0 1\n"
        assert run_cli(["poly", "report"], stdin_text=stream) == (2, "")
        assert capsys.readouterr().err == "error: vertices must wind once around, not 2 times\n"

    def test_mode_mismatch_exit_2(self):
        stream = "# set: A\n0 0\n1 0\n# set: B\n0 0\n0 1\n"
        code, _ = run_cli(["bound", "--mode", "1d"], stdin_text=stream)
        assert code == 2

    HUGE = 10 ** 300
    TRIANGLE = f"0 0\n{HUGE} 0\n0 {HUGE}\n"

    @pytest.mark.parametrize("argv,stdin_text", [
        (["bound", "--mode", "lines"], "# set: A\n0 0\n# set: B\n0 0\n"),
        (["poly", "report"], f"# set: A\n{TRIANGLE}# set: B\n{TRIANGLE}"),
        (["lemma-avg", "--a", f"0={HUGE ** 2}", "--b", "0=1"], ""),
    ], ids=["bound", "poly report", "lemma-avg"])
    def test_approx_beyond_float_range_exit_2(self, argv, stdin_text, monkeypatch, capsys):
        # bound's values are counts of small sets, so its report is stubbed
        # with one that no float holds.
        huge = BoundReport(BoundMode.LINES_GS, 1, 1, self.HUGE ** 2, 1, self.HUGE ** 2 - 1, False)
        monkeypatch.setattr("sumsetlab.bounds.bound", lambda mode, a, b: huge)
        assert run_cli([*argv, "--approx"], stdin_text) == (2, "")
        assert capsys.readouterr().err.startswith("error: --approx: ")
        code, out = run_cli(argv, stdin_text)
        assert code == 0 and json.loads(out)


class TestInputPaths:
    """CLI input paths and error exits that no other test reaches."""
    SQUARE = "0 0\n1 0\n0 1\n1 1\n"

    def doubling_report(self):
        square = loads_points(self.SQUARE)
        return json.dumps(bound(BoundMode.DOUBLING, square, square).to_json_dict(), indent=2) + "\n"

    def test_doubling_reads_a_alone(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text(self.SQUARE)
        want = (0, self.doubling_report())
        assert run_cli(["bound", "--mode", "doubling", "--a", str(path)]) == want
        assert run_cli(["bound", "--mode", "doubling"], self.SQUARE) == want
        two = f"# set: A\n{self.SQUARE}# set: B\n{self.SQUARE}"
        assert run_cli(["bound", "--mode", "doubling"], two) == want

    def test_doubling_with_b_alone_exit_2(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        path.write_text(self.SQUARE)
        assert run_cli(["bound", "--mode", "doubling", "--b", str(path)]) == (2, "")
        assert capsys.readouterr().err == \
            "error: provide both --a and --b, or neither (stdin stream)\n"

    def test_bound_csv_bytes(self, tmp_path):
        path = tmp_path / "bound.csv"
        _, stream = run_cli(["gen", "wild", "--x", "4"])
        code, _ = run_cli(["bound", "--mode", "sections", "--csv", str(path)], stream)
        assert code == 0
        assert path.read_bytes() == b"mode,m,n,lhs,rhs,gap,extremal\nsections,1,4,17,17,0,True\n"

    def test_sumset_out_file(self, tmp_path):
        path = tmp_path / "sum.txt"
        _, stream = run_cli(["gen", "wild", "--x", "4"])
        code, out = run_cli(["sumset", "--out", str(path)], stream)
        assert code == 0
        assert path.read_text() == json.loads(out)["points"] == dumps_points(minkowski_sum(*gen_wild(4)))

    def test_grid_without_height_exit_2(self, capsys):
        assert run_cli(["sweep", "--grid", "3x", "--mode", "lines"]) == (2, "")
        assert capsys.readouterr().err == "error: --grid expects WxH, got '3x'\n"

    def test_lemma_avg_entries(self, capsys):
        plain = run_cli(["lemma-avg", "--a", "0=1,1=3", "--b", "0=2"])
        assert plain[0] == 0
        assert run_cli(["lemma-avg", "--a", "0=1, ,1=3,", "--b", "0=2"]) == plain
        assert run_cli(["lemma-avg", "--a", "0=1,5", "--b", "0=2"]) == (2, "")
        assert capsys.readouterr().err == "error: sequence entries look like index=value, got '5'\n"

    def test_poly_stretch_reads_one_chunk(self, capsys):
        triangle = "0 0\n1 0\n0 1\n"
        assert run_cli(["poly", "stretch", "--amount", "1"], triangle) \
            == (0, "# set: A\n0 0\n1 0\n1 1\n0 2\n")
        two = f"# set: A\n{triangle}# set: B\n{triangle}"
        assert run_cli(["poly", "stretch", "--amount", "1"], two) == (2, "")
        assert capsys.readouterr().err == "error: expected exactly one set on stdin\n"

    def test_pair_command_on_one_chunk_exit_2(self, capsys):
        assert run_cli(["sumset"], "0 0\n1 0\n") == (2, "")
        assert capsys.readouterr().err == \
            "error: stdin stream must carry two sets (use `# set:` markers)\n"

    def test_consistency_error_exit_1(self, monkeypatch, capsys):
        def broken(args):
            raise ConsistencyError("sum disagrees")
        monkeypatch.setattr("sumsetlab.cli._cmd_sumset", broken)
        assert run_cli(["sumset"]) == (1, "")
        assert capsys.readouterr().err == "verification failure: sum disagrees\n"


class TestUndecodableInput:
    """Bytes that are not UTF-8 are malformed input: exit 2 with one error line."""

    def assert_one_error_line(self, proc):
        assert (proc.returncode, proc.stdout) == (2, b"")
        err = proc.stderr.decode()
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\n")
        proc = subprocess.run([sys.executable, "-m", "sumsetlab", "sumset", "--a", str(path),
                               "--b", str(path)], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        self.assert_one_error_line(proc)

    def test_stdin_decoded_strictly(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
        proc = subprocess.run([sys.executable, "-m", "sumsetlab", "sumset"], input=b"\xff\n",
                              capture_output=True, env=env, timeout=120)
        self.assert_one_error_line(proc)


# The stderr argparse printed for an unknown mode before the choices became a
# literal tuple.
INVALID_MODE_STDERR = {
    "bound": "usage: sumsetlab bound [-h] [--a A] [--b B] --mode\n"
             "                       {1d,doubling,lines,sections} [--csv CSV] [--approx]\n"
             "sumsetlab bound: error: argument --mode: invalid choice: 'nope' "
             "(choose from '1d', 'doubling', 'lines', 'sections')\n",
    "sweep": "usage: sumsetlab sweep [-h] [--grid GRID] --mode {1d,doubling,lines,sections}\n"
             "                       [--max-size-a MAX_SIZE_A] [--max-size-b MAX_SIZE_B]\n"
             "                       [--require-2d] [--min-mn MIN_MN] [--shards SHARDS]\n"
             "                       [--shard-index SHARD_INDEX] [--jobs JOBS] [--csv CSV]\n"
             "sumsetlab sweep: error: argument --mode: invalid choice: 'nope' "
             "(choose from '1d', 'doubling', 'lines', 'sections')\n",
}

# Runs one command through main() and prints its exit code and the sumsetlab
# submodules the process imported.
IMPORT_PROBE = """
import contextlib, io, sys
from sumsetlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(n.split(".")[1] for n in sys.modules if n.startswith("sumsetlab.")))
"""


def _child(argv, stdin_text=""):
    return subprocess.run([sys.executable, *argv], input=stdin_text, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)


class TestImports:
    TRIANGLES = "# set: A\n0 0\n1 0\n0 1\n# set: B\n0 0\n2 0\n0 2\n"

    @pytest.mark.parametrize("argv,stdin_key,unused", [
        (["gen", "wild", "--x", "4"], None, {"bounds", "classify", "convex", "search", "figures"}),
        (["gen", "case-c", "--m", "4", "--n", "4", "--k", "7"], None,
         {"bounds", "classify", "convex", "search", "figures"}),
        (["bound", "--mode", "sections"], "wild", {"classify", "convex", "search", "families"}),
        (["poly", "sum"], "triangles", {"bounds", "classify", "search", "families", "figures"}),
        (["lemma-avg", "--a", "0=1,1=3,2=5", "--b", "0=2,1=4"], None,
         {"classify", "convex", "search"}),
    ])
    def test_command_imports_only_what_it_runs(self, argv, stdin_key, unused):
        stdin_text = {None: "", "wild": run_cli(["gen", "wild", "--x", "4"])[1],
                      "triangles": self.TRIANGLES}[stdin_key]
        proc = _child(["-c", IMPORT_PROBE, *argv], stdin_text)
        code, *loaded = proc.stdout.split()
        assert code == "0", proc.stderr
        assert not unused & set(loaded), loaded

    def test_mode_choices_are_the_bound_modes(self):
        assert _MODE_CHOICES == tuple(sorted(m.value for m in BoundMode))

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_unknown_mode_is_an_argparse_error(self, command):
        proc = _child(["-m", "sumsetlab", command, "--mode", "nope"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", INVALID_MODE_STDERR[command])

    def test_main_module_runs_nothing_when_imported_by_a_worker(self):
        """multiprocessing's spawn and forkserver start methods re-import a
        `-m` main module under this run name in each worker."""
        runpy.run_module("sumsetlab.__main__", run_name="__mp_main__")


# stdout and exit code of the poly forms and `check continuous` on one
# rational and one integer pair, recorded from the Point2/Fraction polygons
# before the integer grid.  A JSON golden is the parsed report; the test
# renders it as _emit_json does and compares the bytes.
POLY_STREAMS = {
    "rational": "# set: A\n0 0\n3 0\n3 1/3\n5/2 11/6\n1 7/3\n0 1/3\n"
                "# set: B\n1/2 0\n5/2 0\n5/2 1/2\n13/6 3/2\n7/6 11/6\n1/2 1/2\n",
    "integer": "# set: A\n0 0\n3 0\n3 1\n1 3\n0 2\n# set: B\n0 0\n2 0\n1 2\n",
}
POLY_FORMS = {
    "poly sum": ["poly", "sum"],
    "poly sum --json": ["poly", "sum", "--json"],
    "poly report --approx": ["poly", "report", "--approx"],
    "poly decompose": ["poly", "decompose"],
    "poly partition --k 3": ["poly", "partition", "--k", "3"],
    "poly graph-bounds": ["poly", "graph-bounds"],
    "poly stretch --amount 1/3": ["poly", "stretch", "--input", "-", "--amount", "1/3"],
    "check continuous": ["check", "continuous"],
}
RATIONAL_REPORT = {"area_a": "5", "area_b": "25/9", "m": "3", "n": "2", "area_sum": "275/18",
                   "bonnesen_rhs": "275/18", "extremal": True,
                   "bm_comparison": {"order": "gt", "lhs_squared": "225/4",
                                     "rhs_squared": "500/9"}}
RATIONAL_CERTIFICATE = {"core_a": ["0 0", "3 0", "5/2 3/2", "1 2"],
                        "core_b": ["1/2 0", "5/2 0", "13/6 1", "7/6 4/3"],
                        "amount_a": "1/3", "amount_b": "1/2", "ratio": "3/2",
                        "translation": ["-3/4", "0"]}
INTEGER_REPORT = {"area_a": "13/2", "area_b": "2", "m": "3", "n": "2", "area_sum": "35/2",
                  "bonnesen_rhs": "95/6", "extremal": False,
                  "bm_comparison": {"order": "gt", "lhs_squared": "484/9", "rhs_squared": "52"}}
POLY_GOLDEN = {
    ("rational", "poly sum"): (0, "# set: A+B\n1/2 0\n11/2 0\n11/2 5/6\n14/3 10/3\n13/6 25/6\n1/2 5/6\n"),
    ("rational", "poly sum --json"): (0, {
        "area": "275/18", "projection": "5",
        "vertices": "1/2 0\n11/2 0\n11/2 5/6\n14/3 10/3\n13/6 25/6\n1/2 5/6\n"}),
    ("rational", "poly report --approx"): (0, {**RATIONAL_REPORT, "approx": {
        "area_a": 5.0, "area_b": 2.7777777777777777, "m": 3.0, "n": 2.0,
        "area_sum": 15.277777777777779, "bonnesen_rhs": 15.277777777777779}}),
    ("rational", "poly decompose"): (0, {"certificate": RATIONAL_CERTIFICATE}),
    ("rational", "poly partition --k 3"): (0, {"k": 3, "all_extremal": True}),
    ("rational", "poly graph-bounds"): (0, {"delta": "-16/3", "slope_gap_bound": None}),
    ("rational", "poly stretch --amount 1/3"): (0, "# set: A\n0 0\n3 0\n3 2/3\n5/2 13/6\n1 8/3\n0 2/3\n"),
    ("rational", "check continuous"): (0, {"report": RATIONAL_REPORT,
                                           "certificate": RATIONAL_CERTIFICATE}),
    ("integer", "poly sum"): (0, "# set: A+B\n0 0\n5 0\n5 1\n4 3\n2 5\n1 4\n0 2\n"),
    ("integer", "poly sum --json"): (0, {"area": "35/2", "projection": "5",
                                         "vertices": "0 0\n5 0\n5 1\n4 3\n2 5\n1 4\n0 2\n"}),
    ("integer", "poly report --approx"): (0, {**INTEGER_REPORT, "approx": {
        "area_a": 6.5, "area_b": 2.0, "m": 3.0, "n": 2.0, "area_sum": 17.5,
        "bonnesen_rhs": 15.833333333333334}}),
    ("integer", "poly decompose"): (0, {"certificate": None}),
    ("integer", "poly partition --k 3"): (2, ""),  # not extremal
    ("integer", "poly graph-bounds"): (0, {"delta": "-16/3", "slope_gap_bound": None}),
    ("integer", "poly stretch --amount 1/3"): (0, "# set: A\n0 0\n3 0\n3 4/3\n1 10/3\n0 7/3\n"),
    ("integer", "check continuous"): (0, {"report": INTEGER_REPORT, "certificate": None}),
}


def poly_form(pair, form):
    """(exit code, stdout) of one poly form on one pair; stretch reads A alone."""
    stream = POLY_STREAMS[pair]
    if form.startswith("poly stretch"):
        stream = stream.split("# set: B")[0].split("\n", 1)[1]
    return run_cli(POLY_FORMS[form], stream)


class TestPolyGoldens:
    @pytest.mark.parametrize("pair,form", list(POLY_GOLDEN), ids=" / ".join)
    def test_output_is_byte_identical(self, pair, form):
        code, want = POLY_GOLDEN[pair, form]
        if not isinstance(want, str):
            want = json.dumps(want, indent=2) + "\n"
        assert poly_form(pair, form) == (code, want)

    @pytest.mark.parametrize("pair", list(POLY_STREAMS))
    def test_check_continuous_sums_the_pair_once(self, pair):
        from sumsetlab import convex
        with mock.patch.object(convex, "poly_minkowski_sum",
                               wraps=convex.poly_minkowski_sum) as summed:
            code, out = poly_form(pair, "check continuous")
        assert summed.call_count == 1
        assert (code, json.loads(out)) == POLY_GOLDEN[pair, "check continuous"]
