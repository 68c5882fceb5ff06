import io
import json
import subprocess
import sys

from sumsetlab import (BoundMode, bound, gen_wild, loads_points,
                       minkowski_sum)
from sumsetlab.cli import main


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

    def test_check_1d(self):
        stream = "# set: A\n0 0\n1 0\n2 0\n# set: B\n0 5\n1 5\n"
        code, out = run_cli(["check", "1d"], stdin_text=stream)
        assert code == 0
        payload = json.loads(out)
        assert payload["equality"] is True and payload["ap_case"] is True

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

    def test_emit_accepts_polygons(self, tmp_path):
        from sumsetlab import ConvexPolygon, emit_figure_svg
        out = tmp_path / "poly.svg"
        emit_figure_svg([("square", ConvexPolygon([(0, 0), (2, 0), (2, 2), (0, 2)]))],
                        str(out))
        assert out.read_text().count('r="4"') == 4

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

    def test_mode_mismatch_exit_2(self):
        stream = "# set: A\n0 0\n1 0\n# set: B\n0 0\n0 1\n"
        code, _ = run_cli(["bound", "--mode", "1d"], stdin_text=stream)
        assert code == 2
