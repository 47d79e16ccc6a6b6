"""Precision-recall points, 11-level interpolation, averaging, and reports."""
import random

import pytest

from oracle import pr_points
from ontovsm.errors import EvalError
from ontovsm.evaluation import (
    RECALL_LEVELS,
    InterpMode,
    PRCurve,
    average,
    curve_from_points,
    evaluate_runs,
    f_measure,
    interpolate_11pt,
    load_qrels,
    load_run_file,
    write_report,
    write_run_file,
)
from ontovsm.retrieval import RankedResult

TWO_THIRDS = 2.0 / 3.0


@pytest.fixture
def simple_qrels():
    # One query, two relevant documents out of three judged.
    return {"q1": {"r1": True, "n1": False, "r2": True}}


class TestLoadQrels:
    def test_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\n\nq2 0 d1 1\n")
        qrels = load_qrels(path)
        assert qrels == {"q1": {"d1": True, "d2": False}, "q2": {"d1": True}}
        assert list(qrels) == ["q1", "q2"]

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 0\n")
        with pytest.raises(EvalError, match="line 2.*duplicate"):
            load_qrels(path)

    def test_malformed_line_rejected(self, tmp_path):
        for bad in ("q1 0 d1", "q1 0 d1 2", "q1 0 d1 1 extra"):
            path = tmp_path / "qrels.txt"
            path.write_text(bad + "\n")
            with pytest.raises(EvalError, match="line 1"):
                load_qrels(path)


class TestLoadRunFile:
    def test_round_trip(self, tmp_path):
        runs = {
            "q1": [RankedResult("d2", 0.75), RankedResult("d1", 0.5)],
            "q2": [RankedResult("d3", 0.25)],
        }
        path = tmp_path / "model.run"
        write_run_file(runs, "model", path)
        assert load_run_file(path) == {"q1": ["d2", "d1"], "q2": ["d3"]}

    def test_write_returns_the_run_read_back(self, tmp_path):
        runs = {
            "q%d": [RankedResult("d2", 0.75), RankedResult("d%s", 0.5)],
            "q2": [],
            "q3": [RankedResult("d1", 0.25)],
        }
        path = tmp_path / "m%s.run"
        written = write_run_file(runs, "m%s", path)
        assert written == load_run_file(path) == {"q%d": ["d2", "d%s"], "q3": ["d1"]}

    @pytest.mark.parametrize(
        "query_id, tag, match",
        [
            ("q 1", "m", "query id 'q 1'"),
            ("", "m", "query id ''"),
            ("q1", "my tag", "run tag 'my tag'"),
        ],
    )
    def test_id_that_breaks_the_run_lines_rejected(self, tmp_path, query_id, tag, match):
        # load_run_file splits each line on whitespace, so it would reject the file.
        path = tmp_path / "model.run"
        with pytest.raises(EvalError, match=match):
            write_run_file({query_id: [RankedResult("d1", 0.5)]}, tag, path)
        assert not path.exists()

    def test_duplicate_document_rejected(self, tmp_path):
        path = tmp_path / "model.run"
        path.write_text("q1 Q0 d1 1 0.900000 m\nq1 Q0 d1 2 0.800000 m\n")
        with pytest.raises(EvalError, match="listed twice"):
            load_run_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "model.run"
        path.write_text("q1 Q0 d1 1 0.9\n")
        with pytest.raises(EvalError, match="line 1"):
            load_run_file(path)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "model.run"
        path.write_text("q1 Q0 d1 1 high m\n")
        with pytest.raises(EvalError, match="score"):
            load_run_file(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "model.run"
        path.write_text(f"q1 Q0 d1 1 {score} m\n")
        with pytest.raises(EvalError, match="line 1: bad score"):
            load_run_file(path)

    @pytest.mark.parametrize(
        "lines, lineno",
        [
            (["q1 Q0 n1 2 0.4 m", "q1 Q0 r1 1 0.9 m"], 1),  # swapped ranks
            (["q1 Q0 r1 1 0.9 m", "q1 Q0 n1 3 0.4 m"], 2),  # a skipped rank
            (["q1 Q0 r1 one 0.9 m"], 1),
            (["q1 Q0 r1 01 0.9 m"], 1),
            (["q1 Q0 r1 1 0.9 m", "q2 Q0 r1 1 0.9 m", "q1 Q0 n1 1 0.4 m"], 3),
        ],
    )
    def test_ranks_must_count_up_from_one(self, tmp_path, lines, lineno):
        path = tmp_path / "model.run"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(EvalError, match=f"line {lineno}: rank"):
            load_run_file(path)

    def test_queries_may_interleave(self, tmp_path):
        path = tmp_path / "model.run"
        path.write_text("q1 Q0 d1 1 0.9 m\nq2 Q0 d1 1 0.8 m\nq1 Q0 d2 2 0.7 m\n")
        assert load_run_file(path) == {"q1": ["d1", "d2"], "q2": ["d1"]}


class TestPrPoints:
    def test_one_point_per_rank(self, simple_qrels):
        points = pr_points("q1", ["r1", "n1", "r2"], simple_qrels)
        assert points == [(0.5, 1.0), (0.5, 0.5), (1.0, pytest.approx(TWO_THIRDS))]

    def test_no_relevant_retrieved(self, simple_qrels):
        points = pr_points("q1", ["n1", "x9"], simple_qrels)
        assert points == [(0.0, 0.0), (0.0, 0.0)]

    def test_perfect_single_result(self):
        qrels = {"q1": {"d1": True}}
        assert pr_points("q1", ["d1"], qrels) == [(1.0, 1.0)]

    def test_empty_run_gives_no_points(self, simple_qrels):
        assert pr_points("q1", [], simple_qrels) == []

    def test_unknown_query_rejected(self, simple_qrels):
        with pytest.raises(EvalError, match="judgments"):
            pr_points("q9", ["r1"], simple_qrels)

    def test_query_without_relevant_docs_rejected(self):
        qrels = {"q1": {"d1": False}}
        with pytest.raises(EvalError, match="no relevant"):
            pr_points("q1", ["d1"], qrels)


class TestInterpolation:
    def test_standard_ceiling_max(self, simple_qrels):
        points = pr_points("q1", ["r1", "n1", "r2"], simple_qrels)
        expected = (1.0,) * 6 + (pytest.approx(TWO_THIRDS),) * 5
        assert interpolate_11pt(points) == expected

    def test_empty_points_all_zero(self):
        assert interpolate_11pt([]) == (0.0,) * 11
        assert interpolate_11pt([], InterpMode.WINDOWED) == (0.0,) * 11

    def test_single_perfect_point_dominates(self):
        assert interpolate_11pt([(1.0, 1.0)]) == (1.0,) * 11
        # Every empty window falls back to the standard value.
        assert interpolate_11pt([(1.0, 1.0)], InterpMode.WINDOWED) == (1.0,) * 11

    def test_windowed_ignores_precision_beyond_window(self):
        # Relevant docs at ranks 5 and 6 of 2: the 40% window [0.4, 0.5] sees
        # only the rank-5 point, while the ceiling max reaches rank 6.
        points = [(0.0, 0.0)] * 4 + [(0.5, 0.2), (1.0, 2.0 / 6.0)]
        standard = interpolate_11pt(points)
        windowed = interpolate_11pt(points, InterpMode.WINDOWED)
        assert standard[4] == pytest.approx(1.0 / 3.0)
        assert windowed[4] == pytest.approx(0.2)
        # Early levels catch the zero-recall ranks inside their windows.
        assert standard[0] == pytest.approx(1.0 / 3.0)
        assert windowed[0] == 0.0

    def test_windowed_empty_window_falls_back(self):
        points = [(0.5, 0.4), (1.0, 0.25)]
        windowed = interpolate_11pt(points, InterpMode.WINDOWED)
        assert windowed[2] == 0.4  # empty [0.2, 0.3] window, standard value
        assert windowed[7] == 0.25  # empty [0.7, 0.8] window, standard value
        assert windowed[10] == 0.25  # the [1.0, 1.0] window holds the last point

    def test_standard_non_increasing(self):
        rng = random.Random(17)
        for _ in range(50):
            total = rng.randint(1, 5)
            run_flags = [rng.random() < 0.4 for _ in range(rng.randint(0, 12))]
            seen, points = 0, []
            for rank, flag in enumerate(run_flags, start=1):
                seen += flag and seen < total
                points.append((seen / total, seen / rank))
            curve = interpolate_11pt(points)
            assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_windowed_never_exceeds_standard(self):
        rng = random.Random(23)
        for _ in range(50):
            total = rng.randint(1, 4)
            seen, points = 0, []
            for rank in range(1, rng.randint(1, 15)):
                seen += rng.random() < 0.3 and seen < total
                points.append((seen / total, seen / rank))
            standard = interpolate_11pt(points)
            windowed = interpolate_11pt(points, InterpMode.WINDOWED)
            assert all(w <= s for w, s in zip(windowed, standard))


class TestFMeasure:
    def test_values(self):
        assert f_measure(1.0, 0.5) == pytest.approx(TWO_THIRDS)
        assert f_measure(1.0, 1.0) == 1.0
        assert f_measure(0.7, 0.0) == 0.0
        assert f_measure(0.0, 0.0) == 0.0

    def test_bounded_by_twice_the_smaller_side(self):
        rng = random.Random(5)
        for _ in range(100):
            p, r = rng.random(), rng.random()
            assert f_measure(p, r) <= 2.0 * min(p, r) + 1e-12


class TestCurves:
    def test_curve_length_enforced(self):
        with pytest.raises(EvalError, match="eleven"):
            PRCurve((1.0,) * 10, (0.0,) * 11)
        with pytest.raises(EvalError, match="eleven"):
            PRCurve((1.0,) * 11, (0.0,) * 12)

    def test_f_at_zero_recall_is_zero(self):
        curve = curve_from_points([(1.0, 1.0)])
        assert curve.f_values[0] == 0.0
        assert curve.f_values[10] == 1.0

    def test_f_follows_precision(self, simple_qrels):
        points = pr_points("q1", ["r1", "n1", "r2"], simple_qrels)
        curve = curve_from_points(points)
        for level, p, f in zip(RECALL_LEVELS, curve.precisions, curve.f_values):
            assert f == f_measure(p, level)


class TestAverage:
    def test_single_curve_identity(self):
        curve = curve_from_points([(1.0, 1.0)])
        assert average([curve]) == curve

    def test_midpoint(self):
        high = PRCurve((1.0,) * 11, (1.0,) * 11)
        low = PRCurve((0.0,) * 11, (0.0,) * 11)
        mid = average([high, low])
        assert mid.precisions == (0.5,) * 11
        assert mid.f_values == (0.5,) * 11

    def test_permutation_invariant(self):
        rng = random.Random(9)
        curves = [
            PRCurve(
                tuple(rng.random() for _ in range(11)), tuple(rng.random() for _ in range(11))
            )
            for _ in range(6)
        ]
        shuffled = curves[:]
        rng.shuffle(shuffled)
        first, second = average(curves), average(shuffled)
        assert first.precisions == pytest.approx(second.precisions)
        assert first.f_values == pytest.approx(second.f_values)

    def test_bounded_by_inputs(self):
        a = PRCurve((0.2,) * 11, (0.1,) * 11)
        b = PRCurve((0.8,) * 11, (0.5,) * 11)
        mean = average([a, b])
        for j in range(11):
            assert 0.2 <= mean.precisions[j] <= 0.8
            assert 0.1 <= mean.f_values[j] <= 0.5

    def test_empty_rejected(self):
        with pytest.raises(EvalError, match="zero curves"):
            average([])


class TestEvaluateRuns:
    def test_single_query_average_is_identity(self, simple_qrels):
        run = {"m": {"q1": ["r1", "n1", "r2"]}}
        result = evaluate_runs(run, simple_qrels)
        assert result.query_count == 1
        expected = curve_from_points(pr_points("q1", ["r1", "n1", "r2"], simple_qrels))
        assert result.curves["m"] == expected

    def test_query_missing_from_run_counts_as_zero(self):
        qrels = {"q1": {"d1": True}, "q2": {"d2": True}}
        runs = {"m": {"q1": ["d1"]}}
        result = evaluate_runs(runs, qrels)
        assert result.query_count == 2
        # q1 is perfect, q2 all zero, so the mean sits at one half.
        assert result.curves["m"].precisions == (0.5,) * 11

    def test_unjudged_queries_skipped(self):
        qrels = {"q1": {"d1": True}, "q2": {"d2": False}}
        result = evaluate_runs({"m": {"q1": ["d1"]}}, qrels)
        assert result.query_count == 1

    def test_run_with_unknown_query_rejected(self, simple_qrels):
        with pytest.raises(EvalError, match="unjudged query"):
            evaluate_runs({"m": {"q9": ["d1"]}}, simple_qrels)

    def test_no_relevant_queries_rejected(self):
        qrels = {"q1": {"d1": False}}
        with pytest.raises(EvalError, match="no query"):
            evaluate_runs({"m": {}}, qrels)

    def test_interp_mode_changes_result(self):
        qrels = {"q1": {"r1": True, "r2": True}}
        runs = {"m": {"q1": ["n1", "n2", "n3", "n4", "r1", "r2"]}}
        standard = evaluate_runs(runs, qrels)
        windowed = evaluate_runs(runs, qrels, InterpMode.WINDOWED)
        assert standard.curves["m"].precisions[4] == pytest.approx(1.0 / 3.0)
        assert windowed.curves["m"].precisions[4] == pytest.approx(0.2)


class TestWriteReport:
    def test_table_and_curve_files(self, tmp_path, simple_qrels):
        out = tmp_path / "report"
        runs = {"m": {"q1": ["r1", "n1", "r2"]}}
        write_report(evaluate_runs(runs, simple_qrels), out)

        header = "model," + ",".join(str(10 * j) for j in range(11))
        precision = (out / "precision.csv").read_text().splitlines()
        assert precision[0] == header
        assert precision[1] == "m," + ",".join(["100.00"] * 6 + ["66.67"] * 5)

        f_table = (out / "f_measure.csv").read_text().splitlines()
        assert f_table[0] == header
        f_row = f_table[1].split(",")
        assert f_row[0] == "m"
        assert f_row[1] == "0.00"
        assert f_row[7] == f"{100 * f_measure(TWO_THIRDS, 0.6):.2f}"

        curve = (out / "curves" / "m.csv").read_text().splitlines()
        assert curve[0] == "recall,precision,f_measure"
        assert curve[1] == "0,1.000000,0.000000"
        assert curve[6] == f"50,1.000000,{TWO_THIRDS:.6f}"
        assert len(curve) == 12

    def test_one_row_per_model(self, tmp_path, simple_qrels):
        runs = {"a": {"q1": ["r1"]}, "b": {"q1": ["n1"]}}
        result = evaluate_runs(runs, simple_qrels)
        write_report(result, tmp_path / "r")
        lines = (tmp_path / "r" / "precision.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["model", "a", "b"]
        assert (tmp_path / "r" / "curves" / "a.csv").exists()
        assert (tmp_path / "r" / "curves" / "b.csv").exists()

    @pytest.mark.parametrize("label", ["a,b", "a b", ""])
    def test_label_that_breaks_the_tables_rejected(self, tmp_path, simple_qrels, label):
        result = evaluate_runs({"m": {"q1": ["r1"]}, label: {"q1": ["n1"]}}, simple_qrels)
        with pytest.raises(EvalError, match="model label"):
            write_report(result, tmp_path / "r")
        assert not (tmp_path / "r").exists()
