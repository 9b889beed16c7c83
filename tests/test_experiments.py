"""Tests for the experiment harness (smoke-scale runs of every table / figure)."""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult
from repro.experiments import (
    fig4_user_study,
    fig5_crowd_far_nn,
    fig6_kcenter_objective,
    fig7_hierarchical,
    fig8_farthest_noise,
    fig9_nn_noise,
    table1_fscore,
    table2_queries,
)
from repro.experiments.__main__ import main as cli_main


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            name="demo",
            description="demo",
            rows=[
                {"method": "a", "k": 1, "value": 1.0},
                {"method": "b", "k": 1, "value": 2.0},
                {"method": "a", "k": 2, "value": 3.0},
            ],
        )

    def test_columns_order(self):
        assert self._result().columns() == ["method", "k", "value"]

    def test_filter_and_column(self):
        result = self._result()
        assert len(result.filter(method="a")) == 2
        assert result.column("value", method="a") == [1.0, 3.0]

    def test_to_table_and_csv(self):
        result = self._result()
        table = result.to_table()
        assert "method" in table and "2.000" in table
        csv_text = result.to_csv()
        assert csv_text.splitlines()[0] == "method,k,value"

    def test_to_table_truncation(self):
        text = self._result().to_table(max_rows=1)
        assert "more rows" in text

    def test_empty_result_table(self):
        assert "(no rows)" in ExperimentResult(name="x", description="y").to_table()

    def test_summary_groups_and_averages(self):
        summary = self._result().summary(group_by=["method"], value="value")
        by_method = {row["method"]: row for row in summary}
        assert by_method["a"]["mean_value"] == pytest.approx(2.0)
        assert by_method["a"]["std_value"] == pytest.approx(1.0)
        assert by_method["a"]["n"] == 2

    def _heterogeneous(self):
        # Regression shape: later rows introduce new keys, earlier keys go
        # missing, and None appears explicitly (table2's DNF rows).
        return ExperimentResult(
            name="het",
            description="heterogeneous rows",
            rows=[
                {"problem": "farthest", "time_seconds": 0.5, "status": "ok"},
                {"problem": "linkage", "time_seconds": None, "status": "DNF"},
                {"problem": "nearest", "status": "ok", "n_comparisons": 7},
            ],
        )

    def test_heterogeneous_column_order_is_first_appearance(self):
        result = self._heterogeneous()
        assert result.columns() == ["problem", "time_seconds", "status", "n_comparisons"]

    def test_heterogeneous_missing_and_none_render_empty_in_table(self):
        lines = self._heterogeneous().to_table().splitlines()
        assert "None" not in "\n".join(lines)
        # DNF row: time_seconds cell (None) is blank.
        dnf = next(line for line in lines if "linkage" in line)
        assert dnf.split() == ["linkage", "DNF"]

    def test_heterogeneous_missing_and_none_render_empty_in_csv(self):
        csv_lines = self._heterogeneous().to_csv().splitlines()
        assert csv_lines[0] == "problem,time_seconds,status,n_comparisons"
        assert csv_lines[1] == "farthest,0.5,ok,"
        assert csv_lines[2] == "linkage,,DNF,"
        assert csv_lines[3] == "nearest,,ok,7"

    def test_roundtrip_to_dict(self):
        import numpy as np

        result = ExperimentResult(
            name="rt",
            description="roundtrip",
            rows=[{"a": np.int64(3), "b": np.float64(1.5), "c": (1, 2)}],
            params={"seed": np.int32(7), "values": (0.1, 0.2)},
        )
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.rows == [{"a": 3, "b": 1.5, "c": [1, 2]}]
        assert clone.params == {"seed": 7, "values": [0.1, 0.2]}
        import json

        assert json.dumps(result.to_dict())  # JSON-serialisable end to end


class TestFig4:
    def test_rows_cover_both_datasets(self):
        result = fig4_user_study.run(n_points=80, n_buckets=4, queries_per_cell=3, seed=0)
        datasets = {row["dataset"] for row in result.rows}
        assert datasets == {"caltech", "amazon"}
        assert all(0.0 <= row["accuracy"] <= 1.0 for row in result.rows)

    def test_off_diagonal_more_accurate_than_diagonal(self):
        result = fig4_user_study.run(n_points=150, n_buckets=5, queries_per_cell=6, seed=1)
        diag = [r["accuracy"] for r in result.rows if r["bucket_left"] == r["bucket_right"]]
        off = [
            r["accuracy"]
            for r in result.rows
            if abs(r["bucket_left"] - r["bucket_right"]) >= 3
        ]
        assert np.mean(off) > np.mean(diag)

    def test_accuracy_matrix_helper(self):
        result = fig4_user_study.run(n_points=60, n_buckets=3, queries_per_cell=3, seed=0)
        matrix = fig4_user_study.accuracy_matrix(result, "caltech")
        assert matrix.shape[0] == matrix.shape[1]
        assert fig4_user_study.accuracy_matrix(result, "nonexistent").size == 0


class TestFig5:
    def test_rows_and_shape(self):
        result = fig5_crowd_far_nn.run(
            n_points=80, n_queries=2, datasets=["cities", "amazon"], seed=0
        )
        assert {row["task"] for row in result.rows} == {"farthest", "nearest"}
        assert {row["method"] for row in result.rows} == {"ours", "tour2", "samp"}
        for row in result.rows:
            assert row["normalized_distance"] > 0

    def test_ours_close_to_optimum_on_farthest(self):
        result = fig5_crowd_far_nn.run(n_points=100, n_queries=3, datasets=["cities"], seed=1)
        ours = result.column("normalized_distance", task="farthest", method="ours")[0]
        assert ours > 0.6  # optimum is 1.0


class TestFig6:
    def test_rows_cover_methods_and_ks(self):
        result = fig6_kcenter_objective.run(
            n_points=90,
            k_values=(3, 5),
            panels=(("cities", "adversarial", 0.5),),
            seed=0,
        )
        methods = {row["method"] for row in result.rows}
        assert methods == {"kc", "tour2", "samp", "tdist"}
        assert {row["k"] for row in result.rows} == {3, 5}

    def test_kc_tracks_tdist(self):
        result = fig6_kcenter_objective.run(
            n_points=120,
            k_values=(4,),
            panels=(("cities", "adversarial", 0.5),),
            seed=1,
        )
        ratio = result.column("objective_vs_tdist", method="kc")[0]
        assert ratio < 5.0


class TestFig7:
    def test_rows_structure(self):
        result = fig7_hierarchical.run(n_points=25, datasets=["monuments"], seed=0)
        methods = {row["method"] for row in result.rows}
        assert methods == {"hc", "tour2", "samp", "tdist"}
        for row in result.rows:
            if row["method"] == "tdist":
                assert row["normalized_vs_tdist"] == pytest.approx(1.0)

    def test_hc_close_to_exact_on_low_noise_dataset(self):
        result = fig7_hierarchical.run(
            n_points=25, datasets=["monuments"], linkages=("single",), seed=1
        )
        hc = result.column("normalized_vs_tdist", method="hc")[0]
        assert hc < 2.5


class TestFig8And9:
    def test_fig8_rows(self):
        result = fig8_farthest_noise.run(
            n_points=80, mu_values=(0.0, 1.0), p_values=(0.1,), n_queries=2, seed=0
        )
        assert {row["noise"] for row in result.rows} == {"adversarial", "probabilistic"}
        zero_noise = result.filter(noise="adversarial", level=0.0, method="ours")
        assert zero_noise[0]["normalized_distance"] == pytest.approx(1.0)

    def test_fig9_reuses_sweep_with_nearest_task(self):
        result = fig9_nn_noise.run(
            n_points=60, mu_values=(0.0,), p_values=(), n_queries=2, seed=0
        )
        assert all(row["task"] == "nearest" for row in result.rows)
        ours = result.filter(method="ours")[0]
        assert ours["normalized_distance"] >= 1.0  # nearest: optimum is 1, higher is worse


class TestTables:
    def test_table1_scores_in_range(self):
        result = table1_fscore.run(
            n_points=60, rows=(("caltech", 5), ("amazon", 4)), seed=0
        )
        assert {row["method"] for row in result.rows} == {"kc", "tour2", "samp", "oq"}
        assert all(0.0 <= row["fscore"] <= 1.0 for row in result.rows)

    def test_table1_kc_beats_oq(self):
        result = table1_fscore.run(n_points=80, rows=(("caltech", 10),), seed=1)
        kc = result.column("fscore", method="kc")[0]
        oq = result.column("fscore", method="oq")[0]
        assert kc > oq

    def test_table2_rows_and_dnf(self):
        result = table2_queries.run(n_points=60, k=3, linkage_points=25, seed=0)
        problems = {row["problem"] for row in result.rows}
        assert problems == {
            "farthest",
            "nearest",
            "kcenter",
            "single_linkage",
            "complete_linkage",
        }
        ok_rows = [r for r in result.rows if r["status"] == "ok"]
        assert all(r["n_comparisons"] > 0 for r in ok_rows)

    def test_table2_marks_tour2_linkage_dnf_when_large(self):
        from repro.experiments import table2_queries as t2

        original = t2.TOUR2_LINKAGE_LIMIT
        try:
            t2.TOUR2_LINKAGE_LIMIT = 10
            result = t2.run(n_points=50, k=2, linkage_points=20, seed=0)
            dnf = [r for r in result.rows if r["status"] == "DNF"]
            assert {r["problem"] for r in dnf} == {"single_linkage", "complete_linkage"}
            assert all(r["method"] == "tour2" for r in dnf)
        finally:
            t2.TOUR2_LINKAGE_LIMIT = original


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["run", "does_not_exist"]) == 2

    def test_run_quick_experiment(self, capsys):
        assert cli_main(["run", "fig9_nn_noise", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "normalized_distance" in out

    def test_run_csv_output(self, capsys):
        assert cli_main(["run", "fig9_nn_noise", "--quick", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("dataset,")
