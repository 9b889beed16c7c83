"""Tests for the experiment engine: specs, planning, caching, parallel runs, CLI."""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    ExperimentSpec,
    ResultCache,
    aggregate_across_seeds,
    canonical_params,
    code_version,
    expand_grid,
    get_spec,
    parse_param_assignments,
    plan_sweep,
    run_sweep,
    run_task,
    spec_names,
    task_key,
)
from repro.engine import hashing
from repro.exceptions import InvalidParameterError
from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult
from repro.experiments.__main__ import main as cli_main
from repro.rng import derive_task_seeds

#: Cheap experiment + params used throughout (fig4 runs in ~20 ms at this size).
FAST = ("fig4_user_study", {"n_points": 50, "n_buckets": 3, "queries_per_cell": 3})


def fast_tasks(n_seeds=2):
    name, params = FAST
    return plan_sweep([name], n_seeds=n_seeds, grid={k: [v] for k, v in params.items()})


class TestSpecsAndRegistry:
    def test_every_experiment_module_registered(self):
        assert set(spec_names()) == set(EXPERIMENTS)

    def test_spec_fields(self):
        spec = get_spec("fig6_kcenter")
        assert spec.paper_ref == "Figure 6"
        assert "method" in spec.key_columns
        assert spec.module == "repro.experiments.fig6_kcenter_objective"

    def test_accepts_and_validate(self):
        spec = get_spec("fig6_kcenter")
        assert spec.accepts("n_points") and spec.accepts("k_values")
        assert not spec.accepts("definitely_not_a_param")
        with pytest.raises(InvalidParameterError):
            spec.validate_params({"definitely_not_a_param": 1})

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="fig6_kcenter"):
            get_spec("nope")

    def test_quick_overrides_accepted_by_runner(self):
        for name in spec_names():
            get_spec(name).validate_params(get_spec(name).quick)


class TestPlanner:
    def test_expand_grid(self):
        combos = expand_grid({"b": [1, 2], "a": ["x"]})
        assert combos == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]
        assert expand_grid({}) == [{}]

    def test_parse_param_assignments(self):
        grid = parse_param_assignments(["n_points=100,200", "dataset=cities", "mu=0.5"])
        assert grid == {"n_points": [100, 200], "dataset": ["cities"], "mu": [0.5]}

    def test_parse_param_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_param_assignments(["n_points"])

    def test_parse_param_sequence_values(self):
        # Commas inside brackets do not split: one tuple value, or a grid of
        # tuples (regression: naive comma split produced "(5" / "10)").
        assert parse_param_assignments(["k_values=(5,10)"]) == {"k_values": [(5, 10)]}
        assert parse_param_assignments(["k_values=(5,10),(5,10,20)"]) == {
            "k_values": [(5, 10), (5, 10, 20)]
        }
        assert parse_param_assignments(["datasets=['cities','amazon']"]) == {
            "datasets": [["cities", "amazon"]]
        }

    def test_plan_is_deterministic(self):
        a = plan_sweep(["fig4_user_study"], n_seeds=3, base_seed=7)
        b = plan_sweep(["fig4_user_study"], n_seeds=3, base_seed=7)
        assert [(t.experiment, t.params, t.seed) for t in a] == [
            (t.experiment, t.params, t.seed) for t in b
        ]
        assert [t.key() for t in a] == [t.key() for t in b]

    def test_task_seeds_are_prefix_stable(self):
        assert derive_task_seeds(0, 2) == derive_task_seeds(0, 4)[:2]
        assert derive_task_seeds(0, 4) != derive_task_seeds(1, 4)

    def test_grid_key_accepted_by_no_experiment_is_an_error(self):
        with pytest.raises(InvalidParameterError, match="not accepted"):
            plan_sweep(["fig4_user_study"], grid={"mu": [0.5]})

    def test_grid_key_applies_only_where_accepted(self):
        tasks = plan_sweep(
            ["fig4_user_study", "table2_queries"], grid={"mu": [0.5, 1.0]}, quick=True
        )
        by_name = {}
        for task in tasks:
            by_name.setdefault(task.experiment, []).append(task)
        assert len(by_name["fig4_user_study"]) == 1  # mu not accepted: no grid
        assert len(by_name["table2_queries"]) == 2
        assert {t.params["mu"] for t in by_name["table2_queries"]} == {0.5, 1.0}

    def test_quick_beaten_by_grid(self):
        (task,) = plan_sweep(["fig4_user_study"], quick=True, grid={"n_points": [42]})
        assert task.params["n_points"] == 42
        assert task.params["n_buckets"] == get_spec("fig4_user_study").quick["n_buckets"]


class TestHashing:
    def test_key_stable_under_param_spelling(self):
        version = code_version("repro.experiments.fig6_kcenter_objective")
        a = task_key("fig6_kcenter", {"k_values": (5, 10)}, 0, version)
        b = task_key("fig6_kcenter", {"k_values": [5, 10]}, 0, version)
        assert a == b

    def test_key_changes_with_each_component(self):
        version = code_version("repro.experiments.fig6_kcenter_objective")
        base = task_key("fig6_kcenter", {"n_points": 50}, 0, version)
        assert task_key("fig6_kcenter", {"n_points": 60}, 0, version) != base
        assert task_key("fig6_kcenter", {"n_points": 50}, 1, version) != base
        assert task_key("other", {"n_points": 50}, 0, version) != base
        assert task_key("fig6_kcenter", {"n_points": 50}, 0, "deadbeef") != base

    def test_canonical_params_sorts_and_converts(self):
        import numpy as np

        params = {"b": np.int64(3), "a": (1, 2)}
        assert canonical_params(params) == {"a": [1, 2], "b": 3}
        assert json.dumps(canonical_params(params))  # JSON-serialisable


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("exp", "k1") is None
        cache.put("exp", "k1", {"result": {"name": "exp"}})
        assert cache.get("exp", "k1") == {"result": {"name": "exp"}}
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for("exp", "k1")
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get("exp", "k1") is None

    def test_clear_all_and_per_experiment(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", "k1", {})
        cache.put("a", "k2", {})
        cache.put("b", "k3", {})
        assert cache.clear("a") == 2
        assert len(cache.entries("b")) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_sweep_hit_miss_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = fast_tasks(2)
        first = run_sweep(tasks, cache=cache)
        assert (first.n_cached, first.n_run) == (0, 2)
        second = run_sweep(tasks, cache=cache)
        assert (second.n_cached, second.n_run) == (2, 0)
        assert second.hit_rate == 1.0

    def test_code_version_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        tasks = fast_tasks(1)
        run_sweep(tasks, cache=cache)
        # Simulate a code change: the schema version participates in the
        # code-version digest, so bumping it must turn hits into misses.
        monkeypatch.setattr(hashing, "CACHE_SCHEMA_VERSION", 999)
        report = run_sweep(fast_tasks(1), cache=cache)
        assert report.n_cached == 0

    def test_force_recomputes_but_rewrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = fast_tasks(1)
        run_sweep(tasks, cache=cache)
        forced = run_sweep(tasks, cache=cache, force=True)
        assert forced.n_run == 1
        again = run_sweep(tasks, cache=cache)
        assert again.n_cached == 1

    def test_resume_after_partial_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = fast_tasks(4)
        # Interrupted sweep: only the first two tasks completed.
        partial = run_sweep(tasks[:2], cache=cache)
        assert partial.n_run == 2
        # Resume: the full sweep only recomputes the missing half.
        resumed = run_sweep(tasks, cache=cache)
        assert (resumed.n_cached, resumed.n_run) == (2, 2)
        assert resumed.hit_rate >= 0.5

    def test_cached_result_identical_to_fresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        (task,) = fast_tasks(1)
        fresh = run_task(task, cache=cache)
        cached = run_task(task, cache=cache)
        assert not fresh.cached and cached.cached
        assert fresh.result.rows == cached.result.rows
        assert fresh.result.params == cached.result.params


class TestParallel:
    def test_parallel_matches_serial_at_fixed_seeds(self):
        name = FAST[0]
        tasks = plan_sweep(
            [name, "fig9_nn_noise"],
            seeds=[0, 1],
            grid={"n_points": [50], "n_queries": [1]},
            quick=True,
        )
        serial = run_sweep(tasks, jobs=1)
        parallel = run_sweep(tasks, jobs=3)
        assert serial.n_tasks == parallel.n_tasks == len(tasks)
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert s.task.label() == p.task.label()
            assert s.result.rows == p.result.rows

    def test_parallel_fills_cache_for_serial_reuse(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = fast_tasks(3)
        parallel = run_sweep(tasks, jobs=2, cache=cache)
        assert parallel.n_run == 3
        serial = run_sweep(tasks, jobs=1, cache=cache)
        assert serial.n_cached == 3

    def test_progress_callback_sees_every_task(self, tmp_path):
        seen = []
        run_sweep(fast_tasks(2), jobs=2, progress=lambda o, done, total: seen.append((done, total)))
        assert sorted(seen) == [(1, 2), (2, 2)]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(fast_tasks(1), jobs=0)


class TestAggregation:
    def test_mean_std_columns(self):
        results = [
            ExperimentResult(
                name="fig6_kcenter",
                description="d",
                rows=[
                    {"dataset": "cities", "noise": "adversarial", "level": 1.0,
                     "k": 5, "method": "kc", "objective": value, "n_queries": 10}
                ],
                params={"seed": seed},
            )
            for seed, value in [(0, 1.0), (1, 3.0)]
        ]
        agg = aggregate_across_seeds(results)
        (row,) = agg.rows
        assert row["n_seeds"] == 2
        assert row["objective_mean"] == pytest.approx(2.0)
        assert row["objective_std"] == pytest.approx(1.0)
        assert row["method"] == "kc"
        assert "seeds" in agg.params

    def test_none_metrics_skipped(self):
        results = [
            ExperimentResult(
                name="table2_queries",
                description="d",
                rows=[{"problem": "farthest", "method": "tour2", "status": "DNF",
                       "time_seconds": None, "n_comparisons": None}],
                params={"seed": 0},
            )
        ]
        agg = aggregate_across_seeds(results)
        (row,) = agg.rows
        assert "time_seconds_mean" not in row
        assert row["status"] == "DNF"

    def test_explicit_key_columns_override(self):
        results = [
            ExperimentResult(name="x", description="", rows=[{"g": "a", "v": 1.0}]),
            ExperimentResult(name="x", description="", rows=[{"g": "a", "v": 2.0}]),
        ]
        agg = aggregate_across_seeds(results, key_columns=["g"])
        assert agg.rows[0]["v_mean"] == pytest.approx(1.5)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            aggregate_across_seeds([])


class TestEngineCLI:
    def test_sweep_second_invocation_mostly_cached(self, tmp_path, capsys):
        name = FAST[0]
        argv = [
            "sweep", name, "fig9_nn_noise",
            "--quick", "--seeds", "2", "--jobs", "2", "--quiet",
            "--cache-dir", str(tmp_path),
            "--param", "n_points=50", "--param", "n_queries=1",
            "--param", "n_buckets=3", "--param", "queries_per_cell=3",
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr()
        assert "hit rate 0%" in first.err
        assert cli_main(argv) == 0
        second = capsys.readouterr()
        # Acceptance criterion: a repeated sweep is served >= 90% from cache.
        import re

        match = re.search(r"hit rate (\d+)%", second.err)
        assert match and int(match.group(1)) >= 90
        assert second.out == first.out  # identical aggregated tables

    def test_sweep_prints_aggregated_tables(self, tmp_path, capsys):
        name, params = FAST
        argv = ["sweep", name, "--seeds", "2", "--quiet", "--cache-dir", str(tmp_path)] + [
            arg for k, v in params.items() for arg in ("--param", f"{k}={v}")
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "accuracy_mean" in out and "accuracy_std" in out

    def test_sweep_grid_values_do_not_pool_into_one_aggregate(self, tmp_path, capsys):
        # Regression: rows from different grid values must aggregate
        # separately (one table per parameter combination), never be pooled
        # as if they were seed repeats.
        argv = [
            "sweep", "fig4_user_study", "--seeds", "2", "--quiet",
            "--cache-dir", str(tmp_path),
            "--param", "n_points=50,60",
            "--param", "n_buckets=3", "--param", "queries_per_cell=3",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("fig4_user_study+agg") == 2  # one table per n_points
        assert '"n_points": 50' in out and '"n_points": 60' in out
        # Each table aggregates exactly the two seeds, not 2 x 2 tasks.
        assert "4" not in [
            line.split()[-1] for line in out.splitlines() if "n_seeds" in line
        ]

    def test_run_accepts_sequence_param(self, capsys):
        assert cli_main(["run", "fig6_kcenter", "--quick",
                         "--param", "k_values=(3,5)",
                         "--param", "n_points=80",
                         "--param", "panels=(('cities','adversarial',0.5),)"]) == 0
        out = capsys.readouterr().out
        assert {"3", "5"} <= {
            line.split()[3] for line in out.splitlines()[2:] if line.strip()
        }

    def test_sweep_unknown_experiment(self, capsys):
        assert cli_main(["sweep", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        assert cli_main(["run", "does_not_exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        # No subcommand prints the help and exits 2.
        assert cli_main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_legacy_spellings_are_rejected(self, capsys):
        # The pre-subcommand spellings (--list, a bare experiment name) are
        # argparse errors now, not aliases for list / run <name>.
        for argv in (["--list"], ["fig4_user_study", "--quick"]):
            with pytest.raises(SystemExit) as info:
                cli_main(argv)
            assert info.value.code == 2
            assert "usage:" in capsys.readouterr().err

    def test_sweep_bad_param_exits_2(self, capsys):
        assert cli_main(["sweep", "fig4_user_study", "--param", "mu=1"]) == 2
        assert "not accepted" in capsys.readouterr().err

    def test_run_with_param_override(self, capsys):
        assert cli_main(["run", "fig4_user_study", "--param", "n_points=50",
                         "--param", "n_buckets=3", "--param", "queries_per_cell=3"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_run_rejects_multi_value_param(self, capsys):
        assert cli_main(["run", "fig4_user_study", "--param", "n_points=50,60"]) == 2
        assert "single value" in capsys.readouterr().err

    def test_run_cached_roundtrip(self, tmp_path, capsys):
        argv = ["run", "fig4_user_study", "--cached", "--cache-dir", str(tmp_path),
                "--param", "n_points=50", "--param", "n_buckets=3",
                "--param", "queries_per_cell=3"]
        assert cli_main(argv) == 0
        first = capsys.readouterr()
        assert cli_main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "1 cached" in second.err

    def test_clean_cache(self, tmp_path, capsys):
        argv = ["run", "fig4_user_study", "--cached", "--cache-dir", str(tmp_path),
                "--param", "n_points=50", "--param", "n_buckets=3",
                "--param", "queries_per_cell=3"]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(["clean-cache", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cli_main(["clean-cache", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_list_shows_paper_refs(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Table 1" in out


class TestSpecRegistryGuards:
    def test_conflicting_registration_rejected(self):
        from repro.engine.spec import register

        spec = get_spec("fig4_user_study")
        clone = ExperimentSpec(
            name="fig4_user_study",
            runner=lambda **kw: None,  # different module (tests)
            description="imposter",
            paper_ref="Figure 4",
            key_columns=("dataset",),
        )
        with pytest.raises(InvalidParameterError):
            register(clone)
        assert get_spec("fig4_user_study") is spec
