"""Tests for the evaluation harness and the benchmark runner."""

import csv
import dataclasses
import io
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from kcoreset import (
    Coreset,
    ValidationError,
    WeightedPointSet,
    evaluate_coreset,
    make_problem,
    quantile_grid,
    rcc_fixed_size,
    run_benchmark,
    synthetic_blobs,
    synthetic_uniform,
)
from kcoreset import clustering, harness
from kcoreset.harness import construct_coreset


def tiny_config(runs=2, algorithms=None, problems=None, **extra):
    config = {
        "seed": 0,
        "runs": runs,
        "sizes": [8],
        "datasets": [
            {"name": "blob",
             "synthetic": {"kind": "blobs", "n": 80, "features": 4, "labels": 3,
                           "seed": 1}}
        ],
        "algorithms": algorithms or [
            {"name": "rcc-kmeans", "kind": "rcc_fixed", "z": 2},
            {"name": "uniform", "kind": "uniform"},
        ],
        "problems": problems or [{"name": "meb"}, {"name": "kmedian", "k": 2}],
    }
    config.update(extra)
    return config


def load_strict_json(path):
    """JSON as a strict parser reads it: Infinity and NaN are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def fresh_copy(ps):
    """The same data in a new point set, which shares no clustering run with ``ps``."""
    return WeightedPointSet(ps.points.copy(), ps.weights.copy())


def assert_failure_isolated(bad, good, sizes, error):
    """Only the ``bad`` algorithm's records fail, each with ``error``; sizes=None drops the key."""
    config = tiny_config(algorithms=[dict(bad, name="bad"), dict(good, name="good")])
    if sizes is None:
        del config["sizes"]
    records, summary = run_benchmark(config)
    failed = [r for r in records if r.error is not None]
    fine = [r for r in records if r.error is None]
    assert failed and fine
    assert all(r.algorithm == "bad" for r in failed)
    assert all(r.algorithm == "good" for r in fine)
    assert all(r.error.startswith(error) for r in failed)
    size = "auto" if sizes is None else "8"
    assert summary["blob"]["bad"]["meb"][size]["failed"] == 2


class TestEvaluateCoreset:
    def test_dataset_as_its_own_coreset_scores_perfectly(self):
        ps = synthetic_uniform(40, 3, 0.0, 1.0, seed=2)
        coreset = Coreset(ps.points, ps.weights, {"algorithm": "identity"})
        out = evaluate_coreset(ps, coreset, make_problem("kmedian", k=2))
        assert out["metric"] == "normalized_cost"
        assert out["value"] == pytest.approx(1.0)
        assert out["relative_error"] == pytest.approx(0.0, abs=1e-12)
        assert out["clamped"] is False

    def test_real_coreset_reports_its_bound(self):
        ps = synthetic_uniform(60, 3, 0.0, 1.0, seed=3)
        coreset = rcc_fixed_size(ps, 10)
        out = evaluate_coreset(ps, coreset, make_problem("meb"))
        assert out["eps_bound"] == coreset.eps_bound
        assert out["value"] >= 1.0 - 1e-9
        assert out["coreset_points"] == 10

    def test_negative_weights_flagged_and_clamped_for_the_solver(self):
        ps = synthetic_uniform(30, 2, 0.0, 1.0, seed=4)
        pts = ps.points[:5]
        weights = np.array([10.0, 8.0, 7.0, 6.0, -1.0])
        coreset = Coreset(pts, weights, {"algorithm": "manual"})
        out = evaluate_coreset(ps, coreset, make_problem("kmeans", k=2))
        assert out["clamped"] is True
        assert math.isfinite(out["value"])

    def test_precomputed_full_solution_short_circuits(self):
        ps = synthetic_uniform(30, 2, 0.0, 1.0, seed=5)
        coreset = rcc_fixed_size(ps, 6)
        problem = make_problem("kmedian", k=2)
        from kcoreset import problem_cost, solve_problem

        model = solve_problem(problem, ps)
        full_cost = problem_cost(problem, ps, model)
        out = evaluate_coreset(
            ps, coreset, problem, full_model=model, full_cost=full_cost
        )
        assert out["value"] == pytest.approx(out["cost_full"] / full_cost)

    def test_zero_cost_over_zero_is_exact_and_positive_cost_over_zero_is_inf(self):
        ps = WeightedPointSet(np.full((30, 2), 0.5), np.ones(30))
        problem = make_problem("meb")
        on = evaluate_coreset(ps, Coreset(ps.points[:1], [30.0], {}), problem)
        assert (on["cost_full"], on["value"], on["relative_error"]) == (0.0, 1.0, 0.0)
        off = evaluate_coreset(ps, Coreset([[1.5, 0.5]], [30.0], {}), problem,
                               full_cost=0.0)
        assert off["cost_full"] > 0
        assert off["value"] == math.inf

    def test_svm_accuracy_scored_on_held_out_set(self):
        from kcoreset import solve_problem, split_train_test, svm_accuracy, with_svm_labels

        train, test = split_train_test(
            with_svm_labels(synthetic_blobs(80, 4, 3, seed=2), "class0")
        )
        coreset = rcc_fixed_size(train, 10)
        problem = make_problem("svm", positive_label="class0")
        model = solve_problem(problem, coreset.to_pointset())
        held = evaluate_coreset(train, coreset, problem, held_out=test)
        scored = evaluate_coreset(train, coreset, problem)
        assert held["metric"] == scored["metric"] == "accuracy"
        assert held["value"] == svm_accuracy(test, model)
        assert scored["value"] == svm_accuracy(train, model)
        assert held["relative_error"] == scored["relative_error"]


class TestQuantileGrid:
    def test_endpoints_and_monotone(self):
        levels, values = quantile_grid([3.0, 1.0, 2.0], grid_points=5)
        assert levels[0] == 0.0 and levels[-1] == 1.0
        assert values[0] == 1.0 and values[-1] == 3.0
        assert np.all(np.diff(values) >= 0)

    def test_empty_values_give_nan(self):
        _, values = quantile_grid([], grid_points=4)
        assert np.isnan(values).all()


class TestConstructCoreset:
    def test_every_kind_builds(self):
        ps = synthetic_blobs(60, 4, 3, seed=2)
        for algo in (
            {"kind": "rcc_fixed", "z": 2},
            {"kind": "uniform"},
            {"kind": "sensitivity"},
            {"kind": "farthest"},
            {"kind": "drcc", "nodes": 3, "K": 3},
            {"kind": "cdcc", "nodes": 3, "k": 2},
        ):
            coreset = construct_coreset(algo, ps, size=10, seed=0)
            assert coreset.size >= 1

    @pytest.mark.parametrize("kind", ["drcc", "cdcc"])
    def test_K_and_k_name_the_same_center_count(self, kind):
        ps = synthetic_blobs(60, 4, 3, seed=2)
        built = [
            construct_coreset({"kind": kind, "nodes": 3, key: 3}, ps, size=12, seed=0)
            for key in ("K", "k")
        ]
        assert np.array_equal(built[0].points, built[1].points)
        assert np.array_equal(built[0].weights, built[1].weights)
        assert built[0].provenance == built[1].provenance
        assert built[0].provenance["K"] == 3
        if kind == "cdcc":
            assert built[0].provenance["k_alloc"] == [3, 3, 3]

    def test_adaptive_kind_uses_eps(self):
        ps = synthetic_blobs(60, 4, 3, spread=0.01, seed=2)
        coreset = construct_coreset({"kind": "rcc", "eps": 2.0, "z": 2}, ps, None, 0)
        assert coreset.eps_bound == 2.0

    def test_unknown_kind_rejected(self):
        ps = synthetic_uniform(10, 2, 0.0, 1.0, seed=0)
        with pytest.raises(ValidationError):
            construct_coreset({"kind": "magic"}, ps, 5, 0)


class TestRunBenchmark:
    def test_record_count_and_files(self, tmp_path):
        out = str(tmp_path / "results")
        records, summary = run_benchmark(tiny_config(), out_dir=out)
        # 1 dataset x 2 algorithms x 1 size x 2 runs x 2 problems
        assert len(records) == 8
        assert all(r.error is None for r in records)
        with open(os.path.join(out, "runs.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 9  # header + records
        with open(os.path.join(out, "cdf.csv")) as fh:
            cdf_rows = list(csv.reader(fh))
        assert len(cdf_rows) == 1 + 4 * 200  # 4 cells x 200 grid points
        with open(os.path.join(out, "summary.json")) as fh:
            loaded = json.load(fh)
        cell = loaded["blob"]["rcc-kmeans"]["meb"]["8"]
        assert cell["runs"] == 2 and cell["failed"] == 0
        assert cell["metric"] == "normalized_cost"
        assert os.path.exists(os.path.join(out, "timings.csv"))

    def test_deterministic_output_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_benchmark(tiny_config(), out_dir=a)
        run_benchmark(tiny_config(), out_dir=b)
        for name in ("runs.csv", "summary.json", "cdf.csv"):
            with open(os.path.join(a, name)) as fh:
                first = fh.read()
            with open(os.path.join(b, name)) as fh:
                second = fh.read()
            assert first == second, name

    def test_identical_points_score_as_exact(self, tmp_path):
        # every model costs 0 on identical points, so no coreset loses anything
        path = tmp_path / "same.csv"
        path.write_text("x,y\n" + "0.5,0.25\n" * 30)
        config = tiny_config(
            runs=1,
            algorithms=[{"name": "uniform", "kind": "uniform"},
                        {"name": "sensitivity", "kind": "sensitivity"}],
            problems=[{"name": "meb"}, {"name": "kmeans", "k": 2}, {"name": "kmedian", "k": 2}],
        )
        config["datasets"] = [{"name": "same", "path": str(path), "normalize": False}]
        out = str(tmp_path / "results")
        records, _ = run_benchmark(config, out_dir=out)
        assert len(records) == 6
        assert all((r.error, r.value, r.relative_error) == (None, 1.0, 0.0) for r in records)
        cell = load_strict_json(os.path.join(out, "summary.json"))["same"]["uniform"]["kmeans"]["8"]
        assert (cell["mean"], cell["std"], cell["max_relative_error"]) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("l", [1, 2])
    def test_pca_on_identical_points_scores_as_exact(self, tmp_path, l):
        # the pca cost of identical points is rounding noise, not a cost
        path = tmp_path / "same.csv"
        path.write_text("x,y\n" + "0.5,0.25\n" * 30)
        config = tiny_config(
            runs=1,
            algorithms=[{"name": "uniform", "kind": "uniform"},
                        {"name": "rcc", "kind": "rcc_fixed", "z": 2},
                        {"name": "farthest", "kind": "farthest"}],
            problems=[{"name": "pca", "l": l}],
        )
        config["datasets"] = [{"name": "same", "path": str(path), "normalize": False}]
        records, _ = run_benchmark(config)
        assert len(records) == 3
        assert all((r.error, r.value, r.relative_error) == (None, 1.0, 0.0) for r in records)

    def test_seed_free_coreset_scores_the_same_under_every_seed(self):
        # a run's seed reaches its construction only, and rcc_fixed reads none
        def scores(seed):
            config = tiny_config(
                runs=2, seed=seed, sizes=[8, 12],
                algorithms=[{"name": "rcc", "kind": "rcc_fixed", "z": 2}],
                problems=[{"name": "pca", "l": 1}, {"name": "pca", "l": 2}],
            )
            records, _ = run_benchmark(config)
            assert all(r.error is None for r in records)
            return [(repr(r.value), repr(r.relative_error)) for r in records]

        assert scores(0) == scores(1) == scores(7)

    def test_cdf_rows_are_csv_rows(self, tmp_path):
        # cdf.csv is, byte for byte, one csv row per cell and grid level,
        # also where a name must be quoted
        records, _ = run_benchmark(tiny_config())
        records = [dataclasses.replace(r, dataset='blob, "b"') for r in records]
        harness._write_outputs(records, harness._summarize(records), str(tmp_path))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["dataset", "algorithm", "problem", "size", "grid_index", "level", "value"])
        cells = {}
        for r in records:
            cells.setdefault((r.dataset, r.algorithm, r.problem, r.size), []).append(r.value)
        for key in sorted(cells):
            levels, quantiles = quantile_grid(cells[key])
            for i, (level, q) in enumerate(zip(levels, quantiles)):
                writer.writerow([*key, i, repr(float(level)), repr(float(q))])
        with open(tmp_path / "cdf.csv", newline="") as fh:
            assert fh.readlines() == expected.getvalue().splitlines(keepends=True)

    def test_coreset_smaller_than_k_scores_as_exact(self, tmp_path):
        # rcc_fixed's 4-center coreset of identical points keeps one point,
        # so the k = 2 models train one center, which is exact there
        path = tmp_path / "same.csv"
        path.write_text("x,y\n" + "0.5,0.25\n" * 30)
        config = tiny_config(
            runs=1, sizes=[4],
            algorithms=[{"name": "rcc", "kind": "rcc_fixed", "z": 2}],
            problems=[{"name": "kmeans", "k": 2}, {"name": "kmedian", "k": 2}],
        )
        config["datasets"] = [{"name": "same", "path": str(path), "normalize": False}]
        records, _ = run_benchmark(config)
        assert [r.coreset_points for r in records] == [1, 1]
        assert all((r.error, r.value, r.relative_error) == (None, 1.0, 0.0) for r in records)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_summary_statistics_are_written_as_null(self, tmp_path):
        records, _ = run_benchmark(tiny_config())
        records[0] = dataclasses.replace(records[0], value=math.inf)
        harness._write_outputs(records, harness._summarize(records), str(tmp_path))
        first = records[0]
        summary = load_strict_json(tmp_path / "summary.json")
        cell = summary[first.dataset][first.algorithm][first.problem][first.size]
        assert cell["mean"] is cell["std"] is cell["median"] is None
        assert cell["runs"] == 2 and cell["failed"] == 0

    def test_seed_free_coreset_built_once_for_all_runs(self, monkeypatch):
        # every run builds its coreset again, but a seed-free construction's
        # clustering is solved only by the first build of each (set, size)
        # cell: the later ones read the runs that the set keeps
        solves, building, uniform = {}, [], Counter()

        def counting_lloyd_problems(*args):
            if building:
                solves[building[-1]][-1] += 1
            return lloyd_problems(*args)

        def spy_rcc_fixed(pointset, size, **kwargs):
            cell = (pointset.size, size)
            solves.setdefault(cell, []).append(0)
            building.append(cell)
            try:
                return rcc_fixed_size(pointset, size, **kwargs)
            finally:
                building.pop()

        def spy_uniform(pointset, size, **kwargs):
            uniform[pointset.size, size] += 1
            return uniform_sample(pointset, size, **kwargs)

        lloyd_problems, uniform_sample = clustering._lloyd_problems, harness.uniform_sample
        monkeypatch.setattr(clustering, "_lloyd_problems", counting_lloyd_problems)
        monkeypatch.setattr(harness, "rcc_fixed_size", spy_rcc_fixed)
        monkeypatch.setattr(harness, "uniform_sample", spy_uniform)
        config = tiny_config(
            runs=3, sizes=[8, 12],
            problems=[{"name": "meb"}, {"name": "kmedian", "k": 2},
                      {"name": "svm", "positive_label": "class0"}],
        )
        config["datasets"].append(
            {"name": "small", "synthetic": {"kind": "blobs", "n": 60, "features": 4,
                                            "labels": 3, "seed": 2}})
        records, _ = run_benchmark(config)
        assert all(r.error is None for r in records)
        # the whole dataset (80 or 60 points) and the svm train part (64 or 48)
        cells = [(n, size) for n in (80, 64, 60, 48) for size in (8, 12)]
        assert sorted(solves) == sorted(cells)
        for cell in cells:
            first, *later = solves[cell]
            assert first > 0 and later == [0, 0], (cell, solves[cell])
        assert uniform == Counter({cell: 3 for cell in cells})
        for dataset in ("blob", "small"):
            for problem in ("meb", "kmedian", "svm"):
                runs = [r for r in records if (r.dataset, r.algorithm, r.problem, r.size)
                        == (dataset, "rcc-kmeans", problem, "8")]
                assert [r.run for r in runs] == [0, 1, 2]
                assert len({(r.value, r.relative_error) for r in runs}) == 1

    def test_one_recursion_per_set_serves_every_cell(self, monkeypatch):
        # rcc_fixed, sensitivity and the full-data kmeans model on one
        # dataset, and both constructions on its svm train part: each set's
        # engine calls are those of one recursion for all of its cells
        entry = {"name": "blob", "synthetic": {"kind": "blobs", "n": 90, "features": 4,
                                               "labels": 3, "seed": 4}}
        svm = {"name": "svm", "positive_label": "class0"}
        config = tiny_config(
            runs=1, sizes=[8, 16], datasets=[entry],
            algorithms=[{"kind": "rcc_fixed", "z": 2}, {"kind": "sensitivity"}],
            problems=[{"name": "kmeans", "k": 3}, svm],
        )
        lloyd_problems = clustering._lloyd_problems
        calls, phase = Counter(), ["expected"]

        def counting_lloyd_problems(*args):
            calls[phase[-1]] += 1
            return lloyd_problems(*args)

        monkeypatch.setattr(clustering, "_lloyd_problems", counting_lloyd_problems)
        full = harness._load_config_dataset(entry)
        train, _ = harness._svm_train_test(full, make_problem("svm", positive_label="class0"), svm)
        for ps, ks in ((full, (3,)), (train, ())):
            recursion = clustering._Recursion([fresh_copy(ps)], 2)
            recursion.run(8)
            recursion.run(16)
            for k in ks:
                recursion.run(k)
        expected = calls.pop("expected")

        # from here every engine call counts as one on the dataset or its
        # train part, except sensitivity's own and the solves on coresets
        phase[0] = "data"
        data_sets, splits = [], []

        def in_phase(name, fn):
            def wrapped(*args, **kwargs):
                phase.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase.pop()
            return wrapped

        def spy_construct(algorithm, pointset, size, seed):
            data_sets.append(pointset)
            return construct(algorithm, pointset, size, seed)

        def spy_solve(problem, pointset):
            on_data = any(pointset is ps for ps in data_sets)
            return in_phase("data" if on_data else "coreset", solve)(problem, pointset)

        def spy_split(*args):
            splits.append(args)
            return svm_train_test(*args)

        construct, solve = harness.construct_coreset, harness.solve_problem
        svm_train_test = harness._svm_train_test
        monkeypatch.setattr(harness, "construct_coreset", spy_construct)
        monkeypatch.setattr(harness, "solve_problem", spy_solve)
        monkeypatch.setattr(harness, "sensitivity_sample",
                            in_phase("sensitivity", harness.sensitivity_sample))
        monkeypatch.setattr(harness, "_svm_train_test", spy_split)
        records, _ = run_benchmark(config)
        assert all(r.error is None for r in records)
        assert calls["data"] == expected > 0
        assert calls["sensitivity"] == 0
        assert calls["coreset"] > 0  # kmeans on each coreset, a set of its own
        assert len(splits) == 1

    def test_failures_isolated_per_cell(self):
        assert_failure_isolated(
            {"kind": "rcc", "eps": 1e-9}, {"kind": "uniform"}, [8],
            "ThresholdNotReachedError",
        )

    @pytest.mark.parametrize("bad, good, sizes, error", [
        ({"kind": "rcc_fixed"}, {"kind": "rcc", "eps": 2.0}, None, "ValidationError"),
        ({"kind": "rcc"}, {"kind": "uniform"}, [8],
         "ValidationError: algorithm kind 'rcc' needs 'eps'"),
        ({"kind": "drcc"}, {"kind": "uniform"}, [8],
         "ValidationError: algorithm kind 'drcc' needs 'nodes'"),
        ({"kind": "cdcc", "nodes": 3, "K": 2, "k": 2}, {"kind": "uniform"}, [8],
         "ValidationError"),
    ], ids=["rcc_fixed-without-sizes", "rcc-without-eps", "drcc-without-nodes",
            "cdcc-with-K-and-k"])
    def test_failures_isolated_per_cell_for_any_exception(self, bad, good, sizes, error):
        assert_failure_isolated(bad, good, sizes, error)

    def test_svm_cells_report_accuracy(self):
        config = tiny_config(
            runs=1,
            problems=[{"name": "svm", "positive_label": "class0"}],
        )
        records, _ = run_benchmark(config)
        assert all(r.metric == "accuracy" for r in records)
        assert all(0.0 <= r.value <= 1.0 for r in records)

    def test_svm_without_positive_label_fails_cleanly(self):
        config = tiny_config(runs=1, problems=[{"name": "svm"}])
        records, _ = run_benchmark(config)
        assert all(r.error is not None for r in records)
        assert all("positive_label" in r.error for r in records)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            run_benchmark({"datasets": [], "algorithms": [], "problems": []})
        with pytest.raises(ValidationError):
            run_benchmark(tiny_config(runs=0))
        bad = tiny_config()
        bad["datasets"] = [{"name": "x", "synthetic": {"kind": "spiral"}}]
        with pytest.raises(ValidationError):
            run_benchmark(bad)
        same_name = tiny_config()
        same_name["datasets"] = [
            {"name": "d", "synthetic": {"kind": "uniform", "n": 40, "high": high}}
            for high in (1.0, 100.0)
        ]
        with pytest.raises(ValidationError, match="unique"):
            run_benchmark(same_name)

    @pytest.mark.parametrize("key, entry, message", [
        ("datasets", "u", "datasets[0] must be an object"),
        ("algorithms", "uniform", "algorithms[2] must be an object"),
        ("datasets", {"name": "b", "synthetic": "blobs"},
         "datasets[0] needs a 'path' or a 'synthetic' object"),
    ], ids=["dataset-string", "algorithm-string", "synthetic-string"])
    def test_non_object_entries_are_invalid(self, key, entry, message):
        config = tiny_config(runs=1)
        if key == "datasets":
            config["datasets"] = [entry]
        else:
            config["algorithms"].append(entry)
        with pytest.raises(ValidationError) as excinfo:
            run_benchmark(config)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("extra", [
        {"sizes": "40"}, {"sizes": [2.5]}, {"sizes": [True]}, {"sizes": []},
        {"sizes": [8, 0]}, {"runs": "x"}, {"runs": 1.5}, {"runs": True},
    ], ids=["sizes-string", "sizes-float", "sizes-bool", "sizes-empty", "sizes-zero",
            "runs-string", "runs-float", "runs-bool"])
    def test_sizes_and_runs_checked_before_any_work(self, monkeypatch, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was loaded before sizes and runs were checked")

        monkeypatch.setattr(harness, "_load_config_dataset", refuse)
        with pytest.raises(ValidationError, match=next(iter(extra))):
            run_benchmark(tiny_config(**extra))

    @pytest.mark.parametrize("seed", ["x", -1, 1.7, True, None])
    def test_seed_checked_before_any_work(self, monkeypatch, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was loaded before the seed was checked")

        monkeypatch.setattr(harness, "_load_config_dataset", refuse)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            run_benchmark(tiny_config(seed=seed))

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "grid", "datasets[1].synthetic: unknown kind 'grid'"),
        ("n", "50", "datasets[1].synthetic.n must be an integer"),
        ("n", True, "datasets[1].synthetic.n must be an integer"),
        ("n", 30.5, "datasets[1].synthetic.n must be an integer"),
        ("features", None, "datasets[1].synthetic.features must be an integer"),
        ("seed", "a", "datasets[1].synthetic.seed must be an integer"),
        ("seed", -1, "datasets[1].synthetic.seed must be >= 0"),
        ("spread", "0.1", "datasets[1].synthetic.spread must be a real number"),
        ("low", "0", "datasets[1].synthetic.low must be a real number"),
        ("high", False, "datasets[1].synthetic.high must be a real number"),
    ], ids=["kind-unknown", "n-string", "n-bool", "n-float", "features-null", "seed-string",
            "seed-negative", "spread-string", "low-string", "high-bool"])
    def test_synthetic_specs_checked_before_any_work(self, monkeypatch, field, value, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was loaded before its spec was checked")

        config = tiny_config()
        spec = {"kind": "uniform", "n": 30, "dim": 2, "low": 0, "high": 2.5, "seed": 3}
        config["datasets"].append({"name": "u", "synthetic": dict(spec, **{field: value})})
        monkeypatch.setattr(harness, "_load_config_dataset", refuse)
        with pytest.raises(ValidationError) as excinfo:
            run_benchmark(config)
        assert message in str(excinfo.value)

    def test_synthetic_specs_keep_unknown_keys_and_generator_ranges(self):
        config = tiny_config(runs=1, workers=2)
        config["datasets"][0]["synthetic"].update(spread=0.1, note="ignored")
        records, _ = run_benchmark(config)
        assert records and all(r.error is None for r in records)
        config["datasets"][0]["synthetic"]["n"] = 2  # fewer points than labels
        with pytest.raises(ValidationError, match="one point per label"):
            run_benchmark(config)

    def test_null_sizes_mean_the_construction_picks_its_size(self):
        config = tiny_config(runs=1, algorithms=[{"name": "rcc", "kind": "rcc", "eps": 2.0}],
                             problems=[{"name": "meb"}])
        for sizes in (None, [None]):
            records, _ = run_benchmark(dict(config, sizes=sizes))
            assert [(r.size, r.error) for r in records] == [("auto", None)]

    def test_file_dataset_entries_load(self, tmp_path):
        from kcoreset import save_pointset

        ps = synthetic_uniform(30, 3, 1.0, 9.0, seed=8)
        path = tmp_path / "data.csv"
        save_pointset(ps, str(path))
        config = tiny_config(runs=1)
        config["datasets"] = [{"name": "file", "path": str(path)}]
        records, _ = run_benchmark(config)
        assert all(r.dataset == "file" for r in records)
        assert all(r.error is None for r in records)
