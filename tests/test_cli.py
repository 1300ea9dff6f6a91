"""End-to-end tests for the command-line interface."""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from kcoreset import (
    ShardSpec,
    cdcc,
    drcc,
    load_coreset,
    load_dataset,
    normalize_features,
    partition_dataset,
    save_pointset,
    synthetic_blobs,
    synthetic_uniform,
)
from kcoreset.cli import main
from kcoreset.harness import evaluate_coreset
from kcoreset.problems import make_problem


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "points.csv"
    save_pointset(synthetic_uniform(60, 3, 1.0, 9.0, seed=5), str(path))
    return str(path)


@pytest.fixture
def labeled_csv(tmp_path):
    """A CSV with a string label column, as raw user data would have."""
    ps = synthetic_blobs(60, 3, 2, seed=3)
    rows = ["a,b,c,species,weight"]
    names = {0.0: "cat", ps.encoding.tau * 1.0: "dog"} if ps.encoding else {}
    for point, weight in zip(ps.points, ps.weights):
        label = names[point[-1]]
        rows.append(",".join(repr(float(v)) for v in point[:-1])
                    + f",{label},{float(weight)!r}")
    path = tmp_path / "labeled.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestConstruct:
    @pytest.mark.parametrize("algo", ["rcc-fixed", "uniform", "sensitivity", "farthest"])
    def test_fixed_size_algorithms(self, runner, dataset_csv, tmp_path, algo):
        out = str(tmp_path / f"core_{algo}")
        result = runner.invoke(main, [
            "construct", dataset_csv, "--algo", algo, "--size", "10",
            "--seed", "1", "--out", out,
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["algorithm"] == algo
        assert payload["input_points"] == 60
        assert os.path.exists(out + ".csv") and os.path.exists(out + ".json")

    def test_adaptive_with_reachable_target(self, runner, tmp_path):
        data = str(tmp_path / "tight.csv")
        save_pointset(synthetic_blobs(60, 4, 3, spread=0.01, seed=2), data)
        out = str(tmp_path / "core")
        result = runner.invoke(main, [
            "construct", data, "--algo", "rcc", "--eps", "2.0",
            "--no-normalize", "--out", out,
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["eps_bound"] == 2.0

    def test_adaptive_unreachable_target_is_runtime_failure(
        self, runner, dataset_csv, tmp_path
    ):
        result = runner.invoke(main, [
            "construct", dataset_csv, "--algo", "rcc", "--eps", "1e-9",
            "--out", str(tmp_path / "core"),
        ])
        assert result.exit_code == 1
        assert "not reach" in result.output.lower() or "gap" in result.output.lower()

    def test_missing_size_is_usage_error(self, runner, dataset_csv, tmp_path):
        result = runner.invoke(main, [
            "construct", dataset_csv, "--algo", "uniform",
            "--out", str(tmp_path / "core"),
        ])
        assert result.exit_code == 2
        assert "--size" in result.output

    def test_missing_eps_is_usage_error(self, runner, dataset_csv, tmp_path):
        result = runner.invoke(main, [
            "construct", dataset_csv, "--algo", "rcc",
            "--out", str(tmp_path / "core"),
        ])
        assert result.exit_code == 2

    def test_nonexistent_dataset(self, runner, tmp_path):
        result = runner.invoke(main, [
            "construct", str(tmp_path / "nope.csv"), "--size", "5",
            "--out", str(tmp_path / "core"),
        ])
        assert result.exit_code == 2

    def test_positive_label_remaps_before_constructing(
        self, runner, labeled_csv, tmp_path
    ):
        out = str(tmp_path / "svmcore")
        result = runner.invoke(main, [
            "construct", labeled_csv, "--algo", "uniform", "--size", "8",
            "--label-column", "species", "--positive-label", "dog", "--out", out,
        ])
        assert result.exit_code == 0, result.output
        import numpy as np

        labels = np.loadtxt(out + ".csv", delimiter=",", skiprows=1)[:, -2]
        assert set(labels) <= {-1.0, 1.0}


class TestDistributed:
    @pytest.mark.parametrize("algo", ["drcc", "cdcc"])
    def test_writes_coreset_and_trace(self, runner, dataset_csv, tmp_path, algo):
        out = str(tmp_path / algo)
        result = runner.invoke(main, [
            "distributed", dataset_csv, "--algo", algo, "--nodes", "3",
            "--budget", "20", "--seed", "7", "--out", out,
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["coreset_points"] <= 20
        with open(out + ".trace.json") as fh:
            trace = json.load(fh)
        assert trace["overhead_scalars"] == payload["overhead_scalars"]
        ladders = [m for m in trace["messages"] if m["kind"] == "cost_ladder"]
        assert len(ladders) == 3
        # --z omitted: drcc defaults to z=1, cdcc to z=2
        with open(out + ".json") as fh:
            provenance = json.load(fh)["provenance"]
        assert provenance["algorithm"] == algo
        assert provenance["z"] == {"drcc": 1, "cdcc": 2}[algo]
        # the saved coreset is the library call on the same inputs
        shards = partition_dataset(
            normalize_features(load_dataset(dataset_csv)), ShardSpec("uniform", 3, seed=7)
        )
        if algo == "drcc":
            expected, _ = drcc(shards, N=20, K=5, z=1, seed=7)
        else:
            expected = cdcc(shards, N=20, k=2, z=2, seed=7)
        saved = load_coreset(out + ".csv")
        assert np.array_equal(saved.points, expected.points)
        assert np.array_equal(saved.weights, expected.weights)

    @pytest.mark.parametrize("algo, flag", [
        ("cdcc", "-K"), ("cdcc", "--ladder"), ("drcc", "--k"), ("drcc", "-K"),
    ])
    def test_one_center_count_option_for_both_protocols(
        self, runner, dataset_csv, tmp_path, algo, flag
    ):
        out = str(tmp_path / algo)
        result = runner.invoke(main, [
            "distributed", dataset_csv, "--algo", algo, "--nodes", "3",
            "--budget", "20", "--seed", "7", flag, "3", "--out", out,
        ])
        assert result.exit_code == 0, result.output
        shards = partition_dataset(
            normalize_features(load_dataset(dataset_csv)), ShardSpec("uniform", 3, seed=7)
        )
        if algo == "drcc":
            expected, _ = drcc(shards, N=20, K=3, z=1, seed=7)
        else:
            expected = cdcc(shards, N=20, k=3, z=2, seed=7)
        saved = load_coreset(out + ".csv")
        assert np.array_equal(saved.points, expected.points)
        assert np.array_equal(saved.weights, expected.weights)

    def test_budget_below_node_count_is_usage_error(self, runner, dataset_csv, tmp_path):
        result = runner.invoke(main, [
            "distributed", dataset_csv, "--nodes", "5", "--budget", "4",
            "--out", str(tmp_path / "d"),
        ])
        assert result.exit_code == 2

    def test_hybrid_scheme_needs_n0(self, runner, dataset_csv, tmp_path):
        result = runner.invoke(main, [
            "distributed", dataset_csv, "--nodes", "3", "--budget", "20",
            "--scheme", "hybrid", "--out", str(tmp_path / "d"),
        ])
        assert result.exit_code == 2


class TestEvaluate:
    def test_report_on_stdout(self, runner, dataset_csv, tmp_path):
        out = str(tmp_path / "core")
        runner.invoke(main, [
            "construct", dataset_csv, "--size", "12", "--out", out,
        ])
        result = runner.invoke(main, [
            "evaluate", dataset_csv, out, "--problem", "kmedian", "--k", "2",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["metric"] == "normalized_cost"
        assert report["value"] >= 1.0 - 1e-9
        assert report["dataset_points"] == 60

    def test_report_to_file(self, runner, dataset_csv, tmp_path):
        core = str(tmp_path / "core")
        runner.invoke(main, ["construct", dataset_csv, "--size", "12", "--out", core])
        report_path = str(tmp_path / "report.json")
        result = runner.invoke(main, [
            "evaluate", dataset_csv, core, "--problem", "meb", "--out", report_path,
        ])
        assert result.exit_code == 0
        with open(report_path) as fh:
            assert json.load(fh)["problem"] == "meb"

    def test_svm_requires_positive_label(self, runner, labeled_csv, tmp_path):
        core = str(tmp_path / "core")
        runner.invoke(main, [
            "construct", labeled_csv, "--label-column", "species",
            "--positive-label", "dog", "--size", "10", "--out", core,
        ])
        result = runner.invoke(main, [
            "evaluate", labeled_csv, core, "--problem", "svm",
            "--label-column", "species",
        ])
        assert result.exit_code == 2
        assert "--positive-label" in result.output

    def test_svm_accuracy_report(self, runner, labeled_csv, tmp_path):
        core = str(tmp_path / "core")
        runner.invoke(main, [
            "construct", labeled_csv, "--label-column", "species",
            "--positive-label", "dog", "--size", "15", "--out", core,
        ])
        result = runner.invoke(main, [
            "evaluate", labeled_csv, core, "--problem", "svm",
            "--label-column", "species", "--positive-label", "dog",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["metric"] == "accuracy"
        assert 0.0 <= report["value"] <= 1.0

    def test_pca_report_matches_the_library(self, runner, dataset_csv, tmp_path):
        core = str(tmp_path / "core")
        runner.invoke(main, ["construct", dataset_csv, "--size", "12", "--out", core])
        result = runner.invoke(main, [
            "evaluate", dataset_csv, core, "--problem", "pca", "--l", "2",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        expected = evaluate_coreset(
            normalize_features(load_dataset(dataset_csv)), load_coreset(core),
            make_problem("pca", l=2),
        )
        assert report["metric"] == "normalized_cost"
        assert report["value"] == expected["value"] >= 1.0 - 1e-9

    def test_no_seed_option(self, runner, dataset_csv, tmp_path):
        # evaluation draws no randomness, so there is no seed to set
        core = str(tmp_path / "core")
        runner.invoke(main, ["construct", dataset_csv, "--size", "12", "--out", core])
        result = runner.invoke(main, [
            "evaluate", dataset_csv, core, "--problem", "pca", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_missing_coreset_file(self, runner, dataset_csv, tmp_path):
        result = runner.invoke(main, [
            "evaluate", dataset_csv, str(tmp_path / "ghost"), "--problem", "meb",
        ])
        assert result.exit_code == 2


class TestBenchmark:
    def test_full_sweep(self, runner, tmp_path):
        config = {
            "seed": 0, "runs": 1, "sizes": [8],
            "datasets": [{"name": "blob", "synthetic": {
                "kind": "blobs", "n": 60, "features": 4, "labels": 3, "seed": 1}}],
            "algorithms": [{"name": "uniform", "kind": "uniform"}],
            "problems": [{"name": "meb"}],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = str(tmp_path / "results")
        result = runner.invoke(main, ["benchmark", str(config_path), "--out", out])
        assert result.exit_code == 0, result.output
        assert "1 records (0 failed)" in result.output
        for name in ("runs.csv", "summary.json", "cdf.csv", "timings.csv"):
            assert os.path.exists(os.path.join(out, name))

    def test_failed_cells_exit_nonzero(self, runner, tmp_path):
        config = {
            "seed": 0, "runs": 1,
            "datasets": [{"name": "u", "synthetic": {
                "kind": "uniform", "n": 40, "dim": 3, "seed": 1}}],
            "algorithms": [{"name": "impossible", "kind": "rcc", "eps": 1e-9}],
            "problems": [{"name": "meb"}],
        }
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config))
        result = runner.invoke(main, [
            "benchmark", str(config_path), "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 1
        assert "(1 failed)" in result.output

    def test_invalid_json_config(self, runner, tmp_path):
        config_path = tmp_path / "broken.json"
        config_path.write_text("{not json")
        result = runner.invoke(main, [
            "benchmark", str(config_path), "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2
        assert "not valid JSON" in result.output

    @pytest.mark.parametrize("entry", [{"k": 2}, "kmeans"])
    def test_problem_without_name_is_invalid_input(self, runner, tmp_path, entry):
        config = {
            "datasets": [{"name": "u", "synthetic": {"kind": "uniform", "n": 50}}],
            "algorithms": [{"kind": "uniform"}],
            "sizes": [5],
            "problems": [{"name": "meb"}, entry],
        }
        config_path = tmp_path / "nameless.json"
        config_path.write_text(json.dumps(config))
        result = runner.invoke(main, [
            "benchmark", str(config_path), "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2, result.output
        assert "problems[1] must be an object with a 'name'" in result.output

    @pytest.mark.parametrize("change, message", [
        ({"datasets": ["u"]}, "datasets[0] must be an object"),
        ({"algorithms": ["uniform"]}, "algorithms[0] must be an object"),
        ({"sizes": "40"}, "sizes must be a non-empty list"),
        ({"seed": "x"}, "seed must be an integer >= 0"),
        ({"datasets": [{"name": "u", "synthetic": {"kind": "uniform", "n": "50"}}]},
         "datasets[0].synthetic.n must be an integer"),
    ], ids=["dataset-string", "algorithm-string", "sizes-string", "seed-string",
            "synthetic-string-n"])
    def test_malformed_config_is_invalid_input(self, runner, tmp_path, change, message):
        config = {
            "datasets": [{"name": "u", "synthetic": {"kind": "uniform", "n": 50}}],
            "algorithms": [{"kind": "uniform"}],
            "sizes": [5],
            "problems": [{"name": "meb"}],
        }
        config_path = tmp_path / "malformed.json"
        config_path.write_text(json.dumps(dict(config, **change)))
        result = runner.invoke(main, [
            "benchmark", str(config_path), "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output


@pytest.mark.parametrize("command", [
    ["construct", "--size", "10"],
    ["distributed", "--nodes", "3", "--budget", "20"],
    ["evaluate", "CORESET", "--problem", "meb"],
])
def test_out_in_missing_directory_is_usage_error_before_any_work(
    runner, dataset_csv, tmp_path, monkeypatch, command
):
    def refuse(*args, **kwargs):
        raise AssertionError("the dataset was loaded before --out was checked")

    monkeypatch.setattr("kcoreset.cli._load", refuse)
    coreset = str(tmp_path / "core.csv")
    args = [command[0], dataset_csv] + [coreset if a == "CORESET" else a for a in command[1:]]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "out")])
    assert result.exit_code == 2, result.output
    assert "does not exist" in result.output
    assert "Traceback" not in result.output


def test_evaluate_out_that_is_a_directory_is_usage_error_before_any_work(
    runner, dataset_csv, tmp_path, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("the dataset was loaded before --out was checked")

    monkeypatch.setattr("kcoreset.cli._load", refuse)
    result = runner.invoke(main, [
        "evaluate", dataset_csv, str(tmp_path / "core.csv"), "--problem", "meb",
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 2, result.output
    assert "is a directory" in result.output
    assert "Traceback" not in result.output


def test_benchmark_config_that_is_not_an_object_is_usage_error(runner, tmp_path):
    config_path = tmp_path / "list.json"
    config_path.write_text("[1, 2]")
    result = runner.invoke(main, ["benchmark", str(config_path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 2, result.output
    assert "config must be a JSON object" in result.output


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "kcoreset" in result.output
