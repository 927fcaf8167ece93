import json

import pytest

from lineagekg.cli import (
    PRESETS,
    ManifestError,
    Pipeline,
    RunManifest,
    main,
    run_pipeline,
)
from lineagekg.metrics import read_results


def tiny_manifest(out_dir, **overrides):
    base = dict(
        out_dir=str(out_dir), seed=0, profile="rddl",
        tasks=["selection-projection"],
        rows_per_table=6, scenarios_per_task=3, train_scenarios=2,
        eval_negatives=20, num_paths=3, max_length=6, walk_budget=6,
        embed_dim=8, hidden_dim=8, layers=1, fusion_dim=12,
        batch_size=16, epochs=1,
    )
    base.update(overrides)
    return RunManifest(**base)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = tiny_manifest(out)
    logs = []
    status, results = run_pipeline(manifest, echo=logs.append)
    return manifest, out, status, results, logs


class TestValidation:
    def test_unknown_task_fails_before_stages(self, tmp_path):
        manifest = tiny_manifest(tmp_path, tasks=["selection-quadratic"])
        logs = []
        status, results = run_pipeline(manifest, echo=logs.append)
        assert status == 1
        assert results is None
        assert not (tmp_path / "selection-quadratic").exists()

    def test_unknown_profile(self, tmp_path):
        manifest = tiny_manifest(tmp_path, profile="owl")
        status, _ = run_pipeline(manifest, echo=lambda *_: None)
        assert status == 1

    def test_bad_split(self, tmp_path):
        manifest = tiny_manifest(tmp_path, train_scenarios=3)
        status, _ = run_pipeline(manifest, echo=lambda *_: None)
        assert status == 1

    @pytest.mark.parametrize("field, value", [
        ("num_paths", 0), ("max_length", 0), ("walk_budget", 0),
        ("embed_dim", 0), ("hidden_dim", 0), ("layers", 0), ("fusion_dim", 0),
        ("batch_size", 0), ("epochs", 0),
        ("restart_prob", -0.1), ("restart_prob", 1.5),
        ("restart_prob", float("nan")), ("k_negatives", -1),
        ("eval_negatives", 0), ("learning_rate", -1e-3),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ])
    def test_rejects_before_any_stage(self, tmp_path, field, value):
        manifest = tiny_manifest(tmp_path, **{field: value})
        with pytest.raises(ManifestError, match=field):
            manifest.validate()
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append)
        assert status == 1
        assert not any(line.startswith("[run ]") for line in logs)


class TestPipeline:
    def test_run_succeeds(self, completed_run):
        _, out, status, results, _ = completed_run
        assert status == 0
        assert results is not None and results.is_file()

    def test_artifacts_exist(self, completed_run):
        _, out, _, _, _ = completed_run
        kg = out / "selection-projection" / "rddl" / "kg"
        for name in ("train_base.nt", "train.nt", "test.nt", "ground_truth.csv",
                     "counts_train.txt", "counts_test.txt", "schema.nt"):
            assert (kg / name).is_file(), name
        samples = out / "selection-projection" / "rddl" / "samples"
        for name in ("train.txt", "eval_pos.txt", "eval_neg.txt", "vocab.txt"):
            assert (samples / name).is_file(), name
        assert (out / "selection-projection" / "rddl" / "model" / "checkpoint.bin").is_file()
        assert (out / "results.tsv").is_file()
        assert (out / "report.txt").is_file()

    def test_results_row_shape(self, completed_run):
        _, out, _, results_path, _ = completed_run
        rows = read_results(results_path)
        assert len(rows) == 1
        row = rows[0]
        assert row.task == "selection-projection"
        assert row.profile == "rddl"
        assert 0.0 <= row.pr_auc <= 1.0
        assert row.negatives == 20

    def test_rerun_skips_all_stages(self, completed_run):
        manifest, out, _, _, _ = completed_run
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append)
        assert status == 0
        assert all(not line.startswith("[run ]") for line in logs if line.startswith("["))

    def test_stage_isolation(self, completed_run):
        manifest, out, _, _, _ = completed_run
        (out / "selection-projection" / "rddl" / "model" / "checkpoint.bin").unlink()
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append)
        assert status == 0
        ran = [line.split("] ", 1)[1] for line in logs if line.startswith("[run ]")]
        skipped = [line.split("] ", 1)[1] for line in logs if line.startswith("[skip]")]
        assert any(label.startswith("train/") for label in ran)
        assert any(label.startswith("evaluate/") for label in ran)  # downstream
        assert any(label.startswith("report") for label in ran)
        assert any(label.startswith("build-kg/") for label in skipped)  # upstream

    def test_manifest_round_trip(self, tmp_path):
        manifest = tiny_manifest(tmp_path)
        manifest.save(tmp_path / "m.json")
        loaded = RunManifest.load(tmp_path / "m.json")
        assert loaded == manifest

    def test_loads_manifest_with_retired_deterministic_key(self, tmp_path):
        manifest = tiny_manifest(tmp_path)
        manifest.save(tmp_path / "m.json")
        data = json.loads((tmp_path / "m.json").read_text())
        data["deterministic"] = True
        (tmp_path / "m.json").write_text(json.dumps(data))
        assert RunManifest.load(tmp_path / "m.json") == manifest

    def test_two_path_model_trains_and_evaluates(self, tmp_path):
        manifest = tiny_manifest(tmp_path, num_paths=2)
        logs = []
        status, results = run_pipeline(manifest, echo=logs.append)
        assert status == 0, logs
        assert read_results(results)[0].negatives == 20


class TestDeterminism:
    def test_identical_manifests_identical_results(self, tmp_path):
        files = []
        for name in ("a", "b"):
            manifest = tiny_manifest(tmp_path / name)
            status, results = run_pipeline(manifest, echo=lambda *_: None)
            assert status == 0
            files.append(results.read_bytes())
        assert files[0] == files[1]


class TestMainEntry:
    def test_unknown_task_exit_code(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--task", "nope"])
        assert code == 1

    def test_gen_scenarios_subcommand(self, tmp_path):
        code = main([
            "gen-scenarios", "--out", str(tmp_path), "--task", "union-linear",
            "--seed", "3", "--preset", "desk",
        ])
        assert code == 0
        assert (tmp_path / "union-linear" / "scenarios" / "manifest.tsv").is_file()
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["scenarios_per_task"] == PRESETS["desk"]["scenarios_per_task"]

    def test_presets_exposed(self):
        assert PRESETS["paper"]["eval_negatives"] == 4000
        assert PRESETS["paper"]["scenarios_per_task"] == 20
        assert PRESETS["paper"]["train_scenarios"] == 17
