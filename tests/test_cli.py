import hashlib
import json
import math
import os
import re
import signal
import warnings

import pytest

from lineagekg import parallel, paths, siamese
from lineagekg.cli import (
    PRESETS,
    STAGE_DIRS,
    STAGES,
    ManifestError,
    RunManifest,
    main,
    run_pipeline,
)
from lineagekg.kgstore import parse_ntriples
from lineagekg.metrics import read_results
from lineagekg.scenario import load_suite


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


# sha256 of every graph artifact of tiny_manifest(profile="both") over these
# tasks: selection, join and union views, with projected and computed columns.
# The graph stages are pure Python (no BLAS rounding), and a change to graph
# building or lineage resolution that alters these bytes alters every
# downstream result.
PINNED_GRAPH_TASKS = ["selection-projection", "selection-nonlinear", "join-nonlinear",
                      "union-linear"]
GRAPH_ARTIFACT_DIGESTS = {
    "join-nonlinear/baseline/kg/counts_test.txt":
        "c5c2645d7be68f232b016d3b6e595158cdcdfe52f7df63ac6db52735ae6123cc",
    "join-nonlinear/baseline/kg/counts_train.txt":
        "9eebd7c21113504357ee51406540b810b009859a0e41ba6c81ed62de6e64fa5f",
    "join-nonlinear/baseline/kg/ground_truth.csv":
        "06030ebc72be3b3440754b94720e85c4b27dbff475da5b91662eca7367c13f7b",
    "join-nonlinear/baseline/kg/resolve_counts.txt":
        "36233e1258e02b02f90d59d3641f22bc751c243679cebe4d9c41342bd1755ce8",
    "join-nonlinear/baseline/kg/schema.nt":
        "6fc661da54140f65a283d59309731ce4b56d83c1fe9c366b6eefa60995936e5d",
    "join-nonlinear/baseline/kg/test.nt":
        "ed9278ef4a605bbde37d4c90c97da305d9907a18aa24f7a4a743d5b3186d3ff8",
    "join-nonlinear/baseline/kg/train.nt":
        "1046bf3a8067651cfc0d81fa4a685d42edb617ec5651d0a34298a24d4a9e8d5f",
    "join-nonlinear/rddl/kg/counts_test.txt":
        "df52bc87414beffa34f146209a62eccd86812a8ffb8f53aab706780d71eabd18",
    "join-nonlinear/rddl/kg/counts_train.txt":
        "9a4141bbf11ebecbff7396795bbc1842798de750dfdcdb4ac71e7f017509e17a",
    "join-nonlinear/rddl/kg/ground_truth.csv":
        "d489a5e2a37d7cba619772fba7f2708387ad9a414030fefad50753544ece40d9",
    "join-nonlinear/rddl/kg/resolve_counts.txt":
        "36233e1258e02b02f90d59d3641f22bc751c243679cebe4d9c41342bd1755ce8",
    "join-nonlinear/rddl/kg/schema.nt":
        "f81c19b3ff942fe86006860e67fab0ef84fd1cddd33196a744f11ca76a1ee9cf",
    "join-nonlinear/rddl/kg/test.nt":
        "ebaedd032f37d378da78f30c392aa0b1d4afcf3c4110274d5c2d2f7e0a1c147c",
    "join-nonlinear/rddl/kg/train.nt":
        "e63b670c3652e90b1a4405f2997843821b9f6808d3a0c68b4b8fbda07996f27f",
    "selection-nonlinear/baseline/kg/counts_test.txt":
        "93f8ce5a699c08ec9edf260b78778cd22be3c14a73099e34e001cacaa0cad83b",
    "selection-nonlinear/baseline/kg/counts_train.txt":
        "8a397855f20cd0994748ee4e2230fbc7b19fa2f61275028bc2405c09d298c86b",
    "selection-nonlinear/baseline/kg/ground_truth.csv":
        "6a5b4740e5b0802941b743df38844ebf9b6f3fcac30884197bc70dd5aa51a2d3",
    "selection-nonlinear/baseline/kg/resolve_counts.txt":
        "571c3a9b0facac916df34079247b663383e1a5f1d6abadd78830a4b23efe1868",
    "selection-nonlinear/baseline/kg/schema.nt":
        "6fc661da54140f65a283d59309731ce4b56d83c1fe9c366b6eefa60995936e5d",
    "selection-nonlinear/baseline/kg/test.nt":
        "f5a0803c7c106e7bfb6f91303d76e4e5e4ef502a475fb0bced38f9bf18984059",
    "selection-nonlinear/baseline/kg/train.nt":
        "1f85c1d6551f9dd85648041ce8664ec8a7a06c0c834075f52d8e764648068c55",
    "selection-nonlinear/rddl/kg/counts_test.txt":
        "546307da2f6d4432a90121ef165768410f8c1f292bce846745dc306e4f7f2a8a",
    "selection-nonlinear/rddl/kg/counts_train.txt":
        "22b415354116682a8101bb0aa206cf96c42999a96d7a9d07af69c75f327750b6",
    "selection-nonlinear/rddl/kg/ground_truth.csv":
        "f2355fdae6aab56721b1b5dc9d3ec588a33354f4d057ed2b35f24353d55946af",
    "selection-nonlinear/rddl/kg/resolve_counts.txt":
        "571c3a9b0facac916df34079247b663383e1a5f1d6abadd78830a4b23efe1868",
    "selection-nonlinear/rddl/kg/schema.nt":
        "f81c19b3ff942fe86006860e67fab0ef84fd1cddd33196a744f11ca76a1ee9cf",
    "selection-nonlinear/rddl/kg/test.nt":
        "3516c563d692375f5aae1d00ad67f21a85803522424e47916993006f15ab7678",
    "selection-nonlinear/rddl/kg/train.nt":
        "ac3edfbba23f1872455c3d31f2d348c785c80f81f8838280c3b6a43b01fbfb4d",
    "selection-projection/baseline/kg/counts_test.txt":
        "5ca9ef7a81cd3d05bba17058e9b816128f5bafa8ec6b754599120dd5b990c94a",
    "selection-projection/baseline/kg/counts_train.txt":
        "4d7773a0ead8f12487e7605e1f6e470234c728fa09d339c3cb8b5038d0a10b60",
    "selection-projection/baseline/kg/ground_truth.csv":
        "aa3abf304a94628c0d07fdfad458831b1a5210a49d2b6e8ff13f9dbe374301d6",
    "selection-projection/baseline/kg/resolve_counts.txt":
        "5c8b1804228ee76d8e52e2984d9a4744527515d3ce67103a9016807dcce6cef8",
    "selection-projection/baseline/kg/schema.nt":
        "6fc661da54140f65a283d59309731ce4b56d83c1fe9c366b6eefa60995936e5d",
    "selection-projection/baseline/kg/test.nt":
        "602b8d2ae9c666e7594c314083133be27a8b8c9e34156c6ef401953d9017402f",
    "selection-projection/baseline/kg/train.nt":
        "9c0f4a1793cd218c14b9798ee28e362014bbc152455d95856321c77b5e430785",
    "selection-projection/rddl/kg/counts_test.txt":
        "76da441d55fe8d809ae27cb860f123f01062f5fd6c0bb55233de738625d90747",
    "selection-projection/rddl/kg/counts_train.txt":
        "83599d08f2fd9aa9439dbf28959e6eb775029a5fe93fa7307ea551ca45c8bef4",
    "selection-projection/rddl/kg/ground_truth.csv":
        "a5bcc3b213dd9b1f1d6b4cbcae7f5a7fd6a92958831ccd183e81c7b940d49c0c",
    "selection-projection/rddl/kg/resolve_counts.txt":
        "5c8b1804228ee76d8e52e2984d9a4744527515d3ce67103a9016807dcce6cef8",
    "selection-projection/rddl/kg/schema.nt":
        "f81c19b3ff942fe86006860e67fab0ef84fd1cddd33196a744f11ca76a1ee9cf",
    "selection-projection/rddl/kg/test.nt":
        "9c2b1fec7a78f27bfeca13bdcd26f6525675c15a3208f9e2c4981ac66e69d001",
    "selection-projection/rddl/kg/train.nt":
        "26379781d205d3bf30d042df561ad045834dfd74d7492cbd39c020944bba11e3",
    "union-linear/baseline/kg/counts_test.txt":
        "864180dcea261f4329ba1a15d60d05d9390835bcf8e610fe15539820f8456b1f",
    "union-linear/baseline/kg/counts_train.txt":
        "f1b7aa52b3a84a0f4a9fcc8aa6d0383cf9e160b8d4081f2493354e84f4685549",
    "union-linear/baseline/kg/ground_truth.csv":
        "834033f9e93ea166326f4e80c5151f283f8500b29bf6a1fe6bd5e698a3ef9a6b",
    "union-linear/baseline/kg/resolve_counts.txt":
        "5b11d1a10202b1607c66223d9034698b1c885d357a5fa46f049ed66b6f73a926",
    "union-linear/baseline/kg/schema.nt":
        "6fc661da54140f65a283d59309731ce4b56d83c1fe9c366b6eefa60995936e5d",
    "union-linear/baseline/kg/test.nt":
        "ad74712951aaea14ab1bd06620589846af7ea2c4dea01fa8508b4fa91179fbe6",
    "union-linear/baseline/kg/train.nt":
        "4b475ea27533395311d6f24a532f0d733053b41a939c461a603f068f0a9631e6",
    "union-linear/rddl/kg/counts_test.txt":
        "7268fb660ad4a358cb07053b80a99a197e5777d69d50778e6e5b6602315b3008",
    "union-linear/rddl/kg/counts_train.txt":
        "4b9a19806a75eebe6a2dbbb0c0e39fe1f941f8381197a06d904ffbf64ccb5f71",
    "union-linear/rddl/kg/ground_truth.csv":
        "3527c8d6f9e643db7dbd1b766e59bb0b46e89f361faa7646149148fd49dab498",
    "union-linear/rddl/kg/resolve_counts.txt":
        "5b11d1a10202b1607c66223d9034698b1c885d357a5fa46f049ed66b6f73a926",
    "union-linear/rddl/kg/schema.nt":
        "f81c19b3ff942fe86006860e67fab0ef84fd1cddd33196a744f11ca76a1ee9cf",
    "union-linear/rddl/kg/test.nt":
        "d87fa89c28b01ac39511c6bda583e565e749e1cb7a9f8383f44964e8c5c274c4",
    "union-linear/rddl/kg/train.nt":
        "1f28cb27a637290408f96577be4a0fb931fcd8582d9822d27a0d14246b8ca86a",
}

# sha256 of what gen-scenarios writes for the same manifest and tasks: each
# task's manifest.tsv, and its lineage CSVs taken together (each file's name, a
# NUL byte and its bytes, in name order).  Scenario generation keeps a drawn
# transformation only when value resolution is unambiguous, so a change to that
# check or to execution that accepts other draws alters these bytes.
SCENARIO_ARTIFACT_DIGESTS = {
    "join-nonlinear/scenarios/lineage/*.csv":
        "feb3baeddb228018839e802b50ce3d05d2ba91185db3f0d8133f3eb6836a7fa8",
    "join-nonlinear/scenarios/manifest.tsv":
        "95d29d77314f1582eda895e8b1ee72a439196e05ce943bfc6de0f6d7ede04d1b",
    "selection-nonlinear/scenarios/lineage/*.csv":
        "761f89ad95350066e562ec14eab254bf1ae10e2cf22280bb998dced318472e0d",
    "selection-nonlinear/scenarios/manifest.tsv":
        "9d876cd20ecdec84bae65c5bf81db65459b5deca5e59215c4b497d7ac37ac9c6",
    "selection-projection/scenarios/lineage/*.csv":
        "f9c92777deec8321eeccf0fdff7bd43f9818b79c328fdef07bff5492a025a3b7",
    "selection-projection/scenarios/manifest.tsv":
        "783d45d79a5cb47693d38a51faac640f7289a2063624df1d67de10bbbf0aa3cb",
    "union-linear/scenarios/lineage/*.csv":
        "227fceaa1490c136a7aa64775145c5bd241e4e1039a1572c18cc1d9d868c01b8",
    "union-linear/scenarios/manifest.tsv":
        "d1ab1df60f9566baa6371fd2f71a641d084b028c0d6fd65e580ccef71677efbb",
}


def scenario_digests(out) -> dict:
    """SCENARIO_ARTIFACT_DIGESTS, computed for the tasks under out."""
    digests = {}
    for root in sorted(out.glob("*/scenarios")):
        name = root.relative_to(out).as_posix()
        digests[f"{name}/manifest.tsv"] = hashlib.sha256(
            (root / "manifest.tsv").read_bytes()).hexdigest()
        lineage = hashlib.sha256()
        for path in sorted(root.glob("lineage/*.csv")):
            lineage.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[f"{name}/lineage/*.csv"] = lineage.hexdigest()
    return digests


# sha256 of the sample files sample-paths writes for tiny_manifest(profile="both").
# The sampler is seeded per pair and pure Python, so a change to the walk step
# that alters the draw sequence alters these bytes.
SAMPLE_ARTIFACT_DIGESTS = {
    "selection-projection/baseline/samples/eval_neg.txt":
        "6cd864437f0ec7632e2c89df2257b660a48475f03003a383e1be41921dcdfc07",
    "selection-projection/baseline/samples/eval_pos.txt":
        "9d6d19a3b08f23a4c581fcdf12e9c45c6c3b98cb58e3050a094692b20ee34e26",
    "selection-projection/baseline/samples/train.txt":
        "bebb752034b130c019efcd22ae749aa61abe5f5e007c626967b64008efbb10e8",
    "selection-projection/baseline/samples/vocab.txt":
        "6c4c532bb15e388491493c12872a62c0a7a324a0267e1a08455a2158e3394a76",
    "selection-projection/rddl/samples/eval_neg.txt":
        "fbd50608e4d6100f342eb731ba54aee4e98d72ca8677bb9aeec1cc90d10cb9a5",
    "selection-projection/rddl/samples/eval_pos.txt":
        "d3d79db3091cd46991e6be7acee79e2de0790e56330ead2f37285fe3f522900d",
    "selection-projection/rddl/samples/train.txt":
        "b2bbea885c6df5dcfcf52aa6f58d4167d178c9e0e1397d0b304f130b47c3dde5",
    "selection-projection/rddl/samples/vocab.txt":
        "f496b2be5dfc490a587ad049a82f3ffb44b9527005aeccc5efe4819d7afee45a",
}


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
        ("epochs", 1.5), ("num_paths", 2.0), ("batch_size", True),
        ("seed", "0"), ("restart_prob", "0.2"), ("learning_rate", None),
        ("learning_rate", False), ("tasks", []), ("tasks", "selection-projection"),
        ("tasks", ["selection-projection", "selection-projection"]), ("seed", -5),
    ])
    def test_rejects_before_any_stage(self, tmp_path, field, value):
        manifest = tiny_manifest(tmp_path, **{field: value})
        with pytest.raises(ManifestError, match=field):
            manifest.validate()
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append)
        assert status == 1
        assert not any(line.startswith("[run ]") for line in logs)

    def test_non_string_out_dir_rejected(self):
        manifest = tiny_manifest("unused")
        manifest.out_dir = 5
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append)
        assert status == 1
        assert logs == ["validation error: out_dir must be str, got 5"]


# ROADMAP item 11: every manifest that validate accepts must run.  Each field
# of the tiny manifest at its edge must run to finite scores, and each just
# past it must fail validation, up front or, for a bound that only the data
# sets, in the stage that meets it.  The strict xfail is a known gap that
# validate accepts and that fails a stage instead (exit 2).
ITEM_11_GAP = "ROADMAP item 11: validate accepts it, and a stage fails with exit 2"


def edge(accepted, marks=(), **fields):
    return pytest.param(fields, accepted, marks=marks,
                        id=",".join(f"{name}={value!r}" for name, value in fields.items()))


@pytest.mark.parametrize("fields, accepted", [
    edge(True, k_negatives=0), edge(False, k_negatives=-1),
    edge(True, max_length=1), edge(False, max_length=0),
    edge(True, num_paths=1), edge(False, num_paths=0),
    edge(True, batch_size=1), edge(False, batch_size=0),
    edge(True, learning_rate=0), edge(False, learning_rate=-5e-324),
    edge(True, rows_per_table=2), edge(False, rows_per_table=1),
    edge(True, restart_prob=1), edge(False, restart_prob=math.nextafter(1.0, 2.0)),
    edge(True, walk_budget=1), edge(False, walk_budget=0),
    edge(True, scenarios_per_task=2, train_scenarios=1),
    edge(False, scenarios_per_task=2, train_scenarios=2),
    edge(False, scenarios_per_task=2, train_scenarios=0),
    # more negatives than the test graph has unlinked row pairs
    edge(False, eval_negatives=10 ** 6),
    # the first Adam step overflows the next batch
    edge(True, pytest.mark.xfail(strict=True, reason=ITEM_11_GAP), learning_rate=1e300),
])
def test_manifest_at_and_past_each_edge(tmp_path, fields, accepted):
    logs = []
    status, results = run_pipeline(tiny_manifest(tmp_path, **fields), echo=logs.append)
    if not accepted:
        assert status == 1 and logs[-1].startswith("validation error: "), logs
        return
    assert status == 0, logs[-1:]
    rows = read_results(results)
    assert rows and all(math.isfinite(value) for row in rows for value in row.metrics())
    scores = (tmp_path / "selection-projection" / "rddl" / "eval" / "scores.tsv")
    assert all(math.isfinite(float(line.split("\t")[1]))
               for line in scores.read_text().splitlines()[1:])


class TestPipeline:
    def test_run_succeeds(self, completed_run):
        _, out, status, results, _ = completed_run
        assert status == 0
        assert results is not None and results.is_file()

    def test_artifacts_exist(self, completed_run):
        _, out, _, _, _ = completed_run
        kg = out / "selection-projection" / "rddl" / "kg"
        for name in ("train.nt", "test.nt", "ground_truth.csv", "counts_train.txt",
                     "counts_test.txt", "resolve_counts.txt", "schema.nt"):
            assert (kg / name).is_file(), name
        samples = out / "selection-projection" / "rddl" / "samples"
        for name in ("train.txt", "eval_pos.txt", "eval_neg.txt", "vocab.txt",
                     "walk_stats.txt"):
            assert (samples / name).is_file(), name
        assert (out / "selection-projection" / "rddl" / "model" / "checkpoint.bin").is_file()
        assert (out / "results.tsv").is_file()
        assert (out / "report.txt").is_file()

    def test_walk_stats_match_samples(self, completed_run):
        manifest, out, _, _, _ = completed_run
        samples = out / "selection-projection" / "rddl" / "samples"
        stats = dict(line.split("=") for line in
                     (samples / "walk_stats.txt").read_text().splitlines())
        stats = {key: int(value) for key, value in stats.items()}
        budget = manifest.walk_budget * manifest.num_paths
        for part in ("train", "eval_pos", "eval_neg"):
            lines = (samples / f"{part}.txt").read_text().splitlines()
            if part == "train":  # one positive, then k negatives, per pair
                lines = lines[::1 + manifest.k_negatives]
            nopath = sum(1 for line in lines if line.split()[2] == "1")
            assert stats[f"{part}.pairs"] == len(lines) > 0
            assert stats[f"{part}.nopath"] == nopath
            assert (stats[f"{part}.walks_reached"]
                    <= stats[f"{part}.walks_attempted"]
                    <= budget * len(lines))
        assert stats["eval_neg.pairs"] == manifest.eval_negatives

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

    def test_sidecars_record_seconds_and_processes(self, completed_run):
        _, out, _, _, _ = completed_run
        records = {path.name: json.loads(path.read_text())
                   for path in out.rglob(".stage_*.ok")}
        assert len(records) == 6
        for name, record in records.items():
            assert isinstance(record["seconds"], float) and record["seconds"] >= 0
            assert ("processes" in record) == (name == ".stage_sample-paths.ok")
        assert records[".stage_sample-paths.ok"]["processes"] >= 1

    def test_rerun_ignores_recorded_seconds_and_processes(self, completed_run):
        manifest, out, _, _, _ = completed_run
        for path in out.rglob(".stage_*.ok"):
            record = json.loads(path.read_text())
            record["seconds"] = -1.0
            if "processes" in record:
                record["processes"] = 99
            path.write_text(json.dumps(record))
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append)
        assert status == 0
        assert all(not line.startswith("[run ]") for line in logs if line.startswith("["))

    def test_sidecars_record_graph_and_train_counts(self, completed_run):
        manifest, out, _, _, _ = completed_run
        cell = out / "selection-projection" / "rddl"
        graph = json.loads((cell / ".stage_build-kg.ok").read_text())
        for part in ("train", "test"):
            triples = (cell / "kg" / f"{part}.nt").read_text().splitlines()
            assert graph[f"{part}_triples"] == len(triples) > 0
        resolved = dict(line.split("=") for line in
                        (cell / "kg" / "resolve_counts.txt").read_text().splitlines())
        assert graph["resolve_counts"] == {k: int(v) for k, v in resolved.items()}
        for part in ("train", "test"):
            parsed = parse_ntriples((cell / "kg" / f"{part}.nt").read_text())
            assert graph[f"{part}_nodes"] == parsed.num_nodes > 0
        # the generator keeps only transformations whose every tuple resolves
        suite = load_suite(out / "selection-projection" / "scenarios")
        tuples = [len(s.all_tuples()) for s in suite.scenarios_for("selection-projection")]
        assert graph["train_tuples_matched"] == sum(tuples[:manifest.train_scenarios]) > 0
        assert graph["test_tuples_matched"] == sum(tuples[manifest.train_scenarios:]) > 0
        train = json.loads((cell / ".stage_train.ok").read_text())
        samples = len((cell / "samples" / "train.txt").read_text().splitlines())
        assert train["samples"] == samples
        assert [f"epoch {i} mean_loss {loss!r}"
                for i, loss in enumerate(train["epoch_losses"])] == (
            cell / "model" / "losses.txt").read_text().splitlines()
        assert train["path_rows"] == samples * manifest.num_paths * manifest.epochs
        # every NOPATH path is one row, so a batch holds fewer distinct paths
        assert 0 < train["lstm_rows"] < train["path_rows"]
        # the LSTM computes only the non-PAD steps of those rows
        assert 0 < train["lstm_positions"] <= train["lstm_rows"] * manifest.max_length

    def test_rerun_ignores_recorded_graph_and_train_counts(self, completed_run):
        manifest, out, _, _, _ = completed_run
        cell = out / "selection-projection" / "rddl"
        edits = {
            ".stage_build-kg.ok": dict(train_triples=-1, test_triples=-1,
                                       train_nodes=-1, test_nodes=-1,
                                       resolve_counts={}, train_tuples_matched=-1,
                                       test_tuples_matched=-1),
            ".stage_train.ok": dict(samples=-1, epoch_losses=[], path_rows=-1,
                                    lstm_rows=-1, lstm_positions=-1),
        }
        for name, fields in edits.items():
            record = json.loads((cell / name).read_text())
            assert set(fields) <= set(record)
            record.update(fields)
            (cell / name).write_text(json.dumps(record))
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append)
        assert status == 0
        assert all(not line.startswith("[run ]") for line in logs if line.startswith("["))

    @pytest.mark.parametrize("damage", ["missing", "stray"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_stage_isolation(self, completed_run, stage, damage):
        # a stage's outputs are the files in its directory: one file fewer or
        # one more reruns it and every later stage.  Report's outputs are its
        # two files in the run's root, where a stray file reruns nothing
        manifest, out, _, _, _ = completed_run
        task = "selection-projection"
        parent = {"gen-scenarios": out / task, "report": out}.get(stage, out / task / "rddl")
        directory = parent / STAGE_DIRS[stage]
        if damage == "missing":
            removed = (out / "report.txt" if stage == "report"
                       else max(p for p in directory.rglob("*") if p.is_file()))
            kept = removed.read_bytes()
            removed.unlink()
        else:
            (directory / f"stray-{stage}.txt").write_text("stray\n")
        labels = [label for label in BOTH_LABELS if "baseline" not in label]
        first = len(STAGES) if (stage, damage) == ("report", "stray") else STAGES.index(stage)
        assert run_pipeline_logs(manifest) == (0, [
            f"[{'run ' if i >= first else 'skip'}] {label}"
            for i, label in enumerate(labels)])
        if damage == "missing":
            assert removed.read_bytes() == kept
        else:  # left in place, and now one of the stage's recorded outputs
            assert (directory / f"stray-{stage}.txt").is_file()
        assert run_pipeline_logs(manifest) == (0, [f"[skip] {label}" for label in labels])

    @pytest.mark.parametrize("damage", ["missing", "stray"])
    def test_missing_lineage_file_reruns_gen_scenarios(self, tmp_path, damage):
        manifest = tiny_manifest(tmp_path)
        status, _ = run_pipeline(manifest, echo=lambda *_: None,
                                 only_stage="gen-scenarios")
        assert status == 0
        lineage = sorted((tmp_path / "selection-projection" / "scenarios"
                          / "lineage").glob("*.csv"))
        assert len(lineage) == 3 * 4  # scenarios x transformations
        kept = lineage[-1].read_bytes()
        if damage == "missing":
            lineage[-1].unlink()
        else:  # a file in a subdirectory of the stage's directory counts too
            (lineage[-1].parent / "stray.csv").write_text("t1,c1,v1,t2,c2,v2\n")
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append,
                                 only_stage="gen-scenarios")
        assert status == 0
        assert logs == ["[run ] gen-scenarios/selection-projection"]
        assert lineage[-1].read_bytes() == kept

    def test_overflowing_learning_rate_fails_train(self, tmp_path):
        # the first Adam step moves every parameter by about 1e300, so the
        # next batch overflows; it must not train on to scores of 0.5.  Numpy
        # warnings are not errors outside this test suite, so ignore them here
        logs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            status, _ = run_pipeline(tiny_manifest(tmp_path, learning_rate=1e300),
                                     echo=logs.append)
        assert status == 2
        assert logs[-2] == "[run ] train/selection-projection/rddl"
        assert re.fullmatch(r"stage 'train/selection-projection/rddl' failed: floating-point"
                            r" error at epoch 0 batch [1-9]\d*: overflow .*", logs[-1])

    def test_unsatisfiable_eval_negatives_fail_before_train_walks(self, tmp_path,
                                                                  monkeypatch):
        # only the test graph bounds eval_negatives, so sample-paths checks
        # it, as a validation error, whether the cell's pairs fork (two CPUs)
        # or nothing forks; the negatives are drawn
        # before any train-set walk, so the stage fails without writing
        # train.txt
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        status, logs = run_pipeline_logs(tiny_manifest(tmp_path / "out",
                                                       eval_negatives=10 ** 6))
        assert serial_run(tmp_path / "serial", monkeypatch, eval_negatives=10 ** 6) == (
            status, ["[run ] gen-scenarios/selection-projection",
                     "[run ] build-kg/selection-projection/rddl"] + logs)
        assert status == 1
        assert len(logs) == 1 and re.fullmatch(
            r"validation error: eval_negatives: only \d+ distinct non-linked row"
            r" pairs available, 1000000 negatives requested", logs[0])
        for run in ("out", "serial"):
            samples = tmp_path / run / "selection-projection" / "rddl" / "samples"
            assert not (samples / "train.txt").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("damage", [
        lambda record: b"[]",
        lambda record: b'"x"',
        lambda record: json.dumps({**record, "outputs": []}).encode(),
        lambda record: b"\xff",
    ], ids=["list", "string", "outputs-list", "not-utf-8"])
    def test_malformed_sidecar_reruns_gen_scenarios(self, tmp_path, damage):
        manifest = tiny_manifest(tmp_path)
        status, _ = run_pipeline(manifest, echo=lambda *_: None,
                                 only_stage="gen-scenarios")
        assert status == 0
        ok = next(tmp_path.rglob(".stage_gen-scenarios.ok"))
        ok.write_bytes(damage(json.loads(ok.read_text())))
        logs = []
        status, _ = run_pipeline(manifest, echo=logs.append,
                                 only_stage="gen-scenarios")
        assert status == 0
        assert logs == ["[run ] gen-scenarios/selection-projection"]

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


    def test_graph_artifacts_pinned(self, tmp_path):
        manifest = tiny_manifest(tmp_path, profile="both", tasks=PINNED_GRAPH_TASKS)
        for stage in ("gen-scenarios", "build-kg"):
            status, _ = run_pipeline(manifest, echo=lambda *_: None, only_stage=stage)
            assert status == 0
        digests = {
            path.relative_to(tmp_path).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.rglob("kg/*")
        }
        assert digests == GRAPH_ARTIFACT_DIGESTS
        assert scenario_digests(tmp_path) == SCENARIO_ARTIFACT_DIGESTS

    def test_sample_artifacts_pinned(self, tmp_path):
        manifest = tiny_manifest(tmp_path, profile="both")
        for stage in ("gen-scenarios", "build-kg", "sample-paths"):
            status, _ = run_pipeline(manifest, echo=lambda *_: None, only_stage=stage)
            assert status == 0
        digests = {
            path.relative_to(tmp_path).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
            for name in ("train", "eval_pos", "eval_neg", "vocab")
            for path in tmp_path.rglob(f"samples/{name}.txt")
        }
        assert digests == SAMPLE_ARTIFACT_DIGESTS

    def test_samples_independent_of_process_count(self, tmp_path, monkeypatch):
        trees = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / str(cpus)
            manifest = tiny_manifest(out)
            for stage in ("gen-scenarios", "build-kg", "sample-paths"):
                status, _ = run_pipeline(manifest, echo=lambda *_: None, only_stage=stage)
                assert status == 0
            sidecar = json.loads(next(out.rglob(".stage_sample-paths.ok")).read_text())
            assert sidecar["processes"] == cpus
            trees.append({path.relative_to(out): path.read_bytes()
                          for path in out.rglob("samples/*")})
        assert len(trees[0]) == 5 and trees[0] == trees[1]


# the stage labels of tiny_manifest(profile="both"), in serial order
BOTH_LABELS = ["gen-scenarios/selection-projection"] + [
    f"{stage}/selection-projection/{profile}" for profile in ("baseline", "rddl")
    for stage in ("build-kg", "sample-paths", "train", "evaluate")] + ["report"]


def serial_log(skipped=()):
    """The log of a serial run of tiny_manifest(profile="both") that skips the
    stages labelled in skipped and runs the others."""
    return [f"[{'skip' if label in skipped else 'run '}] {label}" for label in BOTH_LABELS]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCellWorkers:
    """tiny_manifest(profile="both") has two cells.  With two usable CPUs
    (faked) the rddl cell runs in a forked worker, and each cell's process is
    pinned to one of them; with one, both run here, as a serial loop would."""

    @staticmethod
    def run(out, cpus, monkeypatch, **overrides):
        """Status, log, and the CPU sets each process pinned itself to, by pid;
        the pins are recorded, not made, so this process keeps its real CPUs,
        and each process's faked CPUs are the ones it last pinned itself to."""
        pins = out.parent / f"{out.name}.pins"
        pins.write_text("")
        usable = {"cpus": set(range(cpus))}

        def pin(pid, mask):
            with pins.open("a") as fh:
                fh.write(f"{os.getpid()} {json.dumps(sorted(mask))}\n")
            usable["cpus"] = set(mask)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable["cpus"]))
        monkeypatch.setattr(os, "sched_setaffinity", pin)
        logs = []
        status, _ = run_pipeline(tiny_manifest(out, profile="both", **overrides),
                                 echo=logs.append)
        by_pid = {}
        for line in pins.read_text().splitlines():
            pid, mask = line.split(" ", 1)
            by_pid.setdefault(int(pid), []).append(json.loads(mask))
        return status, logs, by_pid

    @staticmethod
    def tree(out):
        return {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                if path.is_file() and path.name != "manifest.json"
                and not path.name.startswith(".stage_")}

    def test_same_artifacts_and_log_for_one_or_two_cpus(self, tmp_path, monkeypatch):
        runs = {}
        for cpus in (1, 2):
            status, logs, pins = self.run(tmp_path / str(cpus), cpus, monkeypatch)
            assert status == 0
            runs[cpus] = logs, self.tree(tmp_path / str(cpus))
            if cpus == 1:
                assert pins == {}
            else:  # this process ran the baseline cell on CPU 0, then got both back
                assert pins.pop(os.getpid()) == [[0], [0, 1]]
                assert list(pins.values()) == [[[1]]]
        assert runs[1][0] == runs[2][0] == serial_log()
        assert runs[1][1] == runs[2][1]
        assert len(runs[1][1]) > 30
        assert_no_child_left()

    def test_cells_fewer_than_cpus_walk_beside_their_trainers(self, tmp_path, monkeypatch):
        # four CPUs, two cells: each cell's share holds two, so each cell's
        # process forks two children that walk its pairs at nice 19 and pin
        # nothing, while it trains
        niced = tmp_path / "niced"
        niced.write_text("")

        def nice(increment):
            with niced.open("a") as fh:
                fh.write(f"{os.getpid()} {os.getppid()} {increment}\n")
            return increment

        monkeypatch.setattr(os, "nice", nice)
        runs = {}
        for cpus in (1, 4):
            status, logs, pins = self.run(tmp_path / str(cpus), cpus, monkeypatch)
            assert (status, logs) == (0, serial_log())
            runs[cpus] = self.tree(tmp_path / str(cpus))
        assert pins.pop(os.getpid()) == [[0, 2], [0, 1, 2, 3]]
        assert list(pins.values()) == [[[1, 3]]]
        walkers = [line.split() for line in niced.read_text().splitlines()]
        assert [increment for _, _, increment in walkers] == ["19"] * 4
        cells = {os.getpid(), *pins}  # this process ran the baseline cell
        assert sorted(int(ppid) for _, ppid, _ in walkers) == sorted([*cells] * 2)
        assert not {int(pid) for pid, _, _ in walkers} & cells
        assert runs[1] == runs[4]
        assert_no_child_left()

    def test_each_worker_runs_a_cell_of_each_profile(self, tmp_path, monkeypatch):
        # the cells in serial order alternate baseline and rddl: dealt i % 2,
        # one worker would train every baseline model and the other every rddl one
        trained = tmp_path / "trained"
        trained.write_text("")
        save_checkpoint = siamese.save_checkpoint

        def recording(params, path):
            with trained.open("a") as fh:  # .../<task>/<profile>/model/checkpoint.bin
                fh.write(f"{os.getpid()} {path.parent.parent.name}\n")
            save_checkpoint(params, path)

        monkeypatch.setattr(siamese, "save_checkpoint", recording)
        runs = {}
        for cpus in (1, 2):
            status, logs, _ = self.run(tmp_path / str(cpus), cpus, monkeypatch,
                                       tasks=["selection-projection", "union-linear"])
            assert status == 0
            runs[cpus] = logs, self.tree(tmp_path / str(cpus))
        assert runs[1] == runs[2]
        by_pid = {}
        for line in trained.read_text().splitlines()[4:]:  # the two-CPU run's
            pid, profile = line.split()
            by_pid.setdefault(pid, []).append(profile)
        assert sorted(sorted(profiles) for profiles in by_pid.values()) == [
            ["baseline", "rddl"], ["baseline", "rddl"]]
        assert_no_child_left()

    def test_rerun_cascades_into_the_later_cell(self, tmp_path, monkeypatch):
        logs = {}
        for cpus in (1, 2):
            out = tmp_path / str(cpus)
            assert self.run(out, cpus, monkeypatch)[0] == 0
            (out / "selection-projection" / "baseline" / "model" / "checkpoint.bin").unlink()
            status, logs[cpus], _ = self.run(out, cpus, monkeypatch)
            assert status == 0
        assert logs[1] == logs[2] == serial_log(skipped=BOTH_LABELS[:3])

    def test_stage_failing_in_the_second_cell(self, tmp_path, monkeypatch):
        save_checkpoint = siamese.save_checkpoint

        def failing(params, path):
            if "rddl" in str(path):
                raise OSError("disk full")
            save_checkpoint(params, path)

        monkeypatch.setattr(siamese, "save_checkpoint", failing)
        logs = {}
        for cpus in (1, 2):
            status, logs[cpus], _ = self.run(tmp_path / str(cpus), cpus, monkeypatch)
            assert status == 2
            assert not (tmp_path / str(cpus) / "report.txt").exists()
        failed = BOTH_LABELS.index("train/selection-projection/rddl")
        assert logs[1] == logs[2] == serial_log()[:failed + 1] + [
            "stage 'train/selection-projection/rddl' failed: disk full"]
        assert_no_child_left()

    def test_worker_that_dies_fails_the_run(self, tmp_path, monkeypatch):
        save_checkpoint, caller = siamese.save_checkpoint, os.getpid()

        def dying(params, path):
            if "rddl" not in str(path):
                return save_checkpoint(params, path)
            assert os.getpid() != caller, "the rddl cell runs in a worker"
            os._exit(3)

        monkeypatch.setattr(siamese, "save_checkpoint", dying)
        status, logs, _ = self.run(tmp_path / "out", 2, monkeypatch)
        assert status == 2
        assert logs[-1].endswith("exited with code 3")
        assert_no_child_left()

    def test_cpu_ids_that_cannot_be_pinned_are_left_alone(self, tmp_path, monkeypatch):
        real = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4096, 4097})
        logs = []
        status, _ = run_pipeline(tiny_manifest(tmp_path, profile="both"), echo=logs.append)
        assert status == 0
        assert logs == serial_log()
        assert_no_child_left()
        monkeypatch.undo()
        assert os.sched_getaffinity(0) == real


CELL = "selection-projection/rddl"


@pytest.fixture
def deadline():
    """Fails the test, instead of hanging it, after 60 seconds (forked
    children do not inherit the alarm)."""
    def expired(signum, frame):
        raise TimeoutError("the run did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def no_fork():
    raise OSError("fork failed")


def note(record, *words):
    with record.open("a") as fh:
        fh.write(" ".join(map(str, words)) + "\n")


def record_walks(record, monkeypatch):
    """Notes each training pair walked in ``record``: "walk", the walking
    process's pid, its parent's pid, the pair index and its niceness."""
    walk = paths.TrainingPairs.walk

    def recording(pairs, index):
        note(record, "walk", os.getpid(), os.getppid(), index, os.nice(0))
        return walk(pairs, index)

    record.write_text("")
    monkeypatch.setattr(paths.TrainingPairs, "walk", recording)


def walks_by_process(record):
    """The training pairs walked per ``record_walks``, by pid: the parent
    pids, the pair indices in the order walked and the nicenesses."""
    by_pid = {}
    for line in record.read_text().splitlines():
        kind, *words = line.split()
        if kind == "walk":
            pid, ppid, index, niceness = words
            parents, indices, nicenesses = by_pid.setdefault(pid, (set(), [], set()))
            parents.add(ppid)
            indices.append(int(index))
            nicenesses.add(niceness)
    return by_pid


def serial_run(out, monkeypatch, **overrides):
    """tiny_manifest run one stage at a time, as the stage subcommands run it,
    in this process alone, as where nothing can be forked, up to the first
    stage that fails.  Status and log."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        logs, manifest = [], tiny_manifest(out, **overrides)
        for stage in STAGES:
            status, _ = run_pipeline(manifest, echo=logs.append, only_stage=stage)
            if status:
                break
    return status, logs


def unforked_run(out, monkeypatch, **overrides):
    """tiny_manifest run in one call where no child can be forked: on two or
    more CPUs, the cell trains between its own walks.  Status and log."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        return run_pipeline_logs(tiny_manifest(out, **overrides))


@pytest.mark.usefixtures("deadline")
class TestSampleAndTrainTogether:
    """A cell that runs sample-paths and train on two or more CPUs runs them at
    once: this process (or the cell's worker) trains while its forked
    children, the walkers, walk the pairs, or, where no child can be forked,
    between its own walks.  On one CPU it runs them one after the other.
    Tests fake two CPUs unless they say otherwise."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.mark.parametrize("k_negatives", [0, 2])
    def test_one_call_equals_stage_by_stage(self, tmp_path, monkeypatch, k_negatives):
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None)
        trees = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            runs = {}
            for way in ("one-call", "by-stage"):
                out = tmp_path / f"{way}-{cpus}"
                manifest = tiny_manifest(out, profile="both", k_negatives=k_negatives,
                                         epochs=2)
                logs = []
                for stage in ((None,) if way == "one-call" else STAGES):
                    status, _ = run_pipeline(manifest, echo=logs.append, only_stage=stage)
                    assert status == 0, logs
                runs[way] = logs, TestCellWorkers.tree(out)
            assert runs["one-call"][0] == serial_log()
            assert runs["by-stage"][0] == [
                f"[run ] {label}" for stage in STAGES for label in BOTH_LABELS
                if label.split("/")[0] == stage]
            assert runs["one-call"][1] == runs["by-stage"][1]
            trees[cpus] = runs["one-call"][1]
        assert trees[1] == trees[2] == trees[3]
        assert_no_child_left()

    def test_walker_walks_each_share_in_first_epoch_order_at_low_priority(
            self, tmp_path, monkeypatch):
        # the walkers are the cell's walking children
        record = tmp_path / "record"
        record_walks(record, monkeypatch)
        fork_imap, caller = parallel.fork_imap, os.getpid()

        def noting(count, fn, batch, background=False):  # what the trainer takes in
            results, sent = fork_imap(count, fn, batch, background), None
            while True:
                try:
                    result = results.send(sent)
                except StopIteration:
                    return
                if result is not None and os.getpid() == caller:
                    note(record, "received", result[0])
                sent = yield result

        save_checkpoint, saved = siamese.save_checkpoint, []

        def checking(params, path):
            cell = tmp_path / "out" / CELL
            saved.append((sorted(p.name for p in (cell / "samples").iterdir()),
                          (cell / ".stage_sample-paths.ok").is_file()))
            save_checkpoint(params, path)

        monkeypatch.setattr(paths, "fork_imap", noting)
        monkeypatch.setattr(siamese, "save_checkpoint", checking)
        manifest = tiny_manifest(tmp_path / "out", k_negatives=2)
        status, _ = run_pipeline(manifest, echo=lambda *_: None)
        assert status == 0
        walks = walks_by_process(record)
        pairs = sum(len(indices) for _, indices, _ in walks.values())
        first_epoch = next(siamese.epoch_orders(3 * pairs, manifest.seed))
        order = list(dict.fromkeys(i // 3 for i in first_epoch))
        # two children of the cell's process each walk every other pair of
        # the order, in order, at nice 19, and the cell's process walks none
        assert str(caller) not in walks
        assert sorted(walks.values()) == [({str(caller)}, order[0::2], {"19"}),
                                          ({str(caller)}, order[1::2], {"19"})]
        # each child then walks its eval pairs, and sends every pair as walked
        received = [int(line.split()[1]) for line in record.read_text().splitlines()
                    if line.startswith("received")]
        assert sorted(received) == list(range(len(received))) and len(received) > pairs
        for share in (0, 1):
            assert [j for j in received if j % 2 == share] == list(
                range(share, len(received), 2))
        assert os.nice(0) < 19  # the trainer's priority is its own
        # sample-paths had written every sample file and its sidecar
        assert saved == [(["eval_neg.txt", "eval_pos.txt", "train.txt", "vocab.txt",
                           "walk_stats.txt"], True)]
        sidecar = json.loads((tmp_path / "out" / CELL / ".stage_sample-paths.ok")
                             .read_text())
        assert sidecar["processes"] == 2
        assert_no_child_left()

    def test_sample_paths_alone_walks_each_share_in_first_epoch_order(
            self, tmp_path, monkeypatch):
        record = tmp_path / "record"
        record_walks(record, monkeypatch)
        manifest = tiny_manifest(tmp_path / "out", k_negatives=2)
        for stage in ("gen-scenarios", "build-kg", "sample-paths"):
            assert run_pipeline(manifest, echo=lambda *_: None, only_stage=stage)[0] == 0
        walks = walks_by_process(record)
        pairs = sum(len(indices) for _, indices, _ in walks.values())
        first_epoch = next(siamese.epoch_orders(3 * pairs, manifest.seed))
        order = list(dict.fromkeys(i // 3 for i in first_epoch))
        here = str(os.getpid())
        assert here not in walks
        assert sorted(walks.values()) == [({here}, order[0::2], {"19"}),
                                          ({here}, order[1::2], {"19"})]
        assert_no_child_left()

    def test_cell_process_indexes_no_test_graph_when_pairs_fork(self, tmp_path,
                                                                 monkeypatch):
        # each walking child indexes the test graph itself, at its first eval
        # pair, so the cell's process never holds both graphs' indexes
        record, init = tmp_path / "record", paths.PathSampler.__init__

        def noting(sampler, g, cfg):
            note(record, os.getpid(), os.getppid(), len(g))
            init(sampler, g, cfg)

        manifest = tiny_manifest(tmp_path / "out")
        for stage in ("gen-scenarios", "build-kg"):
            assert run_pipeline(manifest, echo=lambda *_: None, only_stage=stage)[0] == 0
        record.write_text("")
        monkeypatch.setattr(paths.PathSampler, "__init__", noting)
        assert run_pipeline(manifest, echo=lambda *_: None, only_stage="sample-paths")[0] == 0
        kg = tmp_path / "out" / CELL / "kg"
        train, test = (len((kg / f"{part}.nt").read_text().splitlines())
                       for part in ("train", "test"))
        assert train != test
        here, parent = str(os.getpid()), str(os.getppid())
        built = sorted(line.split() for line in record.read_text().splitlines())
        assert [words for words in built if words[0] == here] == [[here, parent, str(train)]]
        children = [words for words in built if words[0] != here]
        assert [(ppid, triples) for _, ppid, triples in children] == [(here, str(test))] * 2
        assert_no_child_left()

    def test_cell_runs_its_stages_one_by_one_where_nothing_forks(
            self, tmp_path, monkeypatch):
        # on one CPU, nothing forks, and train reads train.txt once every
        # pair is walked
        record, forward_batch = tmp_path / "record", siamese.forward_batch

        def noting(params, samples):
            note(record, "batch")
            return forward_batch(params, samples)

        def no_child(fn):
            raise AssertionError("a child was forked")

        forked = run_pipeline_logs(tiny_manifest(tmp_path / "forked"))
        assert forked[0] == 0
        record_walks(record, monkeypatch)
        monkeypatch.setattr(siamese, "forward_batch", noting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(parallel, "Forked", no_child)
        assert run_pipeline_logs(tiny_manifest(tmp_path / "out")) == forked
        kinds = [line.split()[0] for line in record.read_text().splitlines()]
        assert set(walks_by_process(record)) == {str(os.getpid())}
        assert "batch" not in kinds[:len(kinds) - kinds[::-1].index("walk")]
        assert serial_run(tmp_path / "serial", monkeypatch) == forked
        assert (TestCellWorkers.tree(tmp_path / "forked")
                == TestCellWorkers.tree(tmp_path / "out")
                == TestCellWorkers.tree(tmp_path / "serial"))
        assert_no_child_left()

    def test_cell_on_one_cpu_forks_no_walker(self, tmp_path, monkeypatch):
        def no_walker(fn):
            raise AssertionError("a walker was forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(parallel, "Forked", no_walker)
        assert run_pipeline_logs(tiny_manifest(tmp_path)) == (0, [
            line for line in serial_log() if "baseline" not in line])

    def test_cell_where_no_child_forks_trains_between_its_walks(
            self, tmp_path, monkeypatch):
        # two CPUs and a failing fork: the cell's process walks every pair,
        # and trains on each batch once its pairs are in
        record, forward_batch = tmp_path / "record", siamese.forward_batch

        def noting(params, samples):
            note(record, "batch")
            return forward_batch(params, samples)

        record_walks(record, monkeypatch)
        monkeypatch.setattr(siamese, "forward_batch", noting)
        status, logs = unforked_run(tmp_path / "out", monkeypatch)
        kinds = [line.split()[0] for line in record.read_text().splitlines()]
        assert set(walks_by_process(record)) == {str(os.getpid())}
        assert kinds.index("batch") < len(kinds) - 1 - kinds[::-1].index("walk")
        assert serial_run(tmp_path / "serial", monkeypatch) == (status, logs) == (
            0, [line for line in serial_log() if "baseline" not in line])
        assert (TestCellWorkers.tree(tmp_path / "out")
                == TestCellWorkers.tree(tmp_path / "serial"))

    def test_walker_that_fails(self, tmp_path, monkeypatch):
        def failing(*args):
            raise RuntimeError("no negatives today")

        monkeypatch.setattr(paths, "draw_negatives", failing)
        status, logs = run_pipeline_logs(tiny_manifest(tmp_path / "out"))
        assert (status, logs) == serial_run(tmp_path / "serial", monkeypatch)
        assert status == 2
        assert logs[-2:] == [f"[run ] sample-paths/{CELL}",
                             f"stage 'sample-paths/{CELL}' failed: no negatives today"]
        cell = tmp_path / "out" / CELL
        assert not (cell / "samples" / "train.txt").exists()
        assert not (cell / "model").exists()
        assert not (cell / ".stage_train.ok").exists()
        assert not (cell / ".stage_sample-paths.ok").exists()
        assert_no_child_left()

    def test_walk_that_raises(self, tmp_path, monkeypatch):
        walk = paths.TrainingPairs.walk

        def raising(pairs, index):
            if index == 5:
                raise KeyError("no pair 5 today")
            return walk(pairs, index)

        monkeypatch.setattr(paths.TrainingPairs, "walk", raising)
        status, logs = run_pipeline_logs(tiny_manifest(tmp_path / "out"))
        assert (status, logs) == serial_run(tmp_path / "serial", monkeypatch) == (
            unforked_run(tmp_path / "unforked", monkeypatch))
        assert status == 2
        assert logs[-1] == f"stage 'sample-paths/{CELL}' failed: 'no pair 5 today'"
        for run in ("out", "serial", "unforked"):
            cell = tmp_path / run / CELL
            assert not (cell / "samples" / "train.txt").exists()
            assert not (cell / "model").exists()
            assert not list(cell.glob(".stage_[st]*.ok"))
        assert_no_child_left()

    def test_walker_that_dies(self, tmp_path, monkeypatch):
        # a walking child of the cell's process dies
        walk, caller = paths.TrainingPairs.walk, os.getpid()

        def dying(pairs, index):
            if os.getpid() == caller:
                return walk(pairs, index)
            os._exit(3)

        monkeypatch.setattr(paths.TrainingPairs, "walk", dying)
        status, logs = run_pipeline_logs(tiny_manifest(tmp_path))
        assert status == 2
        assert logs[:-1] == [f"[run ] gen-scenarios/{CELL.split('/')[0]}",
                             f"[run ] build-kg/{CELL}", f"[run ] sample-paths/{CELL}"]
        assert re.fullmatch(rf"stage 'sample-paths/{CELL}' failed: path sampling failed:"
                            r" forked process \d+ exited with code 3", logs[-1])
        cell = tmp_path / CELL
        assert not (cell / "samples" / "train.txt").exists()
        assert not (cell / "model").exists()
        assert not list(cell.glob(".stage_[st]*.ok"))
        assert_no_child_left()

    def test_trainer_that_overflows(self, tmp_path, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            status, logs = run_pipeline_logs(tiny_manifest(tmp_path / "out",
                                                           learning_rate=1e300))
            assert (status, logs) == serial_run(tmp_path / "serial", monkeypatch,
                                                learning_rate=1e300) == (
                unforked_run(tmp_path / "unforked", monkeypatch, learning_rate=1e300))
        assert status == 2
        assert re.fullmatch(rf"stage 'train/{CELL}' failed: floating-point error at"
                            r" epoch 0 batch [1-9]\d*: overflow .*", logs[-1])
        cell = tmp_path / "out" / CELL
        assert sorted(p.name for p in (cell / "samples").iterdir()) == [
            "eval_neg.txt", "eval_pos.txt", "train.txt", "vocab.txt", "walk_stats.txt"]
        assert (cell / ".stage_sample-paths.ok").is_file()
        assert not (cell / ".stage_train.ok").exists()
        assert (TestCellWorkers.tree(tmp_path / "out")
                == TestCellWorkers.tree(tmp_path / "serial")
                == TestCellWorkers.tree(tmp_path / "unforked"))
        assert_no_child_left()


def run_pipeline_logs(manifest):
    logs = []
    status, _ = run_pipeline(manifest, echo=logs.append)
    return status, logs


class TestMainEntry:
    def test_unknown_task_exit_code(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--task", "nope"])
        assert code == 1

    def test_unknown_manifest_key_rejected(self, tmp_path, capsys):
        tiny_manifest(tmp_path / "out").save(tmp_path / "m.json")
        data = json.loads((tmp_path / "m.json").read_text())
        data["epoch"] = 3
        (tmp_path / "m.json").write_text(json.dumps(data))
        code = main(["run", "--manifest", str(tmp_path / "m.json")])
        assert code == 1
        assert "unknown manifest key(s): epoch" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_without_out_dir_takes_out(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text(json.dumps(
            {"seed": 1, "tasks": ["selection-projection"],
             "scenarios_per_task": 3, "train_scenarios": 2}))
        code = main(["gen-scenarios", "--manifest", str(tmp_path / "m.json")])
        assert code == 1
        assert "out_dir" in capsys.readouterr().err
        out = tmp_path / "out"
        code = main(["gen-scenarios", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(out)])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["out_dir"] == str(out)
        assert (out / "selection-projection" / "scenarios" / "manifest.tsv").is_file()

    @pytest.mark.parametrize("text", [b"[1]", b'"x"', b"null", b'{"out_dir": 5}',
                                      b'{"out_dir": "\xff"}'])
    def test_malformed_manifest_rejected(self, tmp_path, capsys, text):
        (tmp_path / "m.json").write_bytes(text)
        with pytest.raises(ManifestError):
            RunManifest.load(tmp_path / "m.json").validate()
        code = main(["run", "--manifest", str(tmp_path / "m.json")])
        assert code == 1
        assert "validation error" in capsys.readouterr().err

    def test_manifest_directory_rejected(self, tmp_path, capsys):
        code = main(["run", "--manifest", str(tmp_path)])
        assert code == 1
        assert "validation error" in capsys.readouterr().err

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
