"""Self-tests of the benchmark's output checks and tracer.

    python3 -m pytest bench/test_checks.py

Each check must pass on a real (tiny) pipeline run and reject a deliberately
corrupted copy of the artifact it guards.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import (  # noqa: E402
    check_run, digest, digests_agree, node_triples, reference_scores, sample_stats,
)
from lineagekg.cli import RunManifest, run_pipeline  # noqa: E402
from lineagekg.paths import EdgeVocabulary, PathSample  # noqa: E402
from tracer import Tracer, load_spans, self_times, summarize  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(name="tiny", why="self-test", task="selection-projection",
                profile="rddl", preset="desk")


def tiny_manifest(out_dir) -> RunManifest:
    return RunManifest(
        out_dir=str(out_dir), seed=0, profile="rddl",
        tasks=["selection-projection"], rows_per_table=6, scenarios_per_task=3,
        train_scenarios=2, eval_negatives=20, walk_budget=6, embed_dim=8,
        hidden_dim=8, layers=1, fusion_dim=12, batch_size=16, epochs=1)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    status, _ = run_pipeline(tiny_manifest(out), echo=lambda *_: None)
    assert status == 0
    return out


@pytest.fixture
def run(pristine, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(pristine, copy)
    return copy, tiny_manifest(copy)


def failed(out_dir, manifest) -> set[str]:
    return {c.name.split(":", 1)[1] for c in check_run(TINY, manifest, out_dir)
            if not c.ok}


CELL = Path("selection-projection") / "rddl"


def test_intact_run_passes_every_check(run):
    out, m = run
    checks = check_run(TINY, m, out)
    assert len(checks) == 7
    assert [c for c in checks if not c.ok] == []


def test_nan_score_rejected(run):
    out, m = run
    scores = out / CELL / "eval" / "scores.tsv"
    lines = scores.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].split("\t")[0] + "\tnan"
    scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert failed(out, m) == {"scores_finite_in_unit"}


def test_row_pair_across_objects_rejected(run):
    out, m = run
    train = out / CELL / "kg" / "train.nt"
    rows_by_object: dict[str, list[str]] = {}
    for s, r, o in node_triples(train):
        if r == "hasRow":
            rows_by_object.setdefault(s, []).append(o)
    # a base table is never the target of a tuple, so two of its rows cross
    table = min(obj for obj in rows_by_object if obj.endswith(":Customers"))
    dst, src = rows_by_object[table][:2]
    with train.open("a", encoding="utf-8") as fh:
        fh.write(f"<{dst}> <rowDerivedFrom> <{src}> .\n")
    assert "row_pairs_within_named_objects" in failed(out, m)


def test_truncated_sample_line_rejected(run):
    out, m = run
    samples = out / CELL / "samples" / "eval_neg.txt"
    text = samples.read_text(encoding="utf-8")
    samples.write_text(text[:len(text) - 8] + "\n", encoding="utf-8")
    assert failed(out, m) == {"samples_load"}


def test_token_outside_vocabulary_rejected(run):
    out, m = run
    samples = out / CELL / "samples" / "train.txt"
    lines = samples.read_text(encoding="utf-8").splitlines()
    parts = lines[0].split()
    parts[2] = "999"
    lines[0] = " ".join(parts)
    samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert failed(out, m) == {"tokens_in_vocab"}


def test_differing_digest_rejected(run, pristine):
    out, _ = run
    assert digest(out) == digest(pristine)
    (out / CELL / "model" / "losses.txt").write_text("epoch 0 mean_loss 0.5\n")
    assert digests_agree([digest(pristine), digest(pristine)]).ok
    assert not digests_agree([digest(pristine), digest(out)]).ok


def test_reference_scorer_counts_lineage_tokens_both_directions():
    vocab = EdgeVocabulary(["rdf:type", "valueDerivedFrom", "hasRow"])
    value, inverse_value = vocab.forward(1), vocab.inverse(1)
    sample = PathSample(paths=((value, vocab.forward(2), 0),
                               (inverse_value, value, 0), (1, 0, 0)),
                        relation=0, label=1)
    assert reference_scores([sample], vocab) == [3]


def test_sample_stats_on_real_run(run):
    out, m = run
    stats = sample_stats(m, out / CELL / "samples")
    assert 0.0 < stats["ref_pr_auc"] <= 1.0
    assert all(0.0 <= stats[k] <= 1.0 for k in stats)


def test_tracer_records_nesting_and_self_time(tmp_path):
    import lineagekg.metrics as metrics

    tracer = Tracer()
    tracer.install()
    try:
        scored = [(0.9, 1), (0.2, 0)]
        assert metrics.pr_auc(scored) == 1.0
        out = tmp_path / "run"
        status, _ = run_pipeline(tiny_manifest(out), echo=lambda *_: None,
                                 only_stage="gen-scenarios")
        assert status == 0
    finally:
        tracer.uninstall()
    assert not hasattr(metrics.pr_auc, "__wrapped__")
    tracer.dump(tmp_path / "spans.json")
    spans = load_spans(tmp_path / "spans.json")
    assert spans[0]["name"] == "metrics.pr_auc" and spans[0]["parent"] == -1
    stage = next(s for s in spans if s["name"] == "cli.Pipeline.stage_scenarios")
    assert stage["cell"] == "selection-projection"
    generated = [s for s in spans if s["name"] == "scenario.generate_scenario"]
    assert len(generated) == 3
    assert all(s["cell"] == "selection-projection" for s in generated)
    assert min(self_times(spans)) >= 0
    summary = summarize(spans)
    assert summary["by_name"]["scenario.generate_scenario"]["tuples"] > 0
    assert summary["by_name"]["reldb.northwind_fixture"]["calls"] >= 1
