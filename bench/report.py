"""Metric computation for ``run.py``: end-to-end figures from untraced runs,
per-layer figures from one traced run's spans and artifacts."""

from __future__ import annotations

import json
import os
import platform
import statistics
from collections import defaultdict
from pathlib import Path

from checks import sample_stats
from lineagekg import metrics as lk_metrics
from tracer import LAYERS, summarize


def load_spec(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def lower_quartile(values) -> float:
    """The run time at the fastest quarter's edge (the minimum for up to four
    runs).  Other work on a shared machine only ever slows a run, in bursts
    of tens of seconds, so the fast runs are the steady estimate of what the
    code costs; a median moves with the bursts."""
    return sorted(values)[(len(values) - 1) // 4]


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    return {
        "run_s": lower_quartile([r["run_s"] for r in plain]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def _tuples_matched(spans: list[dict]) -> int:
    """Tuples whose source and target both matched rows: resolution calls
    ``_match_rows`` twice per tuple, source first."""
    by_parent: dict[int, list[int]] = defaultdict(list)
    for span in spans:
        if span["name"] == "convert._match_rows":
            by_parent[span["parent"]].append(span["counts"]["matched"])
    return sum(src and dst for calls in by_parent.values()
               for src, dst in zip(calls[::2], calls[1::2]))


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[dict], record: dict, untraced_run_s: float,
                  workload, manifest, out_dir: Path) -> dict:
    """Every per-layer metric of one traced run; ``untraced_run_s`` is the
    invocation's untraced ``run_s``.  A layer the workload never calls reads
    0."""
    summary = summarize(spans)
    by_name, layer_self = summary["by_name"], summary["layer_self"]

    def get(name: str, key: str = "s") -> float:
        return by_name.get(name, {}).get(key, 0)

    cells = [out_dir / workload.task / p for p in manifest.profiles()]
    stats = ([sample_stats(manifest, cell / "samples") for cell in cells]
             if workload.has_stage("sample-paths") else [])
    results = ([r for cell in cells
                for r in lk_metrics.read_results(cell / "eval" / "result.tsv")]
               if workload.has_stage("evaluate") else [])
    train_s = get("siamese.train")
    sample_s = get("paths.PathSampler.sample_paths")
    populate_s = get("convert.populate_kg")
    resolve_s = get("convert.resolve_lineage_detailed")
    io_s = get("kgstore.serialize_ntriples") + get("kgstore.parse_ntriples")
    tuples = get("convert.resolve_lineage_detailed", "tuples")
    out = {
        "siamese.train_s": train_s,
        "siamese.train_samples_per_s":
            _rate(get("siamese.train", "sample_epochs"), train_s),
        "siamese.forward_calls": get("siamese.forward", "calls"),
        "siamese.forward_s": get("siamese.forward"),
        "siamese.backward_s": get("siamese.backward"),
        "siamese.predict_scores_per_s":
            _rate(get("siamese.predict", "samples"), get("siamese.predict")),
        "siamese.final_loss": (get("siamese.train", "final_loss")
                               / max(get("siamese.train", "calls"), 1)),
        "siamese.pr_auc": _mean([r.pr_auc for r in results]),
        "siamese.hits_at_10": _mean([r.hits_at_10 for r in results]),
        "paths.train_set_s": get("paths.build_training_set"),
        "paths.eval_set_s": get("paths.build_eval_set"),
        "paths.pairs_per_s":
            _rate(get("paths.PathSampler.sample_paths", "calls"), sample_s),
        "paths.distinct_paths_per_pair":
            _rate(get("paths.PathSampler.sample_paths", "useful"),
                  get("paths.PathSampler.sample_paths", "slots")),
        "paths.samples_io_s": get("paths.save_samples") + get("paths.load_samples"),
        "convert.populate_s": populate_s,
        "convert.build_triples_per_s":
            _rate(get("convert.populate_kg", "triples"), populate_s),
        "convert.resolve_s": resolve_s,
        "convert.resolve_tuples_per_s": _rate(tuples, resolve_s),
        "convert.row_pairs": get("convert.resolve_lineage_detailed", "row_pairs"),
        "convert.tuples_matched_frac": _rate(_tuples_matched(spans), tuples),
        "kgstore.match_pattern_calls": get("kgstore.match_pattern", "calls"),
        "kgstore.match_pattern_s": get("kgstore.match_pattern"),
        "kgstore.serialize_s": get("kgstore.serialize_ntriples"),
        "kgstore.parse_s": get("kgstore.parse_ntriples"),
        "kgstore.io_triples_per_s":
            _rate(get("kgstore.serialize_ntriples", "triples")
                  + get("kgstore.parse_ntriples", "triples"), io_s),
        "scenario.generate_s": get("scenario.generate_scenario"),
        "scenario.execute_s": get("scenario.execute_scenarios"),
        "scenario.tuples": get("scenario.generate_scenario", "tuples"),
        "reldb.fixture_calls": get("reldb.northwind_fixture", "calls"),
        "reldb.fixture_s": get("reldb.northwind_fixture"),
        "cli.self_s": record["run_s"] - sum(
            s for layer, s in layer_self.items() if layer != "cli"),
        "cli.artifact_mb": sum(p.stat().st_size for p in out_dir.rglob("*")
                               if p.is_file()) / 2**20,
        "metrics.busy_s": layer_self["metrics"],
        "ontology.busy_s": layer_self["ontology"],
        "trace_overhead_s": record["run_s"] - untraced_run_s,
    }
    for key in ("ref_pr_auc", "nopath_frac_train", "nopath_frac_pos", "nopath_frac_neg"):
        out[f"paths.{key}"] = _mean([s[key] for s in stats])
    for layer in LAYERS:
        if layer not in ("cli", "metrics", "ontology"):
            out[f"{layer}.self_s"] = layer_self[layer]
    return out


def environment(args, workload, plain: list[dict], commit: str, source: str) -> dict:
    """What a result depends on besides the code: machine, versions, inputs."""
    child = plain[0] if plain else {}
    manifest = workload.manifest_fields(0, "")
    for key in ("seed", "out_dir"):
        del manifest[key]
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_seeds": [r["seed"] for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": child.get("numpy"),
        "blas": child.get("blas"), "git_commit": commit, "source_sha256": source, "manifest": manifest,
    }


def render(session, values: dict, wanted: list[dict]) -> dict:
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
