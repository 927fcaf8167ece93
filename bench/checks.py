"""Output checks, the no-learning reference scorer and the artifact digest.

The checks read a finished run's artifacts and follow its stages: sample
checks wherever ``sample-paths`` ran, model checks wherever ``evaluate`` ran,
lineage checks wherever ``resolve-lineage`` ran.  N-Triples files are read
with a line pattern of their own rather than the program's parser, so a
parser defect cannot hide a resolver defect.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from lineagekg import metrics, paths, scenario
from lineagekg.convert import sanitize

# ``<subject> <relation> <object node> .``; literal objects start with '"'
_NODE_TRIPLE = re.compile(r"^<([^>]*)> <([^>]*)> <([^>]*)> \.$")

LINEAGE_EVIDENCE = ("valueDerivedFrom", "columnDerivedFrom", "tableDerivedFrom")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


class CheckFailed(Exception):
    pass


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise CheckFailed(detail)


def _run_check(name: str, fn: Callable[[], None]) -> Check:
    """A corrupted artifact may make a reader raise anything; that is a
    failed check, recorded with its message."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, True)


def _local(iri: str) -> str:
    return iri.split(":", 1)[1] if ":" in iri else iri


def node_triples(path: Path) -> list[tuple[str, str, str]]:
    """The node-to-node triples of an N-Triples file, as IRI strings."""
    triples = []
    for line in path.read_text(encoding="utf-8").splitlines():
        match = _NODE_TRIPLE.match(line)
        if match:
            triples.append(match.groups())
    return triples


# -- digest -------------------------------------------------------------------------


def digest(out_dir: Path) -> str:
    """SHA-256 over every result artifact of a run, by relative path.

    ``manifest.json`` and the ``.stage_*.ok`` sidecars name the output
    directory, so they differ between otherwise identical runs; they are left
    out.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name == "manifest.json" or path.name.startswith(".stage_"):
            continue
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def digests_agree(digests: list[str]) -> Check:
    return Check("digest_repeats", len(set(digests)) <= 1,
                 "" if len(set(digests)) <= 1 else f"digests differ: {sorted(set(digests))}")


# -- per-cell checks -------------------------------------------------------------


def check_samples(m, sample_dir: Path, kg_dir: Path) -> list[Check]:
    loaded: dict[str, list] = {}

    def load():
        for name in ("train", "eval_pos", "eval_neg"):
            loaded[name] = paths.load_samples(
                sample_dir / f"{name}.txt", m.num_paths, m.max_length)

    def tokens():
        size = paths.EdgeVocabulary.load(sample_dir / "vocab.txt").size
        for name, samples in loaded.items():
            for sample in samples:
                bad = [t for p in sample.paths for t in p if not 0 <= t < size]
                if bad:
                    raise CheckFailed(f"{name}: token {bad[0]} outside vocabulary"
                                      f" of {size}")

    def train_count():
        triples = len(node_triples(kg_dir / "train.nt"))
        expected = (1 + m.k_negatives) * triples
        _require(len(loaded["train"]) == expected,
                 f"{len(loaded['train'])} train samples, expected {expected}")

    result = [_run_check("samples_load", load)]
    if result[0].ok:
        result += [_run_check("tokens_in_vocab", tokens),
                   _run_check("train_sample_count", train_count)]
    return result


def check_model(m, model_dir: Path, eval_dir: Path, sample_dir: Path) -> list[Check]:
    def scores():
        lines = (eval_dir / "scores.tsv").read_text(encoding="utf-8").splitlines()
        _require(lines[:1] == ["label\tscore"], "bad scores.tsv header")
        for line in lines[1:]:
            label, value = line.split("\t")
            score = float(value)
            _require(label in ("0", "1"), f"bad label {label!r}")
            _require(math.isfinite(score) and 0.0 < score < 1.0,
                     f"score {value} not finite in (0, 1)")

    def counts():
        (result,) = metrics.read_results(eval_dir / "result.tsv")
        labels = [line.split("\t")[0] for line in
                  (eval_dir / "scores.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        for name, label, count in (("eval_pos", "1", result.positives),
                                   ("eval_neg", "0", result.negatives)):
            lines = (sample_dir / f"{name}.txt").read_text(encoding="utf-8").splitlines()
            _require(count == len(lines) == labels.count(label),
                     f"{name}: result {count}, samples {len(lines)},"
                     f" scores {labels.count(label)}")

    def losses():
        lines = (model_dir / "losses.txt").read_text(encoding="utf-8").splitlines()
        _require(len(lines) == m.epochs, f"{len(lines)} losses for {m.epochs} epochs")
        for line in lines:
            _require(math.isfinite(float(line.rsplit(" ", 1)[1])), f"bad loss: {line}")

    return [_run_check("scores_finite_in_unit", scores),
            _run_check("result_counts", counts),
            _run_check("losses_finite", losses)]


def row_pairs_outside(pairs, row_object: dict, tuples) -> list[tuple[str, str]]:
    """Row pairs (dst, src) whose rows do not belong to the (t2, t1) objects
    of any tuple."""
    named = {(sanitize(t.t2), sanitize(t.t1)) for t in tuples}
    return [(d, s) for d, s in pairs
            if (row_object.get(d), row_object.get(s)) not in named]


def _row_objects(triples) -> dict[str, str]:
    return {_local(o): _local(s) for s, r, o in triples if r == "hasRow"}


def check_lineage(m, task: str, kg_dir: Path, scenarios_dir: Path) -> list[Check]:
    def within_objects():
        suite = scenario.load_suite(scenarios_dir)
        scenarios = suite.scenarios_for(task)
        train_tuples = [t for s in scenarios[:m.train_scenarios] for t in s.all_tuples()]
        test_tuples = [t for s in scenarios[m.train_scenarios:] for t in s.all_tuples()]
        train = node_triples(kg_dir / "train.nt")
        train_pairs = [(_local(s), _local(o)) for s, r, o in train
                       if r == "rowDerivedFrom"]
        with (kg_dir / "ground_truth.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        _require(rows[:1] == [["src", "dst"]], "bad ground_truth.csv header")
        test_pairs = [(_local(dst), _local(src)) for src, dst in rows[1:]]
        _require(train_pairs and test_pairs, "no resolved row pairs")
        for label, pairs, triples, tuples in (
                ("train", train_pairs, train, train_tuples),
                ("test", test_pairs, node_triples(kg_dir / "test.nt"), test_tuples)):
            outside = row_pairs_outside(pairs, _row_objects(triples), tuples)
            if outside:
                raise CheckFailed(f"{label}: {len(outside)} of {len(pairs)} row"
                                  f" pairs outside their tuple's objects,"
                                  f" e.g. {outside[0]}")

    return [_run_check("row_pairs_within_named_objects", within_objects)]


def check_run(workload, m, out_dir: Path) -> list[Check]:
    """Every output check of one finished run, labelled by cell."""
    results = []
    task = workload.task
    for profile in m.profiles():
        cell = out_dir / task / profile
        found = []
        if workload.has_stage("resolve-lineage"):
            found += check_lineage(m, task, cell / "kg", out_dir / task / "scenarios")
        if workload.has_stage("sample-paths"):
            found += check_samples(m, cell / "samples", cell / "kg")
        if workload.has_stage("evaluate"):
            found += check_model(m, cell / "model", cell / "eval", cell / "samples")
        results += [Check(f"{task}/{profile}:{c.name}", c.ok, c.detail) for c in found]
    return results


# -- reference scorer and sample statistics ------------------------------------------


def reference_scores(samples, vocab: paths.EdgeVocabulary) -> list[int]:
    """No-learning score: lineage-evidence tokens in a sample's paths, either
    direction."""
    evidence = {i for i, name in enumerate(vocab.names)
                if name.lstrip("~") in LINEAGE_EVIDENCE}
    return [sum(1 for p in s.paths for t in p if t in evidence) for s in samples]


def _nopath_frac(samples) -> float:
    return sum(1 for s in samples if s.paths[0][0] == paths.NOPATH) / len(samples)


def sample_stats(m, sample_dir: Path) -> dict:
    """Reference PR-AUC and NOPATH shares of one cell's samples."""
    def load(name):
        return paths.load_samples(sample_dir / f"{name}.txt", m.num_paths, m.max_length)

    train, pos, neg = load("train"), load("eval_pos"), load("eval_neg")
    vocab = paths.EdgeVocabulary.load(sample_dir / "vocab.txt")
    scored = ([(s, 1) for s in reference_scores(pos, vocab)]
              + [(s, 0) for s in reference_scores(neg, vocab)])
    return {
        "ref_pr_auc": metrics.pr_auc(scored),
        "nopath_frac_train": _nopath_frac([s for s in train if s.label == 1]),
        "nopath_frac_pos": _nopath_frac(pos),
        "nopath_frac_neg": _nopath_frac(neg),
    }
