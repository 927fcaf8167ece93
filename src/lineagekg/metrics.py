"""Ranking metrics (precision, recall, PR-AUC, Hits@k) and the comparison table.

PR-AUC is the area under the precision-recall step curve swept over distinct
thresholds in descending order with ties grouped.  Hits@k ranks every positive
against the full negative pool with pessimistic tie breaking (equal-scored
negatives precede the positive).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .scenario import TASK_NAMES


class MetricsError(Exception):
    pass


def precision_recall(scored: Sequence[tuple[float, int]],
                     threshold: float = 0.5) -> tuple[float, float]:
    """(precision, recall) at the threshold; precision is 1.0 when nothing is
    predicted positive.  Scores >= threshold count as predicted positive."""
    positives = sum(1 for _, label in scored if label == 1)
    if positives == 0:
        raise MetricsError("recall undefined without positive labels")
    tp = sum(1 for score, label in scored if label == 1 and score >= threshold)
    fp = sum(1 for score, label in scored if label == 0 and score >= threshold)
    precision = 1.0 if (tp + fp) == 0 else tp / (tp + fp)
    recall = tp / positives
    return precision, recall


def pr_auc(scored: Sequence[tuple[float, int]]) -> float:
    """Area under the PR step curve: sum of (dR) * P over descending-threshold
    groups, ties grouped; equals a per-threshold brute-force sweep."""
    positives = sum(1 for _, label in scored if label == 1)
    negatives = sum(1 for _, label in scored if label == 0)
    if positives == 0 or negatives == 0:
        raise MetricsError("pr_auc needs at least one positive and one negative")
    ordered = sorted(scored, key=lambda pair: -pair[0])
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    index = 0
    n = len(ordered)
    while index < n:
        score = ordered[index][0]
        while index < n and ordered[index][0] == score:
            if ordered[index][1] == 1:
                tp += 1
            else:
                fp += 1
            index += 1
        recall = tp / positives
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def hits_at_k(positive_scores: Sequence[float], negative_scores: Sequence[float],
              k: int = 10) -> float:
    """Fraction of positives ranked within the top k against the negative pool;
    a positive tied with a negative ranks below it."""
    if not negative_scores:
        raise MetricsError("negative pool is empty")
    if not positive_scores:
        raise MetricsError("no positives to rank")
    pool = sorted(negative_scores)
    hits = 0
    for score in positive_scores:
        # negatives with score >= positive's score rank ahead of it
        ahead = len(pool) - bisect.bisect_left(pool, score)
        if 1 + ahead <= k:
            hits += 1
    return hits / len(positive_scores)


@dataclass(frozen=True)
class TaskResult:
    task: str
    profile: str
    precision: float
    recall: float
    pr_auc: float
    hits_at_10: float
    positives: int
    negatives: int
    seed: int

    def metrics(self) -> tuple[float, float, float, float]:
        return (self.precision, self.recall, self.pr_auc, self.hits_at_10)


_RESULT_FIELDS = ("task", "profile", "precision", "recall", "pr_auc",
                  "hits_at_10", "positives", "negatives", "seed")


def write_results(path, results: Sequence[TaskResult]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("\t".join(_RESULT_FIELDS) + "\n")
        for r in results:
            fh.write("\t".join([
                r.task, r.profile, repr(r.precision), repr(r.recall),
                repr(r.pr_auc), repr(r.hits_at_10), str(r.positives),
                str(r.negatives), str(r.seed),
            ]) + "\n")


def read_results(path) -> list[TaskResult]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != list(_RESULT_FIELDS):
        raise MetricsError(f"bad results header in {path}")
    results = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            task, profile, p, r, auc, hits, pos, neg, seed = line.split("\t")
            results.append(TaskResult(task, profile, float(p), float(r), float(auc),
                                      float(hits), int(pos), int(neg), int(seed)))
        except ValueError as exc:  # a field count or a number that does not parse
            raise MetricsError(f"{path}: line {lineno}: {exc}") from None
    return results


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _fmt_delta(delta: float) -> str:
    rounded = round(delta, 2)
    if rounded == 0:
        return "(-)"
    sign = "+" if rounded > 0 else ""
    return f"({sign}{rounded:.2f})"


def _paired_deltas(results: Sequence[TaskResult]) -> list[tuple]:
    """(task, baseline, rddl, rddl - baseline metrics) per task, in task order
    with unknown tasks last; a task without exactly both profiles is an error."""
    by_task: dict[str, dict[str, TaskResult]] = {}
    for r in results:
        by_task.setdefault(r.task, {})[r.profile] = r
    tasks = [t for t in TASK_NAMES if t in by_task]
    tasks += [t for t in by_task if t not in TASK_NAMES]
    paired = []
    for task in tasks:
        pair = by_task[task]
        if set(pair) != {"baseline", "rddl"}:
            raise MetricsError(f"unpaired task {task!r}: profiles {sorted(pair)}")
        base, rddl = pair["baseline"], pair["rddl"]
        delta = tuple(r - b for r, b in zip(rddl.metrics(), base.metrics()))
        paired.append((task, base, rddl, delta))
    return paired


def report(results: Sequence[TaskResult]) -> str:
    """Comparison table: per task a baseline row and an extended-profile row
    with parenthesized deltas, then the mean per-task improvement."""
    paired = _paired_deltas(results)
    header = ["Task", "Ontology", "Precision", "Recall", "AUC", "Hits@10"]
    rows: list[list[str]] = []
    for task, base, rddl, delta in paired:
        title = task.capitalize()
        rows.append([title, "baseline"] + [_fmt(v) for v in base.metrics()])
        rows.append([title, "RDDL"] + [
            f"{_fmt(v)}{_fmt_delta(d)}" for v, d in zip(rddl.metrics(), delta)
        ])
    rows.append(["Average improvement", ""]
                + [_fmt(m) for m in mean_improvements(results)])

    widths = [max(len(header[i]), *(len(row[i]) for row in rows))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def mean_improvements(results: Sequence[TaskResult]) -> tuple[float, float, float, float]:
    """Simple mean of per-task (RDDL - baseline) metric deltas."""
    deltas = [delta for *_, delta in _paired_deltas(results)]
    if not deltas:
        raise MetricsError("no results")
    return tuple(sum(col) / len(deltas) for col in zip(*deltas))
