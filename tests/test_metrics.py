import random

import pytest

from lineagekg.metrics import (
    MetricsError,
    TaskResult,
    hits_at_k,
    mean_improvements,
    pr_auc,
    precision_recall,
    read_results,
    report,
    write_results,
)


def brute_force_pr_auc(scored):
    """Oracle: evaluate precision/recall at every distinct threshold by full
    recount, then integrate the step curve in descending-threshold order."""
    positives = sum(1 for _, label in scored if label == 1)
    thresholds = sorted({score for score, _ in scored}, reverse=True)
    area = 0.0
    prev_recall = 0.0
    for threshold in thresholds:
        tp = sum(1 for s, y in scored if y == 1 and s >= threshold)
        fp = sum(1 for s, y in scored if y == 0 and s >= threshold)
        recall = tp / positives
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def result(task, profile, p, r, auc, hits):
    return TaskResult(task=task, profile=profile, precision=p, recall=r,
                      pr_auc=auc, hits_at_10=hits, positives=10, negatives=100,
                      seed=0)


PAPER_TABLE = [
    ("selection-projection", (0.92, 0.95, 0.98, 0.62), (0.95, 0.95, 0.98, 0.71)),
    ("selection-linear", (0.94, 0.89, 0.98, 0.59), (0.96, 0.96, 0.98, 0.74)),
    ("selection-nonlinear", (0.91, 0.89, 0.97, 0.68), (0.95, 0.90, 0.98, 0.72)),
    ("join-projection", (0.82, 0.84, 0.83, 0.45), (0.88, 0.91, 0.89, 0.68)),
    ("join-linear", (0.79, 0.81, 0.78, 0.42), (0.83, 0.81, 0.84, 0.62)),
    ("join-nonlinear", (0.85, 0.83, 0.83, 0.31), (0.84, 0.85, 0.86, 0.57)),
    ("union-projection", (0.86, 0.87, 0.88, 0.68), (0.94, 0.91, 0.91, 0.71)),
    ("union-linear", (0.88, 0.89, 0.90, 0.62), (0.95, 0.93, 0.95, 0.67)),
    ("union-nonlinear", (0.87, 0.91, 0.90, 0.67), (0.93, 0.91, 0.91, 0.66)),
]


class TestPrecisionRecall:
    def test_perfect_separation(self):
        scored = [(0.9, 1)] * 4 + [(0.1, 0)] * 4
        assert precision_recall(scored) == (1.0, 1.0)

    def test_hand_counted_confusion(self):
        scored = [(0.8, 1), (0.4, 1), (0.6, 0)]
        precision, recall = precision_recall(scored, threshold=0.5)
        assert precision == 0.5
        assert recall == 0.5

    def test_no_predictions_above_threshold(self):
        scored = [(0.1, 1), (0.2, 1), (0.05, 0)]
        precision, recall = precision_recall(scored, threshold=0.5)
        assert precision == 1.0  # stated convention
        assert recall == 0.0

    def test_no_positives_is_error(self):
        with pytest.raises(MetricsError):
            precision_recall([(0.9, 0)])


class TestPrAuc:
    def test_perfect_separation(self):
        scored = [(0.9, 1)] * 3 + [(0.2, 0)] * 5
        assert pr_auc(scored) == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_scores_give_prevalence(self):
        scored = [(0.5, 1)] * 3 + [(0.5, 0)] * 9
        assert pr_auc(scored) == pytest.approx(3 / 12, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(MetricsError):
            pr_auc([(0.5, 1), (0.4, 1)])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 50)
        scored = [(rng.choice([rng.random(), rng.random(), 0.3, 0.7]),
                   rng.randint(0, 1)) for _ in range(n)]
        if not any(y for _, y in scored):
            scored.append((0.5, 1))
        if all(y for _, y in scored):
            scored.append((0.5, 0))
        assert pr_auc(scored) == pytest.approx(brute_force_pr_auc(scored), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(42)
        scored = [(rng.random(), rng.randint(0, 1)) for _ in range(40)]
        scored += [(0.5, 1), (0.4, 0)]
        transformed = [(2.0 * s ** 3 + 1.0, y) for s, y in scored]
        assert pr_auc(scored) == pytest.approx(pr_auc(transformed), abs=1e-12)


class TestHitsAtK:
    def test_top_rank_hit(self):
        assert hits_at_k([0.99], [0.5] * 4000, k=10) == 1.0

    def test_below_ten_negatives_misses(self):
        negatives = [0.9] * 10 + [0.1] * 100
        assert hits_at_k([0.5], negatives, k=10) == 0.0

    def test_tie_with_k_negatives_misses(self):
        negatives = [0.7] * 10 + [0.1] * 50
        assert hits_at_k([0.7], negatives, k=10) == 0.0  # pessimistic ties

    def test_tie_with_fewer_than_k_negatives_hits(self):
        negatives = [0.7] * 9 + [0.1] * 50
        assert hits_at_k([0.7], negatives, k=10) == 1.0

    def test_monotone_in_k(self):
        rng = random.Random(1)
        pos = [rng.random() for _ in range(20)]
        neg = [rng.random() for _ in range(200)]
        values = [hits_at_k(pos, neg, k) for k in (1, 5, 10, 50, 200, 201)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(2)
        pos = [rng.random() for _ in range(15)]
        neg = [rng.random() for _ in range(100)]
        assert hits_at_k(pos, neg, 10) == hits_at_k(
            [3 * s + 2 for s in pos], [3 * s + 2 for s in neg], 10)

    def test_empty_pool_is_error(self):
        with pytest.raises(MetricsError):
            hits_at_k([0.5], [], 10)


class TestReport:
    def test_selection_projection_deltas(self):
        results = [
            result("selection-projection", "baseline", 0.92, 0.95, 0.98, 0.62),
            result("selection-projection", "rddl", 0.95, 0.95, 0.98, 0.71),
        ]
        text = report(results)
        assert "0.95(+0.03)" in text
        assert "0.95(-)" in text
        assert "0.98(-)" in text
        assert "0.71(+0.09)" in text

    def test_zero_delta_renders_dash(self):
        results = [
            result("join-linear", "baseline", 0.8, 0.8, 0.8, 0.5),
            result("join-linear", "rddl", 0.8, 0.8, 0.8, 0.5),
        ]
        text = report(results)
        assert text.count("0.80(-)") == 3
        assert text.count("0.50(-)") == 1

    def test_negative_delta(self):
        results = [
            result("join-nonlinear", "baseline", 0.85, 0.83, 0.83, 0.31),
            result("join-nonlinear", "rddl", 0.84, 0.85, 0.86, 0.57),
        ]
        assert "0.84(-0.01)" in report(results)

    def test_no_results_rejected(self):
        with pytest.raises(MetricsError, match="no results"):
            report([])

    def test_unpaired_task_rejected(self):
        with pytest.raises(MetricsError, match="unpaired"):
            report([result("union-linear", "baseline", 0.9, 0.9, 0.9, 0.6)])

    def test_mean_improvements_over_published_table(self):
        results = []
        for task, base, rddl in PAPER_TABLE:
            results.append(result(task, "baseline", *base))
            results.append(result(task, "rddl", *rddl))
        means = mean_improvements(results)
        assert means[0] == pytest.approx(0.39 / 9, abs=1e-12)   # precision
        assert means[1] == pytest.approx(0.25 / 9, abs=1e-12)   # recall
        assert means[2] == pytest.approx(0.25 / 9, abs=1e-12)   # pr-auc
        assert means[3] == pytest.approx(1.04 / 9, abs=1e-12)   # hits@10
        text = report(results)
        assert "Average improvement" in text
        last = text.strip().splitlines()[-1]
        assert last.split()[-4:] == ["0.04", "0.03", "0.03", "0.12"]

    def test_report_pure_function(self):
        results = [
            result("union-projection", "baseline", 0.86, 0.87, 0.88, 0.68),
            result("union-projection", "rddl", 0.94, 0.91, 0.91, 0.71),
        ]
        assert report(results) == report(results)


class TestResultsFile:
    def test_round_trip(self, tmp_path):
        results = [
            result("selection-linear", "baseline", 0.94, 0.89, 0.98, 0.59),
            result("selection-linear", "rddl", 0.96, 0.96, 0.98, 0.74),
        ]
        path = tmp_path / "results.tsv"
        write_results(path, results)
        assert read_results(path) == results
