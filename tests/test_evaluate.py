"""Metrics against hand counts and a brute-force ranking oracle; CV plumbing."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from metagx import evaluate
from metagx.data import ExpressionDataset
from metagx.errors import DimensionError, MetricError, TrainingError
from metagx.models import ModelConfig
from metagx.training import MetaConfig

from conftest import count_trainer_calls


def ap_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Independent average precision: recount the confusion at every distinct
    score treated as a threshold, no cumulative tricks."""
    n_pos = float(labels.sum())
    out, prev_recall = 0.0, 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        calls = scores >= t
        tp = float(labels[calls].sum())
        precision = tp / float(calls.sum())
        recall = tp / n_pos
        out += (recall - prev_recall) * precision
        prev_recall = recall
    return out


def make_ds(name: str, n: int, d: int, seed: int) -> ExpressionDataset:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    matrix = rng.standard_normal((n, d))
    labels = (matrix @ w + 0.3 * rng.standard_normal(n) > 0).astype(float)
    labels[0], labels[1] = 0.0, 1.0
    return ExpressionDataset(name, tuple(f"G{i}" for i in range(d)), matrix, labels)


# ---------------------------------------------------------------------------
# confusion and macro metrics


def test_confusion_hand_counts():
    c = evaluate.confusion(
        np.array([0.9, 0.4, 0.6, 0.1, 0.5]), np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    )
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
    assert c.n_samples == 5


def test_threshold_is_inclusive():
    c = evaluate.confusion(np.array([0.5]), np.array([1.0]))
    assert c.tp == 1


def test_perfect_predictions():
    r = evaluate.classification_metrics(
        np.array([0.9, 0.1, 0.8, 0.2]), np.array([1.0, 0.0, 1.0, 0.0])
    )
    assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)


def test_all_negative_calls_on_rare_positives():
    # 95 samples, 8 positives, every call negative
    labels = np.zeros(95)
    labels[:8] = 1.0
    scores = np.full(95, 0.2)
    r = evaluate.classification_metrics(scores, labels)
    assert r.accuracy == pytest.approx(87.0 / 95.0, abs=1e-12)
    assert r.recall == pytest.approx(0.5, abs=1e-12)  # (0 + 1) / 2
    assert r.precision == pytest.approx((0.0 + 87.0 / 95.0) / 2.0, abs=1e-12)
    pos_f1 = 0.0
    neg_f1 = 2.0 * (87.0 / 95.0) * 1.0 / (87.0 / 95.0 + 1.0)
    assert r.f1 == pytest.approx((pos_f1 + neg_f1) / 2.0, abs=1e-12)


def test_zero_denominators_define_zero():
    r = evaluate.classification_metrics(np.array([0.9, 0.8]), np.array([1.0, 1.0]))
    # no negatives at all: negative-class precision/recall/f1 are 0 by rule
    assert r.precision == pytest.approx(0.5)
    assert r.recall == pytest.approx(0.5)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(0)
    scores = rng.random(40)
    labels = (rng.random(40) < 0.3).astype(float)
    labels[0] = 1.0
    perm = rng.permutation(40)
    a = evaluate.classification_metrics(scores, labels)
    b = evaluate.classification_metrics(scores[perm], labels[perm])
    assert a == b


def test_metric_input_validation():
    with pytest.raises(DimensionError):
        evaluate.confusion(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(MetricError):
        evaluate.confusion(np.array([]), np.array([]))
    with pytest.raises(MetricError):
        evaluate.confusion(np.array([1.5]), np.array([1.0]))
    with pytest.raises(MetricError):
        evaluate.confusion(np.array([0.5]), np.array([2.0]))
    with pytest.raises(MetricError):
        evaluate.pr_auc(np.array([0.5, 0.4]), np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# PR-AUC


def test_pr_auc_hand_example():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    assert evaluate.pr_auc(scores, labels) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_pr_auc_perfect_and_constant():
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    assert evaluate.pr_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == pytest.approx(1.0)
    # constant scores: one tie group, AP collapses to the positive rate
    assert evaluate.pr_auc(np.full(4, 0.5), labels) == pytest.approx(0.5)


def test_pr_auc_tie_groups_match_oracle():
    scores = np.array([0.5, 0.5, 0.5, 0.3, 0.3, 0.1])
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    assert evaluate.pr_auc(scores, labels) == pytest.approx(
        ap_oracle(scores, labels), abs=1e-12
    )


@pytest.mark.parametrize("seed", range(25))
def test_pr_auc_random_sets_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    # quantized scores force plenty of ties
    scores = np.round(rng.random(n), 2)
    labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
    labels[int(rng.integers(n))] = 1.0
    assert evaluate.pr_auc(scores, labels) == pytest.approx(
        ap_oracle(scores, labels), abs=1e-9
    )


def test_pr_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(5)
    scores = rng.random(60)
    labels = (rng.random(60) < 0.4).astype(float)
    labels[0] = 1.0
    base = evaluate.pr_auc(scores, labels)
    for transform in (np.exp, lambda s: 3.0 * s - 1.0, lambda s: s**3):
        assert evaluate.pr_auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


def test_classification_metrics_nan_pr_auc_without_positives():
    r = evaluate.classification_metrics(np.array([0.4, 0.6]), np.array([0.0, 0.0]))
    assert math.isnan(r.pr_auc)
    assert r.accuracy == 0.5


# ---------------------------------------------------------------------------
# cross-validation


def small_config(**kw) -> MetaConfig:
    defaults = dict(epochs=1, batch_size=8, seed=0)
    defaults.update(kw)
    return MetaConfig(model=ModelConfig("mlp", input_dim=5, hidden_dims=(4,)), **defaults)


def test_cross_validate_plain_shapes_and_means():
    target = make_ds("t", 30, 5, seed=1)
    cv = evaluate.cross_validate([], target, small_config(), trainer="plain", k=3)
    assert cv.k == 3
    assert sum(r.n_samples for r in cv.per_fold) == 30
    assert cv.mean_f1 == pytest.approx(sum(r.f1 for r in cv.per_fold) / 3, abs=1e-12)
    assert cv.mean_accuracy == pytest.approx(
        sum(r.accuracy for r in cv.per_fold) / 3, abs=1e-12
    )


def test_cross_validate_deterministic():
    sources = [make_ds(f"s{i}", 24, 5, seed=10 + i) for i in range(2)]
    target = make_ds("t", 24, 5, seed=20)
    cfg = small_config()
    a = evaluate.cross_validate(sources, target, cfg, trainer="meta", k=3)
    b = evaluate.cross_validate(sources, target, cfg, trainer="meta", k=3)
    assert a == b


@pytest.mark.parametrize("trainer", evaluate.TRAINERS)
def test_cross_validate_reaches_trainers_through_module_attributes(monkeypatch, trainer):
    calls = count_trainer_calls(monkeypatch)
    sources = [make_ds("s", 24, 5, seed=12)]
    target = make_ds("t", 20, 5, seed=21)
    evaluate.cross_validate(sources, target, small_config(), trainer=trainer, k=2)
    assert calls == {f"train_{trainer}": 2}


def test_cross_validate_gene_selection_and_interactions():
    rng = np.random.default_rng(3)
    t_genes = ("A", "B", "C", "D", "E")
    s_genes = ("B", "C", "D", "E", "F")
    target = ExpressionDataset(
        "t", t_genes, rng.standard_normal((20, 5)), (rng.random(20) < 0.5).astype(float)
    )
    source = ExpressionDataset(
        "s", s_genes, rng.standard_normal((20, 5)), (rng.random(20) < 0.5).astype(float)
    )
    inter = frozenset({"B", "D"})
    cfg = small_config()
    cv = evaluate.cross_validate(
        [source], target, cfg, trainer="meta", k=2, interactions=inter
    )
    # shared genes B..E filtered to interaction members B, D: model width 2
    assert cv.k == 2
    assert all(r.n_samples == 10 for r in cv.per_fold)


def test_cross_validate_validates_trainer_and_sources():
    target = make_ds("t", 20, 5, seed=4)
    with pytest.raises(ValueError, match="trainer"):
        evaluate.cross_validate([], target, small_config(), trainer="magic", k=2)
    with pytest.raises(ValueError, match="source"):
        evaluate.cross_validate([], target, small_config(), trainer="meta", k=2)


def test_cv_csv_layout(tmp_path):
    target = make_ds("t", 20, 5, seed=6)
    cv = evaluate.cross_validate([], target, small_config(), trainer="plain", k=2)
    path = tmp_path / "cv.csv"
    evaluate.cv_to_csv(cv, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "fold,n_samples,tp,fp,tn,fn,accuracy,precision,recall,f1,pr_auc"
    assert len(lines) == 4  # header + 2 folds + mean
    assert lines[-1].startswith("mean,20,")


# ---------------------------------------------------------------------------
# sweep


def test_lambda_sweep_endpoint_matches_plain():
    sources = [make_ds(f"s{i}", 24, 5, seed=30 + i) for i in range(2)]
    target = make_ds("t", 24, 5, seed=40)
    cfg = small_config()
    points = evaluate.lambda_sweep(sources, target, cfg, lambdas=(0.5, 1.0), k=2)
    plain = evaluate.cross_validate([], target, cfg, trainer="plain", k=2)
    assert points[1].lam == 1.0
    assert points[1].f1_mean == plain.mean_f1
    f1s = np.array([r.f1 for r in points[0].cv.per_fold])
    assert points[0].f1_std == pytest.approx(float(f1s.std()), abs=1e-12)


def test_lambda_sweep_endpoint_mean_f1_matches_plain_at_ten_folds():
    # from 8 values on np.mean sums pairwise, in another order than mean_f1's
    sources = [make_ds(f"s{i}", 24, 5, seed=30 + i) for i in range(2)]
    target = make_ds("t", 40, 5, seed=4)
    cfg = small_config()
    (point,) = evaluate.lambda_sweep(sources, target, cfg, lambdas=(1.0,), k=10)
    plain = evaluate.cross_validate([], target, cfg, trainer="plain", k=10)
    assert point.f1_mean == plain.mean_f1


@pytest.mark.parametrize("arch", ["mlp", "cnn", "transformer"])
def test_lambda_sweep_equals_per_lambda_cross_validation(arch):
    # four weights: one stacked MLP block of three, then a block of one
    sources = [make_ds(f"s{i}", 30, 12, seed=50 + i) for i in range(3)]
    target = make_ds("t", 27, 12, seed=60)
    model = ModelConfig(arch, input_dim=12, hidden_dims=(6, 5), channels=2, embed_dim=4, tokens=3)
    cfg = MetaConfig(model=model, epochs=2, batch_size=8, seed=2)
    lambdas = (0.0, 0.4, 0.7, 1.0)
    points = evaluate.lambda_sweep(sources, target, cfg, lambdas=lambdas, k=3)
    assert [p.lam for p in points] == list(lambdas)
    for p in points:
        want = evaluate.cross_validate(sources, target, replace(cfg, lam=p.lam), k=3)
        assert [repr(r) for r in p.cv.per_fold] == [repr(r) for r in want.per_fold], p.lam


def test_lambda_sweep_prepares_cohorts_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return prepare(*args, **kwargs)

    prepare = evaluate.prepare_cohorts
    monkeypatch.setattr(evaluate, "prepare_cohorts", counted)
    sources = [make_ds("s", 24, 5, seed=31)]
    target = make_ds("t", 20, 5, seed=41)
    evaluate.lambda_sweep(sources, target, small_config(), lambdas=(0.2, 0.5, 0.8, 1.0), k=2)
    assert len(calls) == 1


def test_lambda_sweep_peak_memory_does_not_grow_with_the_grid():
    sources = [make_ds(f"s{i}", 64, 50, seed=70 + i) for i in range(3)]
    target = make_ds("t", 40, 50, seed=80)
    cfg = MetaConfig(model=ModelConfig("mlp", input_dim=50), epochs=1, batch_size=32, seed=1)

    def peak_bytes(lambdas):
        tracemalloc.start()
        try:
            evaluate.lambda_sweep(sources, target, cfg, lambdas=lambdas, k=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    three = peak_bytes((0.1, 0.5, 0.9))
    twelve = peak_bytes(tuple(i / 11 for i in range(12)))
    assert twelve <= 1.25 * three, (three, twelve)


def test_sweep_names_the_first_weight_whose_own_run_diverges(monkeypatch):
    # a diverging stacked block re-runs its weights in grid order, stops at the
    # first whose own run diverges and names it; if none does, the stacked
    # error stands unchanged
    sources = [make_ds("s", 24, 5, seed=32)]
    target = make_ds("t", 20, 5, seed=42)
    trained, diverging = [], 0.5

    def stacked(config, lams, sources, target_train):
        raise TrainingError("non-finite source loss [nan nan nan] at step 1 (epoch 1)")

    def single(config, sources, target_train):
        trained.append(config.lam)
        if config.lam == diverging:
            raise TrainingError("non-finite source loss nan at step 1 (epoch 1)")
        return None, None

    monkeypatch.setattr(evaluate, "train_meta_stacked", stacked)
    monkeypatch.setattr(evaluate, "train_meta", single)
    with pytest.raises(TrainingError) as err:
        evaluate.lambda_sweep(sources, target, small_config(), lambdas=(0.2, 0.5, 0.8), k=2)
    assert str(err.value) == "non-finite source loss nan at step 1 (epoch 1) at lambda=0.5"
    assert trained == [0.2, 0.5]
    trained.clear()
    diverging = None
    with pytest.raises(TrainingError) as err:
        evaluate.lambda_sweep(sources, target, small_config(), lambdas=(0.2, 0.5, 0.8), k=2)
    assert str(err.value) == "non-finite source loss [nan nan nan] at step 1 (epoch 1)"
    assert trained == [0.2, 0.5, 0.8]


def test_lambda_sweep_validation_and_best():
    target = make_ds("t", 20, 5, seed=7)
    with pytest.raises(ValueError):
        evaluate.lambda_sweep([], target, small_config(), lambdas=())
    with pytest.raises(ValueError):
        evaluate.lambda_sweep([], target, small_config(), lambdas=(1.2,))
    pts = [
        evaluate.SweepPoint(0.1, 0.7, 0.0, None),
        evaluate.SweepPoint(0.5, 0.9, 0.0, None),
        evaluate.SweepPoint(1.0, 0.9, 0.0, None),
    ]
    assert evaluate.best_lambda(pts).lam == 0.5  # first of the tied maxima


def test_sweep_csv_layout(tmp_path):
    pts = [evaluate.SweepPoint(0.1, 0.75, 0.05, None), evaluate.SweepPoint(1.0, 0.5, 0.0, None)]
    path = tmp_path / "sweep.csv"
    evaluate.sweep_to_csv(pts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,f1_mean,f1_std"
    assert lines[1] == "0.1,0.75,0.05"
