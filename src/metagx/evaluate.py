"""Classification metrics, k-fold cross-validation, and the mixing-weight sweep.

Metrics treat scores as probabilities thresholded at 0.5 (score >= threshold
is a positive call). Precision, recall, and F1 are macro-averaged over both
classes, and any zero-denominator class statistic is defined as 0. PR-AUC is
average precision with tied scores collapsed into one threshold group.

Cross-validation drives the full pipeline per fold: shared-gene selection,
optional interaction filtering, normalization fitted on the training side
only, training with a fold-specific seed, and evaluation on the held-out
fold. The mixing-weight sweep runs the same folds once for all its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .data import (
    ExpressionDataset,
    GeneInteractionSet,
    apply_normalization,
    filter_by_interactions,
    fit_normalization,
    project,
    select_common_genes,
    stratified_kfold,
)
from .errors import DimensionError, MetricError
from .models import ModelParams, predict
from .training import (
    MetaConfig,
    TrainLog,
    train_meta,
    train_meta_stacked,
    train_plain,
    train_transfer,
)

Array = np.ndarray

TRAINERS = ("plain", "transfer", "meta")

# Most mixing weights a sweep trains as one stacked MLP. Stacking multiplies
# every parameter-sized array by the block size: the parameters, the Adam
# moments, the gradient maps and the adapted copy. On the family-d50-mlp
# benchmark (2 vCPUs) all six default weights in one block raised peak RSS
# from 45 to 53 MB, past its 10% bound, for a sweep of 0.42 s; blocks of 3
# take 0.51 s at 48 MB, against 0.69 s one weight at a time. A fixed block
# also keeps peak memory independent of how many weights a sweep lists.
_LAMBDA_BLOCK = 3


@dataclass(frozen=True)
class Confusion:
    """Binary confusion counts at one threshold."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n_samples(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts plus macro-averaged summary metrics for one score set.

    ``pr_auc`` is NaN when undefined (no positive labels to rank).
    """

    n_samples: int
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    pr_auc: float


@dataclass(frozen=True)
class CvResult:
    """Per-fold reports plus their arithmetic means (NaN-aware for PR-AUC)."""

    per_fold: tuple[MetricsReport, ...]
    mean_accuracy: float
    mean_precision: float
    mean_recall: float
    mean_f1: float
    mean_pr_auc: float

    @property
    def k(self) -> int:
        return len(self.per_fold)


@dataclass(frozen=True)
class SweepPoint:
    """Cross-validated F1 for one value of the target-loss mixing weight."""

    lam: float
    f1_mean: float
    f1_std: float
    cv: CvResult


# ---------------------------------------------------------------------------
# scalar metrics


def _check_scores_labels(scores: Array, labels: Array) -> tuple[Array, Array]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or labels.ndim != 1:
        raise DimensionError(
            f"scores and labels must be 1-D, got {scores.shape} and {labels.shape}"
        )
    if scores.shape != labels.shape:
        raise DimensionError(f"length mismatch: {scores.shape} vs {labels.shape}")
    if scores.size == 0:
        raise MetricError("metrics need at least one sample")
    if not np.all(np.isfinite(scores)):
        raise MetricError("scores contain non-finite values")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise MetricError("labels must be exactly 0 or 1")
    return scores, labels


def confusion(scores: Array, labels: Array, threshold: float = 0.5) -> Confusion:
    """Counts at ``score >= threshold``; scores must lie in [0, 1]."""
    scores, labels = _check_scores_labels(scores, labels)
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise MetricError("scores must lie in [0, 1]")
    calls = scores >= threshold
    pos = labels == 1.0
    tp = int(np.sum(calls & pos))
    fp = int(np.sum(calls & ~pos))
    fn = int(np.sum(~calls & pos))
    tn = int(np.sum(~calls & ~pos))
    return Confusion(tp, fp, tn, fn)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _macro_stats(c: Confusion) -> tuple[float, float, float, float]:
    accuracy = _safe_div(c.tp + c.tn, c.n_samples)
    prec_pos = _safe_div(c.tp, c.tp + c.fp)
    rec_pos = _safe_div(c.tp, c.tp + c.fn)
    prec_neg = _safe_div(c.tn, c.tn + c.fn)
    rec_neg = _safe_div(c.tn, c.tn + c.fp)
    f1_pos = _safe_div(2.0 * prec_pos * rec_pos, prec_pos + rec_pos)
    f1_neg = _safe_div(2.0 * prec_neg * rec_neg, prec_neg + rec_neg)
    precision = (prec_pos + prec_neg) / 2.0
    recall = (rec_pos + rec_neg) / 2.0
    f1 = (f1_pos + f1_neg) / 2.0
    return accuracy, precision, recall, f1


def pr_auc(scores: Array, labels: Array) -> float:
    """Average precision over the ranking induced by the scores.

    Tied scores form a single threshold group, so the result depends only on
    the ordering (any strictly monotone transform of the scores leaves it
    unchanged). Requires at least one positive label.
    """
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(np.sum(labels == 1.0))
    if n_pos == 0:
        raise MetricError("pr_auc is undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    ends = np.append(np.flatnonzero(np.diff(s)), s.size - 1)
    cum_tp = np.cumsum(y)[ends]
    cum_n = ends + 1.0
    precision_at = cum_tp / cum_n
    recall_at = cum_tp / n_pos
    deltas = np.diff(np.concatenate(([0.0], recall_at)))
    return float(np.sum(precision_at * deltas))


def classification_metrics(
    scores: Array, labels: Array, threshold: float = 0.5
) -> MetricsReport:
    """Full report at one threshold; PR-AUC is NaN when no positives exist."""
    c = confusion(scores, labels, threshold)
    accuracy, precision, recall, f1 = _macro_stats(c)
    try:
        auc = pr_auc(scores, labels)
    except MetricError:
        auc = math.nan
    return MetricsReport(
        n_samples=c.n_samples,
        tp=c.tp,
        fp=c.fp,
        tn=c.tn,
        fn=c.fn,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        pr_auc=auc,
    )


# ---------------------------------------------------------------------------
# training and cross-validation


def train(
    trainer: str,
    config: MetaConfig,
    sources: Sequence[ExpressionDataset],
    target_train: ExpressionDataset,
) -> tuple[ModelParams, TrainLog]:
    """Run the named trainer with its default stage lengths.

    The trainers are looked up as module attributes at call time, so a
    wrapper installed on this module sees every call.
    """
    if trainer not in TRAINERS:
        raise ValueError(f"trainer must be one of {TRAINERS}, got {trainer!r}")
    if trainer == "plain":
        return train_plain(config, target_train)
    if not sources:
        raise ValueError(f"trainer {trainer!r} requires sources, got none")
    if trainer == "transfer":
        return train_transfer(config, sources, target_train)
    return train_meta(config, sources, target_train)


def _fold_seed(seed: int, fold: int) -> int:
    """Stable per-fold seed; folds never share init or batch streams."""
    return int(np.random.SeedSequence([seed, fold]).generate_state(1)[0])


def _nan_mean(values: Sequence[float]) -> float:
    kept = [v for v in values if not math.isnan(v)]
    return sum(kept) / len(kept) if kept else math.nan


def prepare_cohorts(
    sources: Sequence[ExpressionDataset],
    target: ExpressionDataset,
    interactions: GeneInteractionSet | None = None,
) -> tuple[tuple[str, ...], list[ExpressionDataset], ExpressionDataset]:
    """Put every cohort on one gene list: ``(genes, sources, target)``.

    Genes are those shared by every dataset (and, when given, interaction
    members). Each source is normalized with its own full-cohort statistics;
    the target is only projected, since which of its rows fit the statistics
    is the caller's choice.
    """
    genes = select_common_genes([*sources, target])
    if interactions is not None:
        genes = filter_by_interactions(genes, interactions)
    sources_p = [project(src, genes) for src in sources]
    norm_sources = [
        src.with_matrix(apply_normalization(src.matrix, fit_normalization(src.matrix)))
        for src in sources_p
    ]
    return genes, norm_sources, project(target, genes)


@dataclass(frozen=True)
class _Fold:
    """One cross-validation fold, ready to train and score."""

    config: MetaConfig
    sources: list[ExpressionDataset]
    train: ExpressionDataset
    test_matrix: Array
    test_labels: Array


def _folds(
    sources: Sequence[ExpressionDataset],
    target: ExpressionDataset,
    config: MetaConfig,
    k: int,
    interactions: GeneInteractionSet | None,
) -> Iterator[_Fold]:
    """Prepare the cohorts once, then yield each stratified fold.

    The model's input width is re-derived from the gene selection. Per fold,
    normalization is fitted on the training split only and applied to the
    held-out fold, and the fold seed derives from ``config.seed``.
    """
    genes, norm_sources, target_p = prepare_cohorts(sources, target, interactions)
    model = replace(config.model, input_dim=len(genes))
    split = stratified_kfold(target_p.labels, k, seed=config.seed)
    for fold in range(split.k):
        train_idx = split.train_indices(fold)
        test_idx = split.test_indices(fold)
        train_ds = target_p.take(train_idx)
        stats = fit_normalization(train_ds.matrix)
        yield _Fold(
            config=replace(config, model=model, seed=_fold_seed(config.seed, fold)),
            sources=norm_sources,
            train=train_ds.with_matrix(apply_normalization(train_ds.matrix, stats)),
            test_matrix=apply_normalization(target_p.matrix[test_idx], stats),
            test_labels=target_p.labels[test_idx],
        )


def _cv_result(reports: Sequence[MetricsReport]) -> CvResult:
    return CvResult(
        per_fold=tuple(reports),
        mean_accuracy=sum(r.accuracy for r in reports) / len(reports),
        mean_precision=sum(r.precision for r in reports) / len(reports),
        mean_recall=sum(r.recall for r in reports) / len(reports),
        mean_f1=sum(r.f1 for r in reports) / len(reports),
        mean_pr_auc=_nan_mean([r.pr_auc for r in reports]),
    )


def cross_validate(
    sources: Sequence[ExpressionDataset],
    target: ExpressionDataset,
    config: MetaConfig,
    trainer: str = "meta",
    k: int = 10,
    interactions: GeneInteractionSet | None = None,
) -> CvResult:
    """Stratified k-fold evaluation of one trainer on the target cohort.

    Cohorts are prepared by ``prepare_cohorts``, and the model's input width
    is re-derived from its gene selection. Per fold, normalization is fitted
    on the training split only and applied to the held-out fold. Fold seeds
    derive from ``config.seed``.
    """
    reports = []
    for fold in _folds(sources, target, config, k, interactions):
        params, _ = train(trainer, fold.config, fold.sources, fold.train)
        scores = predict(params, fold.config.model, fold.test_matrix)
        reports.append(classification_metrics(scores, fold.test_labels))
    return _cv_result(reports)


def cv_to_csv(result: CvResult, path: Path | str) -> None:
    """Per-fold rows plus a final ``mean`` row (counts summed, metrics averaged)."""
    header = "fold,n_samples,tp,fp,tn,fn,accuracy,precision,recall,f1,pr_auc"
    lines = [header]
    for i, r in enumerate(result.per_fold):
        lines.append(
            f"{i},{r.n_samples},{r.tp},{r.fp},{r.tn},{r.fn},"
            f"{r.accuracy!r},{r.precision!r},{r.recall!r},{r.f1!r},{r.pr_auc!r}"
        )
    totals = [
        sum(r.n_samples for r in result.per_fold),
        sum(r.tp for r in result.per_fold),
        sum(r.fp for r in result.per_fold),
        sum(r.tn for r in result.per_fold),
        sum(r.fn for r in result.per_fold),
    ]
    lines.append(
        "mean," + ",".join(str(t) for t in totals) + ","
        f"{result.mean_accuracy!r},{result.mean_precision!r},"
        f"{result.mean_recall!r},{result.mean_f1!r},{result.mean_pr_auc!r}"
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# mixing-weight sweep


def lambda_sweep(
    sources: Sequence[ExpressionDataset],
    target: ExpressionDataset,
    config: MetaConfig,
    lambdas: Sequence[float],
    k: int = 10,
    interactions: GeneInteractionSet | None = None,
) -> list[SweepPoint]:
    """Cross-validate the meta trainer at each mixing weight.

    Every point reuses the same base seed, so fold splits and batch schedules
    are identical across the sweep and the weight is the only moving part.
    The loop runs folds first: the cohorts are prepared once, and each fold's
    split and normalization are fitted once for all weights. An MLP trains up
    to ``_LAMBDA_BLOCK`` weights of a fold as one stacked model
    (``train_meta_stacked``) scored by one ``predict``; the CNN and the
    transformer train one weight at a time. Either way each point equals
    ``cross_validate`` of the meta trainer at its weight, bit for bit.
    """
    if not lambdas:
        raise ValueError("lambda_sweep needs at least one mixing weight")
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"mixing weights must be in [0, 1], got {lam}")
    if not sources:
        raise ValueError("trainer 'meta' requires sources, got none")
    block = _LAMBDA_BLOCK if config.model.architecture == "mlp" else 1
    reports: list[list[MetricsReport]] = [[] for _ in lambdas]
    for fold in _folds(sources, target, config, k, interactions):
        for start in range(0, len(lambdas), block):
            lams = lambdas[start : start + block]
            if block == 1:
                params, _ = train_meta(replace(fold.config, lam=lams[0]), fold.sources, fold.train)
            else:
                params, _ = train_meta_stacked(fold.config, lams, fold.sources, fold.train)
            scores = predict(params, fold.config.model, fold.test_matrix)
            for i, row in enumerate(scores.reshape(len(lams), -1)):
                reports[start + i].append(classification_metrics(row, fold.test_labels))
    points = []
    for lam, per_fold in zip(lambdas, reports):
        cv = _cv_result(per_fold)
        f1s = np.array([r.f1 for r in cv.per_fold])
        points.append(
            SweepPoint(
                lam=lam,
                f1_mean=float(f1s.mean()),
                f1_std=float(f1s.std()),
                cv=cv,
            )
        )
    return points


def best_lambda(points: Sequence[SweepPoint]) -> SweepPoint:
    """Point with the highest mean F1; the earliest wins ties."""
    if not points:
        raise ValueError("no sweep points given")
    best = points[0]
    for p in points[1:]:
        if p.f1_mean > best.f1_mean:
            best = p
    return best


def sweep_to_csv(points: Sequence[SweepPoint], path: Path | str) -> None:
    """``lambda,f1_mean,f1_std`` rows in sweep order."""
    lines = ["lambda,f1_mean,f1_std"]
    for p in points:
        lines.append(f"{p.lam!r},{p.f1_mean!r},{p.f1_std!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
