"""Shapley feature attribution on model probability outputs.

The coalition value of a feature subset S is the model's output on a hybrid
input: features in S keep the explained sample's values, all others are
imputed with the background mean. ``shapley_sampled`` estimates the Shapley
values by averaging marginal contributions over random feature permutations;
``shapley_exact`` enumerates every subset and serves as the oracle for small
feature counts.

``model`` is normally a parameter dict (name -> float64 array) with its
ModelConfig; passing a callable ``matrix -> scores`` with ``config=None``
attributes any black-box scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .models import ModelConfig, ModelParams, forward_mlp_tail, predict

Array = np.ndarray

_EXACT_MAX_FEATURES = 16
_PERM_BLOCK = 2048  # unused here; perfbench's explain.block_mb formula reads it
# Model rows per call; whole permutations (d + 1 rows each), at least one.
_ROW_BUDGET = 1024


@dataclass(frozen=True)
class Attribution:
    """Per-feature Shapley values for one explained sample.

    ``base_value`` is the model output with every feature imputed;
    ``prediction`` is the output on the untouched sample. For exact values
    the efficiency identity sum(values) == prediction - base_value holds to
    floating-point accuracy.
    """

    gene_ids: tuple[str, ...]
    values: Array
    sample: Array
    base_value: float
    prediction: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        sample = np.asarray(self.sample, dtype=np.float64)
        if values.ndim != 1 or values.shape != sample.shape:
            raise ValueError(
                f"values/sample must be matching 1-D arrays, got {values.shape}/{sample.shape}"
            )
        if len(self.gene_ids) != values.shape[0]:
            raise ValueError(
                f"{len(self.gene_ids)} gene ids for {values.shape[0]} features"
            )
        values.flags.writeable = False
        sample.flags.writeable = False
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample", sample)


def _predict_fn(model, config: ModelConfig | None) -> Callable[[Array], Array]:
    if config is not None:
        if not isinstance(model, dict):
            raise TypeError("model must be a parameter dict when a ModelConfig is given")
        return lambda matrix: predict(model, config, matrix)
    if not callable(model):
        raise TypeError("with config=None, model must be a callable matrix -> scores")

    def scores(matrix: Array) -> Array:
        out = np.asarray(model(matrix), dtype=np.float64)
        if out.shape != (matrix.shape[0],):
            raise ValueError(f"model returned shape {out.shape} for {matrix.shape[0]} rows")
        return out

    return scores


def _base_and_sample(background: Array, sample: Array) -> tuple[Array, Array]:
    background = np.asarray(background, dtype=np.float64)
    sample = np.asarray(sample, dtype=np.float64)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError(f"background must be a non-empty matrix, got shape {background.shape}")
    if sample.ndim != 1 or sample.shape[0] != background.shape[1]:
        raise ValueError(
            f"sample shape {sample.shape} does not match background width {background.shape[1]}"
        )
    return background.mean(axis=0), sample


def _gene_ids(gene_ids: Sequence[str] | None, d: int) -> tuple[str, ...]:
    if gene_ids is None:
        return tuple(f"f{i}" for i in range(d))
    ids = tuple(gene_ids)
    if len(ids) != d:
        raise ValueError(f"{len(ids)} gene ids for {d} features")
    return ids


def shapley_exact(
    model,
    config: ModelConfig | None,
    background: Array,
    sample: Array,
    gene_ids: Sequence[str] | None = None,
) -> Attribution:
    """Exact Shapley values by full subset enumeration (2^d model rows).

    Only sensible for small d; refuses more than 16 features.
    """
    base, sample = _base_and_sample(background, sample)
    fn = _predict_fn(model, config)
    d = sample.shape[0]
    if d > _EXACT_MAX_FEATURES:
        raise ValueError(f"exact enumeration supports up to {_EXACT_MAX_FEATURES} features, got {d}")
    codes = np.arange(2**d, dtype=np.int64)
    masks = ((codes[:, None] >> np.arange(d)) & 1).astype(bool)
    values = fn(np.where(masks, sample, base))
    sizes = masks.sum(axis=1)
    fact = [math.factorial(i) for i in range(d + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)], dtype=np.float64
    )
    phi = np.zeros(d)
    for i in range(d):
        without = np.flatnonzero(~masks[:, i])
        gains = values[without + (1 << i)] - values[without]
        phi[i] = float(np.dot(weight_by_size[sizes[without]], gains))
    return Attribution(
        gene_ids=_gene_ids(gene_ids, d),
        values=phi,
        sample=sample,
        base_value=float(values[0]),
        prediction=float(values[-1]),
    )


def _hybrid_values(fn: Callable[[Array], Array], base: Array, sample: Array):
    """Generic path: build every hybrid row of a permutation batch and score
    them with ``fn``; returns ``perms -> [c, d + 1]`` values."""
    d = base.shape[0]
    arrivals = np.arange(d + 1)[:, None]

    def values(perms: Array) -> Array:
        # position[b, f] = arrival index of feature f in permutation b;
        # row j of a permutation holds the features of its first j arrivals
        position = np.argsort(perms, axis=1)
        inputs = np.where(position[:, None, :] < arrivals, sample, base)
        return fn(inputs.reshape(-1, d)).reshape(len(perms), d + 1)

    return values


def _mlp_values(params: ModelParams, config: ModelConfig, base: Array, sample: Array):
    """MLP path: the first layer is affine, so the arrival of feature f adds
    ``(sample[f] - base[f]) * W0[:, f]`` to the pre-activations. Row j of a
    permutation is the base row's pre-activations plus a cumsum of its first
    j arrivals' steps; only the first layer's leaky-relu and the layers after
    it run per row."""
    w = params["hidden.0.weight"]
    base_pre = base[None, :] @ w.T + params["hidden.0.bias"]
    # [d, hidden], C order so that a permutation gathers whole rows
    steps = np.ascontiguousarray((sample - base)[:, None] * w.T)

    def values(perms: Array) -> Array:
        c, d = perms.shape
        pre = np.empty((c, d + 1, w.shape[0]))
        pre[:, 0] = 0.0
        np.cumsum(steps[perms], axis=1, out=pre[:, 1:])
        pre += base_pre
        h = ad.leaky_relu(pre.reshape(c * (d + 1), -1), config.leaky_slope)
        out = forward_mlp_tail(params, config, h)
        return out.data.reshape(c, d + 1)

    return values


def shapley_sampled(
    model,
    config: ModelConfig | None,
    background: Array,
    sample: Array,
    n_permutations: int,
    seed: int,
    gene_ids: Sequence[str] | None = None,
) -> Attribution:
    """Permutation-sampling Shapley estimate.

    Each sampled permutation adds features one by one, crediting every
    feature with the model-output change it causes on arrival; the estimate
    is the mean over permutations. Deterministic for a fixed seed.

    An MLP never sees the hybrid rows: each row's first-layer
    pre-activations are the base row's plus a running sum of per-feature
    column steps, and only the later layers run. Any other model scores the
    hybrid rows through ``predict`` (or the callable). Either way each chunk
    of whole permutations, at most ``max(1024, d + 1)`` rows, is drawn just
    before it is scored, so memory does not grow with ``n_permutations``.
    """
    base, sample = _base_and_sample(background, sample)
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    fn = _predict_fn(model, config)
    d = sample.shape[0]
    base_value = float(fn(base[None, :])[0])
    prediction = float(fn(sample[None, :])[0])
    if config is not None and config.architecture == "mlp":
        coalition_values = _mlp_values(model, config, base, sample)
    else:
        coalition_values = _hybrid_values(fn, base, sample)

    rng = np.random.default_rng(seed)
    phi = np.zeros(d)
    step = max(1, _ROW_BUDGET // (d + 1))
    for start in range(0, n_permutations, step):
        # permuted shuffles row by row: chunked draws give one draw's rows
        c = min(step, n_permutations - start)
        perms = rng.permuted(np.tile(np.arange(d), (c, 1)), axis=1)
        gains = np.diff(coalition_values(perms), axis=1)
        np.add.at(phi, perms.ravel(), gains.ravel())
    phi /= n_permutations
    return Attribution(
        gene_ids=_gene_ids(gene_ids, d),
        values=phi,
        sample=sample,
        base_value=base_value,
        prediction=prediction,
    )


def rank_features(
    attributions: Sequence[Attribution], top_k: int | None = None
) -> list[tuple[str, float]]:
    """Mean absolute Shapley value per gene across samples, largest first.

    Ties break lexicographically by gene id. ``top_k=None`` keeps all genes.
    """
    if not attributions:
        raise ValueError("rank_features needs at least one attribution")
    genes = attributions[0].gene_ids
    for att in attributions[1:]:
        if att.gene_ids != genes:
            raise ValueError("attributions cover different gene lists")
    stacked = np.vstack([np.abs(att.values) for att in attributions])
    scores = stacked.mean(axis=0)
    ranked = sorted(zip(genes, scores.tolist()), key=lambda gv: (-gv[1], gv[0]))
    if top_k is not None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        ranked = ranked[:top_k]
    return ranked


def attribution_to_csv(attribution: Attribution, path: Path | str) -> None:
    """``gene_id,shap_value,feature_value`` rows in gene order, plus a header."""
    lines = ["gene_id,shap_value,feature_value"]
    for gene, value, feat in zip(
        attribution.gene_ids, attribution.values.tolist(), attribution.sample.tolist()
    ):
        lines.append(f"{gene},{value!r},{feat!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def ranking_to_csv(ranked: Sequence[tuple[str, float]], path: Path | str) -> None:
    """``gene_id,mean_abs_shap`` rows in rank order."""
    lines = ["gene_id,mean_abs_shap"]
    for gene, score in ranked:
        lines.append(f"{gene},{score!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
