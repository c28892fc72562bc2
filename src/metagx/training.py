"""Episodic meta-training across source cohorts, plus plain and transfer baselines.

One meta step works on a target batch and one batch per source cohort:

1. adapt a throwaway copy of the parameters to each source batch with one
   SGD-with-momentum step (the inner loop),
2. evaluate each adapted copy on its source batch -> mean source loss L_S,
3. evaluate the unadapted parameters on the target batch -> target loss L_T,
4. combine L = lam * L_T + (1 - lam) * L_S and take one Adam step (the outer
   loop).

The outer gradient is first-order: adapted copies enter the combined loss as
independent leaves under their parameter names, and per-name gradients are
summed, so no second derivative through the inner step is formed.

All trainers share one loop of shuffled Adam passes: plain training is that
loop on the target alone, meta training adds the adapted-source term to each
step, and transfer runs it twice (pooled sources, then the target).

Randomness is split into named streams derived from the run seed, so the
target batch schedule is identical across trainers; with lam = 1 the meta
trainer reproduces the plain trainer's trajectory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import ExpressionDataset, sample_batch
from .errors import TrainingError
from .models import ModelConfig, ModelParams, forward, init_model

Array = np.ndarray

# sub-streams of the run seed; keeping them separate guarantees the target
# batch schedule does not depend on how many sources are consumed. Every
# stage that passes over the target draws the same schedule.
_STAGE_STREAMS = {"train": 1, "finetune": 1, "pretrain": 3}
_STREAM_SOURCE = 2


@dataclass(frozen=True)
class MetaConfig:
    """Optimization hyperparameters around one ModelConfig.

    ``lam`` weighs the target loss against the mean adapted-source loss in
    the combined objective; 1 ignores the sources, 0 ignores the target.
    """

    model: ModelConfig
    inner_lr: float = 4e-4
    inner_momentum: float = 0.2
    outer_lr: float = 4e-4
    lam: float = 0.5
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("inner_lr", "outer_lr"):
            rate = getattr(self, name)
            if not (np.isfinite(rate) and rate > 0):
                raise ValueError(f"{name} must be finite and > 0, got {rate}")
        if not 0.0 <= self.inner_momentum < 1.0:
            raise ValueError(f"inner_momentum must be in [0, 1), got {self.inner_momentum}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class SgdState:
    """Per-parameter velocity for SGD with momentum."""

    velocity: dict[str, Array] = field(default_factory=dict)


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter."""

    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class TrainLogRecord:
    step: int
    epoch: int
    loss_target: float
    loss_source: float | None
    loss_meta: float | None
    stage: str = "train"


class TrainLog:
    """Per-step loss history; each record names its training stage."""

    def __init__(self):
        self.records: list[TrainLogRecord] = []

    def append(
        self,
        step: int,
        epoch: int,
        loss_target: float,
        loss_source: float | None = None,
        loss_meta: float | None = None,
        stage: str = "train",
    ) -> None:
        self.records.append(
            TrainLogRecord(step, epoch, loss_target, loss_source, loss_meta, stage)
        )

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path: Path | str) -> None:
        """Write ``step,epoch,loss_target,loss_source,loss_meta,stage`` rows."""
        lines = ["step,epoch,loss_target,loss_source,loss_meta,stage"]
        for r in self.records:
            src = "" if r.loss_source is None else repr(r.loss_source)
            meta = "" if r.loss_meta is None else repr(r.loss_meta)
            lines.append(f"{r.step},{r.epoch},{repr(r.loss_target)},{src},{meta},{r.stage}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# optimizer steps


def _checked_grad(name: str, grad: Array) -> Array:
    if not np.all(np.isfinite(grad)):
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    return grad


def sgd_momentum_step(
    params: ModelParams,
    grads: dict[str, Array],
    lr: float,
    momentum: float,
    state: SgdState,
) -> ModelParams:
    """One step of v <- momentum * v + g; theta <- theta - lr * v.

    ``state`` is updated in place; a new ModelParams is returned.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    new = {}
    for name, arr in params.items():
        g = _checked_grad(name, grads[name])
        v = state.velocity.get(name)
        v = g.copy() if v is None else momentum * v + g
        state.velocity[name] = v
        new[name] = arr - lr * v
    return ModelParams(new)


def adam_step(
    params: ModelParams, grads: dict[str, Array], lr: float, state: AdamState
) -> ModelParams:
    """One bias-corrected Adam step; ``state`` is updated in place."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    new = {}
    for name, arr in params.items():
        g = _checked_grad(name, grads[name])
        m = state.m.get(name, 0.0)
        v = state.v.get(name, 0.0)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        new[name] = arr - lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return ModelParams(new)


# ---------------------------------------------------------------------------
# losses


def inner_adapt(
    params: ModelParams,
    model_config: ModelConfig,
    batch: tuple[Array, Array],
    alpha: float,
    momentum: float,
) -> ModelParams:
    """Adapt a copy of ``params`` to one batch with one SGD-momentum step.

    The step starts from zero velocity, so it is theta - alpha * g whatever
    the momentum; the input parameters are untouched.
    """
    x, y = batch
    tape = ad.Tape()
    leaves = params.bind(tape)
    loss = ad.bce_loss(forward(leaves, model_config, Tensor(x)), Tensor(y))
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingError(f"non-finite adaptation loss {value}")
    grads = ad.backward(loss)
    gmap = {name: grads[leaf.node].data for name, leaf in leaves.items()}
    return sgd_momentum_step(params, gmap, alpha, momentum, SgdState())


def meta_loss(loss_target: Tensor, loss_source: Tensor, lam: float) -> Tensor:
    """Convex mix lam * L_T + (1 - lam) * L_S, recorded on the losses' tape."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    return ad.add(ad.mul(loss_target, lam), ad.mul(loss_source, 1.0 - lam))


def _mean_of(losses: Sequence[Tensor]) -> Tensor:
    acc = losses[0]
    for loss in losses[1:]:
        acc = ad.add(acc, loss)
    return ad.mul(acc, 1.0 / len(losses))


def _adapted_source_losses(
    tape: ad.Tape,
    params: ModelParams,
    model_config: ModelConfig,
    sources: Sequence[ExpressionDataset],
    batch_size: int,
    alpha: float,
    momentum: float,
    rng: np.random.Generator,
) -> tuple[list[Tensor], list[dict[str, Tensor]]]:
    """Adapt to each source and put the adapted-copy eval losses on ``tape``.

    Returns the per-source loss tensors and the adapted leaf bindings, whose
    gradients count toward the shared parameter names (first-order rule).
    """
    losses: list[Tensor] = []
    groups: list[dict[str, Tensor]] = []
    for src in sources:
        bx, by = sample_batch(src.matrix, src.labels, batch_size, rng)
        fast = inner_adapt(params, model_config, (bx, by), alpha, momentum)
        leaves = fast.bind(tape)
        pred = forward(leaves, model_config, Tensor(bx))
        losses.append(ad.bce_loss(pred, Tensor(by)))
        groups.append(leaves)
    return losses, groups


def outer_step(
    params: ModelParams,
    loss: Tensor,
    leaf_groups: dict[str, Sequence[Tensor]],
    state: AdamState,
    lr: float,
) -> ModelParams:
    """Backward through ``loss`` and apply one Adam step.

    ``leaf_groups`` maps each parameter name to every leaf carrying it (the
    base parameters plus any adapted copies); their gradients are summed.
    """
    grads = ad.backward(loss)
    gmap: dict[str, Array] = {}
    for name, leaves in leaf_groups.items():
        total = grads[leaves[0].node].data
        for leaf in leaves[1:]:
            total = total + grads[leaf.node].data
        gmap[name] = total
    return adam_step(params, gmap, lr, state)


# ---------------------------------------------------------------------------
# training loops


def _check_inputs(config: MetaConfig, datasets: Sequence[ExpressionDataset]) -> None:
    for ds in datasets:
        if ds.n_samples == 0:
            raise ValueError(f"dataset {ds.name!r} has no samples")
        if ds.n_genes != config.model.input_dim:
            raise ValueError(
                f"dataset {ds.name!r} has {ds.n_genes} genes, model expects "
                f"{config.model.input_dim}"
            )


def _epoch_batches(dataset: ExpressionDataset, batch_size: int, rng: np.random.Generator):
    """Shuffled full pass: ceil(n / batch_size) batches, last one possibly short."""
    perm = rng.permutation(dataset.n_samples)
    for start in range(0, dataset.n_samples, batch_size):
        idx = perm[start : start + batch_size]
        yield dataset.matrix[idx], dataset.labels[idx]


def _check_finite(value: float, what: str, step: int, epoch: int) -> None:
    if not np.isfinite(value):
        raise TrainingError(f"non-finite {what} {value} at step {step} (epoch {epoch})")


OnStep = Callable[[int, ModelParams], None]


def _train_loop(
    config: MetaConfig,
    params: ModelParams,
    dataset: ExpressionDataset,
    epochs: int,
    stage: str,
    log: TrainLog,
    on_step: OnStep | None,
    sources: Sequence[ExpressionDataset] = (),
) -> ModelParams:
    """``epochs`` shuffled Adam passes over ``dataset``, from a fresh optimizer.

    Batches come from the stage's sub-stream of the run seed. Without
    sources each step minimizes the batch loss; with sources it minimizes the
    meta loss, adding the adapted-source term. Steps are numbered on from the
    records already in ``log``.
    """
    adam = AdamState()
    rng = np.random.default_rng([config.seed, _STAGE_STREAMS[stage]])
    source_rng = np.random.default_rng([config.seed, _STREAM_SOURCE])
    step = len(log)
    for epoch in range(1, epochs + 1):
        for bx, by in _epoch_batches(dataset, config.batch_size, rng):
            step += 1
            tape = ad.Tape()
            base = params.bind(tape)
            l_t = ad.bce_loss(forward(base, config.model, Tensor(bx)), Tensor(by))
            lt_v = l_t.item()
            _check_finite(lt_v, f"{stage} loss", step, epoch)
            loss, ls_v, lm_v, src_groups = l_t, None, None, []
            if sources:
                src_losses, src_groups = _adapted_source_losses(
                    tape,
                    params,
                    config.model,
                    sources,
                    config.batch_size,
                    config.inner_lr,
                    config.inner_momentum,
                    source_rng,
                )
                l_s = _mean_of(src_losses)
                loss = meta_loss(l_t, l_s, config.lam)
                ls_v, lm_v = l_s.item(), loss.item()
                _check_finite(ls_v, "source loss", step, epoch)
            groups = {
                name: [leaf] + [g[name] for g in src_groups] for name, leaf in base.items()
            }
            params = outer_step(params, loss, groups, adam, config.outer_lr)
            log.append(step, epoch, lt_v, ls_v, lm_v, stage)
            if on_step is not None:
                on_step(step, params)
    return params


def train_meta(
    config: MetaConfig,
    sources: Sequence[ExpressionDataset],
    target_train: ExpressionDataset,
    on_step: OnStep | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Meta-train across sources and a target training split.

    Steps follow the target batch schedule: epochs x ceil(n / batch_size).
    With ``config.lam == 1`` the parameter trajectory equals ``train_plain``
    on the same data, since source terms then carry zero gradient weight and
    source sampling uses its own random stream.
    """
    if not sources:
        raise ValueError("train_meta requires at least one source dataset")
    _check_inputs(config, [*sources, target_train])
    log = TrainLog()
    params = init_model(config.model, config.seed)
    params = _train_loop(
        config, params, target_train, config.epochs, "train", log, on_step, sources
    )
    return params, log


def train_plain(
    config: MetaConfig,
    target_train: ExpressionDataset,
    on_step: OnStep | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Adam training on the target split alone (no sources, no inner loop)."""
    _check_inputs(config, [target_train])
    log = TrainLog()
    params = init_model(config.model, config.seed)
    params = _train_loop(config, params, target_train, config.epochs, "train", log, on_step)
    return params, log


def _pool_sources(sources: Sequence[ExpressionDataset]) -> ExpressionDataset:
    genes = sources[0].gene_ids
    for src in sources[1:]:
        if src.gene_ids != genes:
            raise ValueError(
                f"sources {sources[0].name!r} and {src.name!r} have different gene lists"
            )
    matrix = np.vstack([src.matrix for src in sources])
    labels = np.concatenate([src.labels for src in sources])
    return ExpressionDataset("pooled", genes, matrix, labels)


def train_transfer(
    config: MetaConfig,
    sources: Sequence[ExpressionDataset],
    target_train: ExpressionDataset,
    pretrain_epochs: int | None = None,
    finetune_epochs: int | None = None,
    on_step: OnStep | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Pretrain on pooled sources, then fine-tune on the target split.

    Both stages run plain Adam; the fine-tune stage starts a fresh optimizer
    state and uses the same target batch stream as ``train_plain``. Stage
    epoch counts default to ``config.epochs`` each; with ``pretrain_epochs=0``
    the result matches ``train_plain`` exactly.
    """
    if not sources:
        raise ValueError("train_transfer requires at least one source dataset")
    pre_epochs = config.epochs if pretrain_epochs is None else pretrain_epochs
    fin_epochs = config.epochs if finetune_epochs is None else finetune_epochs
    if pre_epochs < 0 or fin_epochs < 1:
        raise ValueError("pretrain epochs must be >= 0 and finetune epochs >= 1")
    _check_inputs(config, [*sources, target_train])
    log = TrainLog()
    params = init_model(config.model, config.seed)
    if pre_epochs:
        pooled = _pool_sources(sources)
        params = _train_loop(config, params, pooled, pre_epochs, "pretrain", log, on_step)
    params = _train_loop(config, params, target_train, fin_epochs, "finetune", log, on_step)
    return params, log
