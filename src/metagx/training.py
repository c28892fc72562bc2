"""Episodic meta-training across source cohorts, plus plain and transfer baselines.

One meta step works on a target batch and one batch per source cohort:

1. adapt a throwaway copy of the parameters to each source batch with one
   SGD-with-momentum step (the inner loop),
2. evaluate each adapted copy on its source batch -> mean source loss L_S,
3. evaluate the unadapted parameters on the target batch -> target loss L_T,
4. combine L = lam * L_T + (1 - lam) * L_S and take one Adam step (the outer
   loop).

The outer gradient is first-order: each term (the target batch, then each
adapted copy on its source batch) is differentiated on its own tape, with the
sweep seeded by the term's weight in L, and each term's per-name gradients
are added to the running sum as they arrive, in that order. No second
derivative through the inner step is formed, and only one term's activations
and two gradient maps are alive at a time, so peak memory does not grow with
the number of sources.

All trainers share one loop of shuffled Adam passes: plain training is that
loop on the target alone, meta training adds the adapted-source term to each
step, and transfer runs it twice (pooled sources, then the target).

Randomness is split into named streams derived from the run seed, so the
target batch schedule is identical across trainers; with lam = 1 the meta
trainer reproduces the plain trainer's trajectory exactly.

Because neither stream depends on lam, ``train_meta_stacked`` trains one MLP
per mixing weight as one stacked model: every parameter gets a leading [Λ]
axis, lam becomes a [Λ] vector, and each slice runs through the same
expressions in the same order as ``train_meta``, so it is bitwise equal to
``train_meta`` at its weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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


def _check_finite(values, lams: Array | None, describe: Callable[[object], str]) -> None:
    """Raise TrainingError(describe(v)) unless every value is finite.

    Unstacked (``lams`` None), ``v`` is ``values``. In a stacked block,
    ``values`` has a leading [Λ] axis, ``v`` is its first slice holding a
    non-finite value, and the message names that slice's mixing weight.
    """
    if np.all(np.isfinite(values)):
        return
    if lams is None:
        raise TrainingError(describe(values))
    finite = np.isfinite(values).reshape(len(lams), -1).all(axis=1)
    i = int(np.flatnonzero(~finite)[0])
    raise TrainingError(f"{describe(values[i])} at lambda={float(lams[i])!r}")


def _checked_grad(name: str, grad: Array, lams: Array | None = None) -> Array:
    _check_finite(grad, lams, lambda _: f"non-finite gradient for parameter {name!r}")
    return grad


def sgd_momentum_step(
    params: ModelParams,
    grads: dict[str, Array],
    lr: float,
    momentum: float,
    state: SgdState,
    lams: Array | None = None,
) -> ModelParams:
    """One step of v <- momentum * v + g; theta <- theta - lr * v.

    ``state`` is updated in place; a new ModelParams is returned. The first
    step's velocity is ``g`` itself, which the step never writes to. ``lams``
    names the mixing weights of stacked parameters in divergence errors.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    new = {}
    for name, arr in params.items():
        g = _checked_grad(name, grads[name], lams)
        v = state.velocity.get(name)
        v = g if v is None else momentum * v + g
        state.velocity[name] = v
        new[name] = arr - lr * v
    return ModelParams(new)


def adam_step(
    params: ModelParams,
    grads: dict[str, Array],
    lr: float,
    state: AdamState,
    lams: Array | None = None,
) -> ModelParams:
    """One bias-corrected Adam step; ``state`` is updated in place. ``lams``
    names the mixing weights of stacked parameters in divergence errors."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    new = {}
    for name, arr in params.items():
        g = _checked_grad(name, grads[name], lams)
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


def _batch_loss(
    params: ModelParams, model_config: ModelConfig, batch: tuple[Array, Array]
) -> tuple[Tensor, dict[str, Tensor]]:
    """BCE of ``params`` on one batch, recorded on a fresh tape, and its leaves."""
    x, y = batch
    leaves = params.bind(ad.Tape())
    return ad.bce_loss(forward(leaves, model_config, Tensor(x)), Tensor(y)), leaves


def _value(loss: Tensor) -> float | Array:
    """A loss as a float, or the [Λ] per-slice losses of a stacked model."""
    return loss.item() if loss.data.ndim == 0 else loss.data


def _grads(
    loss: Tensor, leaves: dict[str, Tensor], weight: float | Array = 1.0
) -> dict[str, Array]:
    """Gradients of ``weight * loss`` by parameter name; consumes the tape."""
    grads = ad.backward(loss, weight)
    return {name: grads[leaf.node].data for name, leaf in leaves.items()}


def inner_adapt(
    params: ModelParams,
    model_config: ModelConfig,
    batch: tuple[Array, Array],
    alpha: float,
    momentum: float,
    lams: Array | None = None,
) -> ModelParams:
    """Adapt a copy of ``params`` to one batch with one SGD-momentum step.

    The step starts from zero velocity, so it is theta - alpha * g whatever
    the momentum; the input parameters are untouched. ``lams`` marks
    ``params`` as stacked, one slice per mixing weight.
    """
    loss, leaves = _batch_loss(params, model_config, batch)
    value = _value(loss)
    _check_finite(value, lams, lambda v: f"non-finite adaptation loss {v}")
    grads = _grads(loss, leaves, 1.0 if lams is None else np.ones(len(lams)))
    return sgd_momentum_step(params, grads, alpha, momentum, SgdState(), lams)


def outer_step(
    params: ModelParams,
    grads: dict[str, Array],
    state: AdamState,
    lr: float,
    lams: Array | None = None,
) -> ModelParams:
    """Apply one meta step's gradient with one Adam step.

    ``grads`` holds each parameter's weighted term gradients summed left to
    right, the target's first: ``((g_T + g_1) + g_2) + ...``.
    """
    return adam_step(params, grads, lr, state, lams)


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


OnStep = Callable[[int, ModelParams], None]


# a diverging run overflows before its loss or a gradient turns non-finite, and
# those checks raise TrainingError; numpy's warnings on the way are only noise
@np.errstate(over="ignore", invalid="ignore")
def _train_loop(
    config: MetaConfig,
    params: ModelParams,
    dataset: ExpressionDataset,
    stage: str,
    log: TrainLog,
    on_step: OnStep | None,
    sources: Sequence[ExpressionDataset] = (),
    lams: Array | None = None,
) -> ModelParams:
    """``config.epochs`` shuffled Adam passes over ``dataset``, from a fresh optimizer.

    Batches come from the stage's sub-stream of the run seed. Without
    sources each step minimizes the batch loss; with sources it minimizes the
    meta loss, adding the adapted-source terms. Steps are numbered on from the
    records already in ``log``.

    With ``lams``, a [Λ] vector of mixing weights that replaces
    ``config.lam``, the parameters are stacked one slice per weight, every
    loss is a [Λ] vector, and the log records [Λ] loss vectors. The
    arithmetic is the scalar loop's, elementwise, so each slice follows the
    unstacked run at its weight bit for bit.
    """
    lam = config.lam if lams is None else lams
    adam = AdamState()
    rng = np.random.default_rng([config.seed, _STAGE_STREAMS[stage]])
    source_rng = np.random.default_rng([config.seed, _STREAM_SOURCE])
    step = len(log)
    for epoch in range(1, config.epochs + 1):
        for batch in _epoch_batches(dataset, config.batch_size, rng):
            step += 1
            loss, leaves = _batch_loss(params, config.model, batch)
            lt_v = _value(loss)
            _check_finite(
                lt_v, lams, lambda v: f"non-finite {stage} loss {v} at step {step} (epoch {epoch})"
            )
            grads = _grads(loss, leaves, lam if sources else 1.0)
            ls_v = lm_v = None
            if sources:
                weight = (1.0 - lam) * (1.0 / len(sources))
                values = []
                for src in sources:
                    src_batch = sample_batch(src.matrix, src.labels, config.batch_size, source_rng)
                    fast = inner_adapt(
                        params, config.model, src_batch, config.inner_lr, config.inner_momentum,
                        lams,
                    )
                    loss, leaves = _batch_loss(fast, config.model, src_batch)
                    values.append(_value(loss))
                    _check_finite(
                        values[-1],
                        lams,
                        lambda v: f"non-finite source loss {v} at step {step} (epoch {epoch})",
                    )
                    # summing as the terms arrive keeps two gradient maps alive,
                    # not S + 1, in the order ((g_T + g_1) + g_2) + ...
                    for name, g in _grads(loss, leaves, weight).items():
                        grads[name] = grads[name] + g
                ls_v = sum(values[1:], values[0]) * (1.0 / len(sources))
                lm_v = lt_v * lam + ls_v * (1.0 - lam)
            params = outer_step(params, grads, adam, config.outer_lr, lams)
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
    params = _train_loop(config, params, target_train, "train", log, on_step, sources)
    return params, log


def train_meta_stacked(
    config: MetaConfig,
    lams: Sequence[float],
    sources: Sequence[ExpressionDataset],
    target_train: ExpressionDataset,
) -> tuple[ModelParams, list[TrainLog]]:
    """``train_meta`` at every mixing weight in ``lams``, as one stacked MLP.

    Each parameter gets a leading [Λ] axis, one slice per weight, all tiled
    from the one seeded init; ``config.lam`` is not used. Slice i of the
    returned parameters, and log i, are bitwise equal to ``train_meta`` with
    ``lam = lams[i]``. ``predict`` on the result gives [Λ, n] scores. Only
    the MLP stacks: ``conv1d`` and the transformer's token projection have no
    bitwise-equal stacked form.
    """
    if config.model.architecture != "mlp":
        raise ValueError(f"only an MLP trains stacked, got {config.model.architecture!r}")
    if not lams:
        raise ValueError("train_meta_stacked needs at least one mixing weight")
    for lam in lams:
        replace(config, lam=lam)  # validates the weight
    if not sources:
        raise ValueError("train_meta_stacked requires at least one source dataset")
    _check_inputs(config, [*sources, target_train])
    log = TrainLog()
    init = init_model(config.model, config.seed)
    params = ModelParams({n: np.tile(a, (len(lams),) + (1,) * a.ndim) for n, a in init.items()})
    vec = np.array(lams, dtype=np.float64)
    params = _train_loop(config, params, target_train, "train", log, None, sources, vec)
    logs = [TrainLog() for _ in lams]
    for r in log.records:
        for i, one in enumerate(logs):
            one.append(
                r.step, r.epoch, float(r.loss_target[i]), float(r.loss_source[i]),
                float(r.loss_meta[i]), r.stage,
            )
    return params, logs


def train_plain(
    config: MetaConfig,
    target_train: ExpressionDataset,
    on_step: OnStep | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Adam training on the target split alone (no sources, no inner loop)."""
    _check_inputs(config, [target_train])
    log = TrainLog()
    params = init_model(config.model, config.seed)
    params = _train_loop(config, params, target_train, "train", log, on_step)
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
    on_step: OnStep | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Pretrain on pooled sources, then fine-tune on the target split.

    Both stages run ``config.epochs`` plain Adam passes; the fine-tune stage
    starts a fresh optimizer state and uses the same target batch stream as
    ``train_plain``.
    """
    if not sources:
        raise ValueError("train_transfer requires at least one source dataset")
    _check_inputs(config, [*sources, target_train])
    log = TrainLog()
    params = init_model(config.model, config.seed)
    params = _train_loop(config, params, _pool_sources(sources), "pretrain", log, on_step)
    params = _train_loop(config, params, target_train, "finetune", log, on_step)
    return params, log
