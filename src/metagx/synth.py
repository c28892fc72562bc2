"""Generator for families of related synthetic classification tasks.

Every dataset in a family shares one labeling concept: a fixed linear score
plus a bounded tanh bend, defined on the first ``signal_dims`` latent
dimensions. Each dataset then observes those signal dimensions through its
own random rotation and shift whose magnitude scales with ``perturbation``,
so the family interpolates between identical tasks (perturbation 0) and
nearly unrelated ones.

Labels are assigned by thresholding the concept score at the empirical
quantile matching ``class_balance`` (so class counts are exact before noise)
and then flipping each label independently with probability ``label_noise``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExpressionDataset

Array = np.ndarray

_NONLINEAR_SCALE = 0.5
_SHIFT_SCALE = 0.2


@dataclass(frozen=True)
class SynthSpec:
    """Shape, relatedness, and noise knobs for one task family."""

    n_sources: int = 3
    source_samples: int = 200
    target_samples: int = 60
    n_features: int = 50
    signal_dims: int = 10
    perturbation: float = 0.3
    label_noise: float = 0.05
    class_balance: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {self.n_sources}")
        for name in ("source_samples", "target_samples"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if not 1 <= self.signal_dims <= self.n_features:
            raise ValueError(
                f"signal_dims must be in [1, n_features], got {self.signal_dims}/{self.n_features}"
            )
        if not 0.0 <= self.perturbation < np.inf:
            raise ValueError(f"perturbation must be finite and >= 0, got {self.perturbation}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError(f"label_noise must be in [0, 0.5), got {self.label_noise}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValueError(f"class_balance must be in (0, 1), got {self.class_balance}")
        n_pos = round(self.class_balance * self.target_samples)
        if n_pos < 1 or n_pos > self.target_samples - 1:
            raise ValueError(
                f"class_balance {self.class_balance} leaves the target_samples "
                f"{self.target_samples} target without one of the classes"
            )


def _unit(vec: Array) -> Array:
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 1e-12 else np.zeros_like(vec)


def _rotation(rng: np.random.Generator, dims: int, perturbation: float) -> Array:
    """Product of Givens rotations over disjoint random planes; the angles
    are uniform in +-perturbation radians."""
    rot = np.eye(dims)
    if dims < 2:
        return rot
    perm = rng.permutation(dims)
    n_planes = dims // 2
    angles = perturbation * rng.uniform(-1.0, 1.0, size=n_planes)
    for plane in range(n_planes):
        a, b = perm[2 * plane], perm[2 * plane + 1]
        c, s = np.cos(angles[plane]), np.sin(angles[plane])
        rows = rot[[a, b], :].copy()
        rot[a, :] = c * rows[0] - s * rows[1]
        rot[b, :] = s * rows[0] + c * rows[1]
    return rot


def _make_dataset(
    name: str,
    rng: np.random.Generator,
    spec: SynthSpec,
    n: int,
    u_linear: Array,
    u_bend: Array,
) -> ExpressionDataset:
    s = spec.signal_dims
    rotation = _rotation(rng, s, spec.perturbation)
    shift = _SHIFT_SCALE * spec.perturbation * rng.standard_normal(s)
    latent = rng.standard_normal((n, spec.n_features))
    scores = latent[:, :s] @ u_linear + _NONLINEAR_SCALE * np.tanh(latent[:, :s] @ u_bend)

    labels = np.zeros(n)
    n_pos = round(spec.class_balance * n)
    order = np.argsort(-scores, kind="stable")
    labels[order[:n_pos]] = 1.0
    flips = rng.random(n) < spec.label_noise
    labels = np.where(flips, 1.0 - labels, labels)

    observed = latent.copy()
    observed[:, :s] = latent[:, :s] @ rotation.T + shift
    gene_ids = tuple(f"G{i:04d}" for i in range(spec.n_features))
    return ExpressionDataset(name, gene_ids, observed, labels)


def generate_task_family(spec: SynthSpec) -> tuple[list[ExpressionDataset], ExpressionDataset]:
    """Deterministically generate ``n_sources`` source cohorts plus a target."""
    rng = np.random.default_rng(spec.seed)
    u_linear = _unit(rng.standard_normal(spec.signal_dims))
    raw = rng.standard_normal(spec.signal_dims)
    u_bend = _unit(raw - (raw @ u_linear) * u_linear)
    sources = [
        _make_dataset(f"synth_source_{i}", rng, spec, spec.source_samples, u_linear, u_bend)
        for i in range(spec.n_sources)
    ]
    target = _make_dataset("synth_target", rng, spec, spec.target_samples, u_linear, u_bend)
    return sources, target
