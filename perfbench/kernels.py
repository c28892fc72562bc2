"""Kernel micro-timings and exact op counts, for the traced run.

Micro-timings call the autodiff ops directly at the shapes the workloads
use, with nothing wrapped. ``fwd_ms`` is one recorded op call; ``bwd_ms`` is
``backward`` through ``reduce_sum(op(...) * g)`` for a fixed random ``g``, so
it includes one elementwise product and one sum on top of the op's VJP.
Each is the median of repeated calls.

Op counts run one meta step per architecture and count every call of a
public autodiff op (nested calls included, ``backward`` excluded). The count
does not depend on the input width, so the probes run at d=50.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

import metagx.autodiff as ad
import metagx.synth as synth
import metagx.training as training
from metagx.models import ModelConfig

from spans import OP_NAMES, Patches

ARCHITECTURES = ("mlp", "cnn", "transformer")

_MIN_REPS = 3
_MAX_REPS = 1000
_MIN_TIME_S = 0.3


def _median_ms(fn: Callable[[], float]) -> float:
    """Median of the seconds ``fn`` reports, over repeated calls."""
    times: list[float] = []
    while len(times) < _MAX_REPS and (len(times) < _MIN_REPS or sum(times) < _MIN_TIME_S):
        times.append(fn())
    return statistics.median(times) * 1e3


def _fwd_bwd(op: Callable, inputs: list[np.ndarray], rng: np.random.Generator) -> tuple[float, float]:
    probe = ad.Tape()
    g = rng.standard_normal(op(*[probe.watch(x) for x in inputs]).data.shape)

    def forward() -> float:
        tape = ad.Tape()
        leaves = [tape.watch(x) for x in inputs]
        t0 = time.perf_counter()
        op(*leaves)
        return time.perf_counter() - t0

    def backward() -> float:
        tape = ad.Tape()
        loss = ad.reduce_sum(ad.mul(op(*[tape.watch(x) for x in inputs]), g))
        t0 = time.perf_counter()
        ad.backward(loss)
        return time.perf_counter() - t0

    return _median_ms(forward), _median_ms(backward)


def _kernels(rng: np.random.Generator) -> dict[str, tuple[Callable, list[np.ndarray], float]]:
    """name -> (op, inputs, computed forward flops).

    The shapes are the workloads': the panel MLP's first layer (batch 32,
    695 -> 128), the panel CNN's second conv (b32/c32/L347, width 3, padding
    1) and first pool (b32/c32/L695), the attention softmax of a 16-token
    transformer, and the loss over one batch of 32.
    """
    normal = rng.standard_normal
    labels = (rng.random(32) < 0.5).astype(np.float64)
    return {
        "matmul": (ad.matmul, [normal((32, 695)), normal((695, 128))], 2.0 * 32 * 695 * 128),
        "conv1d": (
            lambda x, w: ad.conv1d(x, w, stride=1, padding=1),
            [normal((32, 32, 347)), normal((32, 32, 3))],
            2.0 * 32 * 32 * 32 * 3 * 347,
        ),
        "max_pool1d": (lambda x: ad.max_pool1d(x, 2, 2), [normal((32, 32, 695))], 0.0),
        "softmax": (lambda x: ad.softmax(x, axis=-1), [normal((32, 16, 16))], 0.0),
        "bce_loss": (lambda p: ad.bce_loss(p, labels), [rng.uniform(0.05, 0.95, 32)], 0.0),
    }


def kernel_metrics(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    m: dict[str, float] = {}
    for name, (op, inputs, flops) in _kernels(rng).items():
        fwd, bwd = _fwd_bwd(op, inputs, rng)
        m[f"autodiff.{name}.fwd_ms"] = fwd
        m[f"autodiff.{name}.bwd_ms"] = bwd
        if flops:
            m[f"autodiff.{name}.gflop_per_s"] = flops / (fwd * 1e-3) / 1e9
    return m


def op_calls_per_meta_step(seed: int) -> dict[str, float]:
    """Op calls of one meta step (3 sources, batch 32) per architecture."""
    sources, target = synth.generate_task_family(
        synth.SynthSpec(target_samples=32, n_features=50, seed=seed)
    )
    calls = [0]
    patches = Patches()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    for op in OP_NAMES:
        if op != "backward":
            patches.set(ad, op, counted(getattr(ad, op)))
    m: dict[str, float] = {}
    try:
        for arch in ARCHITECTURES:
            config = training.MetaConfig(
                model=ModelConfig(architecture=arch, input_dim=50), epochs=1, seed=seed
            )
            calls[0] = 0
            training.train_meta(config, sources, target)
            m[f"autodiff.op_calls_per_meta_step.{arch}"] = float(calls[0])
    finally:
        patches.restore()
    return m
