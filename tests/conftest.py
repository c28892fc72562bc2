"""Shared numeric oracles and hooks for the test suite."""

from contextlib import contextmanager

import numpy as np
import pytest

from metagx import cli, evaluate, training


@pytest.fixture(scope="session", autouse=True)
def _process_settings():
    """Run every test under the process settings of ``metagx.cli.main``, so
    that no test's result depends on whether an earlier test called ``main``."""
    cli._own_process()


def numeric_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``f`` at ``x``.

    ``f`` must treat ``x`` as read-only input and return a float; the array is
    perturbed one element at a time and restored afterwards.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * step)
    return grad


def max_rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1e-6) -> float:
    """Largest relative error over elements whose magnitude exceeds ``floor``.

    Tiny entries are compared in absolute terms instead, scaled by the floor,
    so that near-zero finite-difference noise does not dominate.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise AssertionError(f"shape mismatch: {got.shape} vs {want.shape}")
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    return float(np.max(np.abs(got - want) / denom)) if got.size else 0.0


def count_trainer_calls(monkeypatch) -> dict[str, int]:
    """Wrap the trainers bound on ``metagx.evaluate``; returns the live call counts."""
    calls: dict[str, int] = {}
    for name in ("train_plain", "train_transfer", "train_meta"):

        def counted(*args, _name=name, _fn=getattr(evaluate, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(evaluate, name, counted)
    return calls


@contextmanager
def adam_step_trail():
    """Within the block, each outer step appends its new parameters to the
    yielded list, as ``metagx.training.adam_step`` returns them."""
    trail = []
    adam_step = training.adam_step

    def recording(*args):
        trail.append(adam_step(*args))
        return trail[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "adam_step", recording)
        yield trail
