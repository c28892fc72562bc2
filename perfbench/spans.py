"""In-memory span recorder around the public functions of ``metagx``.

Spans are recorded from the benchmark's side only: a public function is
replaced, at the module attribute its callers look up, by a wrapper that
appends one span (name, start, end, parent, run id, one numeric attribute).
Nothing inside ``src/`` changes. Spans live in flat arrays while the run goes
and are written out as CSV when it ends.

Which binding is wrapped matters: ``metagx.models`` calls autodiff ops as
``ad.<op>`` and autodiff's composite ops call the others through module
globals, so ops are wrapped on ``metagx.autodiff`` itself; ``training``,
``evaluate``, ``explain`` and ``cli`` bind ``forward``, ``predict``,
``sample_batch``, the trainers and the file readers by name, so those are
wrapped on the importing module.
"""

from __future__ import annotations

import math
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

import metagx.autodiff as ad
import metagx.cli as cli
import metagx.evaluate as evaluate
import metagx.explain as explain
import metagx.models as models
import metagx.training as training

OP_NAMES = tuple(n for n in ad.__all__ if n not in ("Tensor", "Tape"))
TRAINERS = ("train_meta", "train_plain", "train_transfer")
CLI_COMMANDS = ("preprocess", "train", "evaluate", "sweep", "explain", "synth")

NO_PARENT = -1


def _steps(epochs: int, n: int, batch_size: int) -> int:
    return epochs * math.ceil(n / batch_size)


def trainer_steps(name: str, args: tuple, kwargs: dict) -> int:
    """Exact outer-step count of one trainer call, from its arguments."""
    config = args[0]
    if "target_train" in kwargs:
        target = kwargs["target_train"]
    else:
        target = args[1 if name == "train_plain" else 2]
    n, bs = target.n_samples, config.batch_size
    if name != "train_transfer":
        return _steps(config.epochs, n, bs)
    pre = kwargs.get("pretrain_epochs")
    fin = kwargs.get("finetune_epochs")
    pre = config.epochs if pre is None else pre
    fin = config.epochs if fin is None else fin
    pooled = sum(src.n_samples for src in args[1])
    return _steps(pre, pooled, bs) + _steps(fin, n, bs)


class Patches:
    """Replaces module attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, wrapper: Callable) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


class TrainClock:
    """Untraced timing of trainer calls: exact steps and wall seconds.

    Costs two clock reads per trainer call (one per fold), so it stays on in
    the end-to-end runs where ``train_steps_per_s`` is measured.
    """

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self._patches = Patches()

    def install(self) -> None:
        for module in (evaluate, cli):
            for name in TRAINERS:
                self._patches.set(module, name, self._wrap(name, getattr(module, name)))

    def restore(self) -> None:
        self._patches.restore()

    def take(self) -> tuple[int, float]:
        out = (self.steps, self.seconds)
        self.steps, self.seconds = 0, 0.0
        return out

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            steps = trainer_steps(name, args, kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.steps += steps
            return out

        return wrapper


# Span attributes, computed after the wrapped call returns.


def _data_shape(x) -> tuple[int, ...]:
    return np.shape(x.data if isinstance(x, ad.Tensor) else x)


def _matmul_flops(args, kwargs) -> float:
    a, b = _data_shape(args[0]), _data_shape(args[1])
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return 2.0 * math.prod(batch) * a[-2] * a[-1] * b[-1]


def _conv_flops(args, kwargs) -> float:
    x, w = _data_shape(args[0]), _data_shape(args[1])
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
    batch = x[0] if len(x) == 3 else 1
    out_len = (x[-1] + 2 * padding - w[2]) // stride + 1
    return 2.0 * batch * w[0] * w[1] * w[2] * out_len


def _predict_rows(args, kwargs) -> float:
    return float(np.shape(args[2])[0])


def _file_bytes(args, kwargs) -> float:
    return float(Path(args[1] if len(args) > 1 else args[0]).stat().st_size)


def _meta_lam(args, kwargs) -> float:
    return float(args[0].lam)


def _shapley_block_bytes(args, kwargs) -> float:
    """Bytes of the float64 input block one permutation block builds
    (``explain._PERM_BLOCK`` permutations at most, d + 1 rows each)."""
    d = np.shape(args[3])[0]
    perms = min(kwargs["n_permutations"], explain._PERM_BLOCK)
    return 8.0 * perms * (d + 1) * d


def _cli_command(args, kwargs) -> float:
    argv = args[0] if args else kwargs.get("argv")
    return float(CLI_COMMANDS.index(argv[0]))


class Tracer:
    """Span recorder. ``run`` tags every new span with the pass it belongs to."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.run_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")
        self.run = 0
        self._stack = [NO_PARENT]
        self._patches = Patches()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, attr: Callable | None = None) -> Callable:
        nid = self.name_id(name)
        parent, names, runs = self.parent, self.name, self.run_id
        starts, ends, attrs, stack = self.start, self.end, self.attr, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parent.append(stack[-1])
            names.append(nid)
            runs.append(self.run)
            attrs.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if attr is not None:
                attrs[sid] = attr(args, kwargs)
            return out

        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span recorded by the benchmark itself."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every traced binding; ``restore`` undoes it."""
        p = self._patches
        costs = {"matmul": _matmul_flops, "conv1d": _conv_flops}
        for op in OP_NAMES:
            p.set(ad, op, self.wrap(getattr(ad, op), f"autodiff.{op}", costs.get(op)))
        for module in (training, models):
            p.set(module, "forward", self.wrap(module.forward, "models.forward"))
        for module in (evaluate, explain):
            p.set(module, "predict", self.wrap(module.predict, "models.predict", _predict_rows))
        for name in ("save_checkpoint", "load_checkpoint"):
            p.set(cli, name, self.wrap(getattr(cli, name), "models.checkpoint"))
        for module in (evaluate, cli):
            for name in TRAINERS:
                attr = _meta_lam if name == "train_meta" else None
                p.set(module, name, self.wrap(getattr(module, name), f"training.{name}", attr))
            for name in ("fit_normalization", "apply_normalization"):
                p.set(module, name, self.wrap(getattr(module, name), "data.normalization"))
        for name in ("inner_adapt", "outer_step", "adam_step"):
            p.set(training, name, self.wrap(getattr(training, name), f"training.{name}"))
        p.set(training, "sample_batch", self.wrap(training.sample_batch, "data.sample_batch"))
        for name in ("cross_validate", "lambda_sweep", "classification_metrics"):
            p.set(evaluate, name, self.wrap(getattr(evaluate, name), f"evaluate.{name}"))
        p.set(cli, "load_expression_tsv",
              self.wrap(cli.load_expression_tsv, "data.load_expression_tsv", _file_bytes))
        p.set(cli, "write_expression_tsv",
              self.wrap(cli.write_expression_tsv, "data.write_expression_tsv", _file_bytes))
        p.set(cli, "shapley_sampled",
              self.wrap(cli.shapley_sampled, "explain.shapley_sampled", _shapley_block_bytes))
        p.set(cli, "main", self.wrap(cli.main, "cli.main", _cli_command))

    def restore(self) -> None:
        self._patches.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "attr": np.frombuffer(self.attr, dtype=np.float64).copy(),
        }

    def write_csv(self, path: Path) -> None:
        """One row per span: id, parent, run, name, start_s, end_s, attr.

        Times are seconds from the first span's start.
        """
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write("id,parent,run,name,start_s,end_s,attr\n")
            for i in range(a["start"].size):
                f.write(
                    f"{i},{a['parent'][i]},{a['run'][i]},{self.names[a['name'][i]]},"
                    f"{a['start'][i] - t0:.9f},{a['end'][i] - t0:.9f},{a['attr'][i]:g}\n"
                )
