"""The benchmark's workloads: inputs from a seed, timed commands, output checks.

Each workload drives ``metagx`` only through public functions of its
modules, looked up on the module at call time so that the tracer's wrappers
take effect. A pass runs the workload's timed commands once; its checks run
afterwards, outside the timed part. Why each workload exists is in NOTES.md
and BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import metagx.cli as cli
import metagx.data as data
import metagx.evaluate as evaluate
import metagx.models as models
import metagx.synth as synth
from metagx.models import ModelConfig
from metagx.training import MetaConfig

EFFICIENCY_TOL = 1e-9

# ``call(span_name, fn, *args)`` runs a set-up step, under a span when traced.
Call = Callable[..., object]


@dataclass
class Ops:
    """Operations attempted and failed: program calls and output checks."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, what: str, fn: Callable, *args, **kwargs):
        """Call into the program; an exception counts as one failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the benchmark must keep going and report the failure
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")
        return ok


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _f1_ok(reports) -> bool:
    return all(math.isfinite(r.f1) and 0.0 <= r.f1 <= 1.0 for r in reports)


def _warm_up(config: ModelConfig, matrix: np.ndarray, seed: int) -> None:
    """One inference pass, so lazy BLAS and allocator set-up lands in set-up."""
    models.predict(models.init_model(config, seed), config, matrix)


class Workload:
    name = ""
    architecture = ""

    def setup(self, seed: int, work: Path, call: Call) -> None:
        raise NotImplementedError

    def commands(self, ops: Ops, index: int) -> tuple[dict[str, float], object]:
        """Run the timed commands once; returns their timings in seconds by
        name and the outputs the checks need."""
        raise NotImplementedError

    def checks(self, ops: Ops, outputs: object) -> str:
        """Check one pass's outputs; returns the digest of its artifacts."""
        raise NotImplementedError


class FamilyMlp(Workload):
    name = "family-d50-mlp"
    architecture = "mlp"
    k = 10
    # Short passes, so that a run's median is over 15 or so of them.
    epochs = 2

    def setup(self, seed, work, call):
        spec = synth.SynthSpec(seed=seed)
        self.sources, self.target = call(
            "synth.generate_task_family", synth.generate_task_family, spec
        )
        model = ModelConfig("mlp", input_dim=spec.n_features, hidden_dims=(128, 64))
        self.config = MetaConfig(model=model, lam=0.5, epochs=self.epochs, batch_size=32, seed=seed)
        _warm_up(model, self.target.matrix, seed)

    def commands(self, ops, index):
        timings, cvs = {}, {}
        for trainer in ("plain", "transfer", "meta"):
            t0 = time.perf_counter()
            cvs[trainer] = ops.run(
                f"cross_validate[{trainer}]",
                evaluate.cross_validate,
                self.sources,
                self.target,
                self.config,
                trainer=trainer,
                k=self.k,
            )
            timings[f"cv_{trainer}_s"] = time.perf_counter() - t0
        timings["evaluate_s"] = sum(timings.values())
        t0 = time.perf_counter()
        points = ops.run(
            "lambda_sweep",
            evaluate.lambda_sweep,
            self.sources,
            self.target,
            self.config,
            lambdas=cli.DEFAULT_LAMBDAS,
            k=self.k,
        )
        timings["sweep_s"] = time.perf_counter() - t0
        return timings, (cvs, points)

    def checks(self, ops, outputs):
        cvs, points = outputs
        if not ops.check("every command returned", None not in cvs.values() and points):
            return ""
        plain = [repr(r) for r in cvs["plain"].per_fold]
        at_one = [p for p in points if p.lam == 1.0]
        ops.check(
            "lambda=1 sweep folds equal plain-CV folds bit for bit",
            len(at_one) == 1 and [repr(r) for r in at_one[0].cv.per_fold] == plain,
        )
        reports = [r for cv in cvs.values() for r in cv.per_fold]
        reports += [r for p in points for r in p.cv.per_fold]
        ops.check("every F1 is finite and in [0, 1]", _f1_ok(reports))
        return _digest(
            [(t, cv.per_fold) for t, cv in cvs.items()],
            [(p.lam, p.f1_mean, p.f1_std, p.cv.per_fold) for p in points],
        )


class PanelCnn(Workload):
    name = "panel-d695-cnn"
    architecture = "cnn"
    k = 2
    # One meta step per fold, so that a run's median is over five passes.
    epochs = 1

    def setup(self, seed, work, call):
        spec = synth.SynthSpec(n_features=695, seed=seed)
        self.sources, self.target = call(
            "synth.generate_task_family", synth.generate_task_family, spec
        )
        model = ModelConfig("cnn", input_dim=spec.n_features, channels=32)
        self.config = MetaConfig(
            model=model, lam=0.5, epochs=self.epochs, batch_size=32, seed=seed
        )
        _warm_up(model, self.target.matrix[:32], seed)

    def commands(self, ops, index):
        t0 = time.perf_counter()
        cv = ops.run(
            "cross_validate[meta]",
            evaluate.cross_validate,
            self.sources,
            self.target,
            self.config,
            trainer="meta",
            k=self.k,
        )
        return {"evaluate_s": time.perf_counter() - t0}, cv

    def checks(self, ops, cv):
        if not ops.check("cross_validate returned", cv is not None):
            return ""
        ops.check("every F1 is finite and in [0, 1]", _f1_ok(cv.per_fold))
        return _digest(cv.per_fold)


class PanelCli(Workload):
    name = "panel-d695-cli"
    architecture = "mlp"
    # Far below the CLI default of 2000: see NOTES.md.
    permutations = 100
    samples = 2
    # The CLI default is 40; 10 leaves four passes in a run.
    epochs = 10

    def setup(self, seed, work, call):
        spec = synth.SynthSpec(
            n_sources=3, source_samples=300, target_samples=100, n_features=695, seed=seed
        )
        sources, target = call("synth.generate_task_family", synth.generate_task_family, spec)
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        for ds in [*sources, target]:
            call("data.write_expression_tsv", data.write_expression_tsv, ds,
                 self.inputs / f"{ds.name}.tsv")
        self.target_file = self.inputs / f"{target.name}.tsv"
        self.config_file = self.inputs / "run.ini"
        self.config_file.write_text(
            "[data]\n"
            f"sources = {', '.join(f'{s.name}.tsv' for s in sources)}\n"
            f"target = {self.target_file.name}\n"
            "[model]\narchitecture = mlp\nhidden_dims = 128, 64\n"
            f"[training]\nlambda = 0.5\nepochs = {self.epochs}\nbatch_size = 32\n"
            f"[run]\ntrainer = meta\nseed = {seed}\n",
            encoding="utf-8",
        )
        self.work = work
        model = ModelConfig("mlp", input_dim=spec.n_features, hidden_dims=(128, 64))
        _warm_up(model, data.load_expression_tsv(self.target_file).matrix, seed)

    def _main(self, ops: Ops, argv: list[str]) -> tuple[float, int | None]:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = ops.run(argv[0], cli.main, argv)
        return time.perf_counter() - t0, code

    def commands(self, ops, index):
        out = self.work / f"pass-{index}"
        config = ["--config", str(self.config_file)]
        timings, codes = {}, {}
        for cmd, extra in (
            ("preprocess", []),
            ("train", []),
            ("explain", [
                "--checkpoint", str(out / "train" / "checkpoint.json"),
                "--samples", str(self.samples),
                "--permutations", str(self.permutations),
            ]),
        ):
            seconds, codes[cmd] = self._main(ops, [cmd, *config, "--out", str(out / cmd), *extra])
            timings[f"{cmd}_s"] = seconds
        return timings, (out, codes)

    def checks(self, ops, outputs):
        out, codes = outputs
        for cmd, code in codes.items():
            ops.check(f"metagx {cmd} exits with 0 (got {code})", code == 0)
        if any(code != 0 for code in codes.values()):
            return ""
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = _digest([(str(p.relative_to(out)), p.read_bytes()) for p in files])
        ops.run("Shapley efficiency", self._check_efficiency, ops, out)
        shutil.rmtree(out)
        return digest

    def _check_efficiency(self, ops: Ops, out: Path) -> None:
        """Sum of Shapley values = prediction - base value, per explained row."""
        params, config = models.load_checkpoint(out / "train" / "checkpoint.json")
        side = json.loads((out / "train" / "preprocess.json").read_text(encoding="utf-8"))
        mean = np.asarray(side["normalization"]["mean"])
        std = np.asarray(side["normalization"]["std"])
        target = data.project(data.load_expression_tsv(self.target_file), side["genes"])
        matrix = (target.matrix - mean) / std
        base = models.predict(params, config, matrix.mean(axis=0)[None, :])[0]
        for i in range(self.samples):
            rows = (out / "explain" / f"attribution_s{i:04d}.csv").read_text().split("\n")[1:-1]
            phi = np.array([float(r.split(",")[1]) for r in rows])
            sample = np.array([float(r.split(",")[2]) for r in rows])
            pred = models.predict(params, config, sample[None, :])[0]
            ops.check(f"explained row {i} is the normalized target row",
                      np.array_equal(sample, matrix[i]))
            gap = abs(float(phi.sum()) - (pred - base))
            ops.check(f"Shapley efficiency for row {i} (gap {gap:.3g})", gap <= EFFICIENCY_TOL)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FamilyMlp, PanelCnn, PanelCli)
}
