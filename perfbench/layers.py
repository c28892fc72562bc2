"""Per-layer metrics from the spans of one traced run.

Every time and count is per pass (summed over the traced passes, divided by
their number), except ``synth.generate_task_family.s``, which is the
set-up's. Self time is a span's duration minus the time its direct children
cover. A metric a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import CLI_COMMANDS, NO_PARENT, OP_NAMES, TRAINERS, Tracer

# Ops reported on their own; every other autodiff op is summed into "other".
NAMED_OPS = ("matmul", "conv1d", "max_pool1d", "softmax", "bce_loss", "backward")

MB = 1e6

# Unit of every metric a traced run measures: the spans' (below), the kernel
# micro-timings and op-count probes (kernels.py) and the tracing overhead.
# BENCHMARK.json declares the ones every workload exercises; the others read
# 0 on a workload that does not run their layer and are printed only in the
# traced run's ``layers`` line.
UNITS = {
    "autodiff.op_calls_per_meta_step": "count",
    **{f"autodiff.op_calls_per_meta_step.{arch}": "count" for arch in ("mlp", "cnn", "transformer")},
    **{f"autodiff.{op}.calls": "count" for op in NAMED_OPS + ("other",)},
    **{f"autodiff.{op}.self_s": "s" for op in NAMED_OPS + ("other",)},
    **{
        f"autodiff.{op}.{stat}": "ms"
        for op in ("matmul", "conv1d", "max_pool1d", "softmax", "bce_loss")
        for stat in ("fwd_ms", "bwd_ms")
    },
    **{f"autodiff.{op}.gflop_per_s": "GFLOP/s" for op in ("matmul", "conv1d")},
    **{f"autodiff.{op}.gflop_computed": "GFLOP" for op in ("matmul", "conv1d")},
    "models.forward.calls": "count",
    "models.predict.rows": "count",
    "models.predict.rows_per_s": "rows/s",
    "models.checkpoint.s": "s",
    "training.steps": "count",
    "training.step_ms.p50": "ms",
    "training.step_ms.p99": "ms",
    "training.meta_step_ms.p50": "ms",
    "training.target_forward.s": "s",
    "training.inner_adapt.calls": "count",
    "training.inner_adapt.s": "s",
    "training.inner_adapt.useful_ratio": "ratio",
    "training.adapted_eval.s": "s",
    "training.backward.s": "s",
    "training.adam_step.self_s": "s",
    "evaluate.folds": "count",
    "evaluate.fold_s.p50": "s",
    "evaluate.fold_s.p90": "s",
    "evaluate.cross_validate.s": "s",
    "evaluate.cross_validate.self_s": "s",
    "evaluate.lambda_sweep.s": "s",
    "evaluate.classification_metrics.self_s": "s",
    "data.load_expression_tsv.s": "s",
    "data.load.mb_per_s": "MB/s",
    "data.write_expression_tsv.s": "s",
    "data.write.mb_per_s": "MB/s",
    "data.sample_batch.self_s": "s",
    "data.normalization.self_s": "s",
    "explain.shapley_sampled.self_s": "s",
    "explain.rows_evaluated": "count",
    "explain.block_mb": "MB",
    "synth.generate_task_family.s": "s",
    "cli.self_s": "s",
    "cli.preprocess.s": "s",
    "cli.train.s": "s",
    "cli.explain.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _pct(values: list[float], q: int) -> float:
    """q-th percentile by statistics.quantiles; a single value is its own."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(
    tracer: Tracer, pass_runs: list[int], setup_run: int, pass_wall_s: float
) -> dict[str, float]:
    a = tracer.arrays()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    parent, name, run = a["parent"], a["name"], a["run"]
    start, end, attr = a["start"], a["end"], a["attr"]
    dur = end - start
    has_parent = parent != NO_PARENT
    child_s = np.zeros_like(dur)
    np.add.at(child_s, parent[has_parent], dur[has_parent])
    self_s = dur - child_s
    in_pass = np.isin(run, pass_runs)
    n_pass = len(pass_runs)

    def is_(span_name: str) -> np.ndarray:
        return name == ids.get(span_name, -1)

    def parent_is(span_names: tuple[str, ...]) -> np.ndarray:
        wanted = [ids[n] for n in span_names if n in ids]
        out = np.zeros(name.shape, dtype=bool)
        out[has_parent] = np.isin(name[parent[has_parent]], wanted)
        return out

    def total(values: np.ndarray, mask: np.ndarray) -> float:
        return float(values[mask & in_pass].sum()) / n_pass

    def count(mask: np.ndarray) -> float:
        return float(np.count_nonzero(mask & in_pass)) / n_pass

    m: dict[str, float] = {}

    # autodiff: calls and self time per op, plus computed forward work
    op_ids = {ids[f"autodiff.{op}"] for op in OP_NAMES if f"autodiff.{op}" in ids}
    is_op = np.isin(name, list(op_ids))
    named = np.zeros(name.shape, dtype=bool)
    for op in NAMED_OPS:
        mask = is_(f"autodiff.{op}")
        named |= mask
        m[f"autodiff.{op}.calls"] = count(mask)
        m[f"autodiff.{op}.self_s"] = total(self_s, mask)
    m["autodiff.other.calls"] = count(is_op & ~named)
    m["autodiff.other.self_s"] = total(self_s, is_op & ~named)
    for op in ("matmul", "conv1d"):
        mask = is_(f"autodiff.{op}")
        m[f"autodiff.{op}.gflop_computed"] = total(attr, mask) / 1e9

    # ops recorded under meta trainers, per meta step
    meta_ids = {ids["training.train_meta"]} if "training.train_meta" in ids else set()
    parent_l, name_l = parent.tolist(), name.tolist()
    under = [False] * len(name_l)
    for i in np.flatnonzero(in_pass).tolist():
        p = parent_l[i]
        under[i] = name_l[i] in meta_ids or (p != NO_PARENT and under[p])
    under_meta = np.array(under, dtype=bool)
    meta_steps = is_("training.outer_step") & parent_is(("training.train_meta",))
    ops_in_meta = is_op & ~is_("autodiff.backward") & under_meta
    m["autodiff.op_calls_per_meta_step"] = _ratio(count(ops_in_meta), count(meta_steps))

    # models
    predict = is_("models.predict")
    m["models.forward.calls"] = count(is_("models.forward"))
    m["models.predict.rows"] = total(attr, predict)
    m["models.predict.rows_per_s"] = _ratio(total(attr, predict), total(dur, predict))
    m["models.checkpoint.s"] = total(dur, is_("models.checkpoint"))

    # training: walk each trainer's direct children in call order
    trainer_ids = {ids[f"training.{t}"] for t in TRAINERS if f"training.{t}" in ids}
    kids: dict[int, list[int]] = {}
    for i in np.flatnonzero(in_pass & has_parent).tolist():
        if name_l[parent_l[i]] in trainer_ids:
            kids.setdefault(parent_l[i], []).append(i)
    start_l, end_l, dur_l = start.tolist(), end.tolist(), dur.tolist()
    fwd_ids = {ids.get("models.forward"), ids.get("autodiff.bce_loss")}
    step_ms: list[float] = []
    meta_step_ms: list[float] = []
    target_fwd = adapted_eval = inner_s = 0.0
    inner_calls = useful = 0
    for t, children in kids.items():
        is_meta = name_l[t] in meta_ids
        lam = float(attr[t]) if is_meta else 1.0
        step_start = None
        adapted = False
        for c in children:
            cn = names[name_l[c]]
            if name_l[c] in fwd_ids:
                step_start = start_l[c] if step_start is None else step_start
                if adapted:
                    adapted_eval += dur_l[c]
                else:
                    target_fwd += dur_l[c]
            elif cn == "training.inner_adapt":
                adapted = True
                inner_calls += 1
                inner_s += dur_l[c]
                useful += lam < 1.0
            elif cn == "training.outer_step":
                ms = (end_l[c] - (start_l[c] if step_start is None else step_start)) * 1e3
                step_ms.append(ms)
                if is_meta:
                    meta_step_ms.append(ms)
                step_start, adapted = None, False
    m["training.steps"] = len(step_ms) / n_pass
    m["training.step_ms.p50"] = _pct(step_ms, 50)
    m["training.step_ms.p99"] = _pct(step_ms, 99)
    m["training.meta_step_ms.p50"] = _pct(meta_step_ms, 50)
    m["training.target_forward.s"] = target_fwd / n_pass
    m["training.inner_adapt.calls"] = inner_calls / n_pass
    m["training.inner_adapt.s"] = inner_s / n_pass
    m["training.inner_adapt.useful_ratio"] = _ratio(useful, inner_calls)
    m["training.adapted_eval.s"] = adapted_eval / n_pass
    outer_bw = is_("autodiff.backward") & parent_is(("training.outer_step",))
    m["training.backward.s"] = total(dur, outer_bw)
    m["training.adam_step.self_s"] = total(self_s, is_("training.adam_step"))

    # evaluate: a fold runs from its trainer's start to its metrics' end
    cv_id = ids.get("evaluate.cross_validate", -1)
    fold_s: list[float] = []
    for i in np.flatnonzero(in_pass & (name == cv_id)):
        fold_start = None
        for c in np.flatnonzero(parent == i):
            if name[c] in trainer_ids:
                fold_start = start[c]
            elif names[name[c]] == "evaluate.classification_metrics" and fold_start is not None:
                fold_s.append(end[c] - fold_start)
                fold_start = None
    cv = is_("evaluate.cross_validate")
    m["evaluate.folds"] = len(fold_s) / n_pass
    m["evaluate.fold_s.p50"] = _pct(fold_s, 50)
    m["evaluate.fold_s.p90"] = _pct(fold_s, 90)
    m["evaluate.cross_validate.s"] = total(dur, cv & ~parent_is(("evaluate.lambda_sweep",)))
    m["evaluate.cross_validate.self_s"] = total(self_s, cv)
    m["evaluate.lambda_sweep.s"] = total(dur, is_("evaluate.lambda_sweep"))
    m["evaluate.classification_metrics.self_s"] = total(
        self_s, is_("evaluate.classification_metrics")
    )

    # data
    load, write = is_("data.load_expression_tsv"), is_("data.write_expression_tsv")
    m["data.load_expression_tsv.s"] = total(dur, load)
    m["data.load.mb_per_s"] = _ratio(total(attr, load) / MB, total(dur, load))
    m["data.write_expression_tsv.s"] = total(dur, write)
    m["data.write.mb_per_s"] = _ratio(total(attr, write) / MB, total(dur, write))
    m["data.sample_batch.self_s"] = total(self_s, is_("data.sample_batch"))
    m["data.normalization.self_s"] = total(self_s, is_("data.normalization"))

    # explain
    shap = is_("explain.shapley_sampled")
    m["explain.shapley_sampled.self_s"] = total(self_s, shap)
    m["explain.rows_evaluated"] = total(attr, predict & parent_is(("explain.shapley_sampled",)))
    blocks = attr[shap & in_pass]
    m["explain.block_mb"] = float(blocks.max()) / MB if blocks.size else 0.0

    # synth (set-up) and cli
    in_setup = run == setup_run
    gen = is_("synth.generate_task_family") & in_setup
    m["synth.generate_task_family.s"] = float(dur[gen].sum())
    main = is_("cli.main")
    m["cli.self_s"] = total(self_s, main)
    for cmd in ("preprocess", "train", "explain"):
        m[f"cli.{cmd}.s"] = total(dur, main & (attr == CLI_COMMANDS.index(cmd)))

    # the trace itself
    m["trace.coverage"] = _ratio(float(self_s[in_pass].sum()), pass_wall_s)
    m["trace.spans"] = float(np.count_nonzero(in_pass)) / n_pass
    return m
