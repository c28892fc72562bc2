"""Acceptance suite: one test per shipped guarantee.

Every test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s``) and asserts the same condition, so the suite is green exactly
when every line reads PASS. Tolerances are stated inline next to each check.

The benefit checks (meta vs plain, meta vs transfer, mixing-weight shape) run
a shared 10-seed cross-validated experiment on the synthetic task family and
take a few minutes; everything else is fast.
"""

import math

import numpy as np
import pytest

from conftest import adam_step_trail, max_rel_err, numeric_grad
from metagx import autodiff as ad
from metagx.autodiff import Tensor
from metagx.cli import main
from metagx.data import (
    ExpressionDataset,
    apply_normalization,
    fit_normalization,
    project,
    select_common_genes,
    filter_by_interactions,
)
from metagx.evaluate import best_lambda, classification_metrics, cross_validate, lambda_sweep
from metagx.explain import shapley_exact, shapley_sampled
from metagx.models import (
    ARCHITECTURES,
    ModelConfig,
    ModelParams,
    init_model,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from metagx.synth import SynthSpec, generate_task_family
from metagx.training import MetaConfig, train_meta, train_plain

# Synthetic-family operating point for the benefit checks: three related
# source cohorts and a small target cohort. Sources are kept modest (120
# samples) and clearly shifted (rotation/shift scale 0.9) so that pooling
# them is a genuinely worse use of the data than adapting to them.
BENEFIT_FAMILY = dict(
    n_sources=3,
    source_samples=120,
    target_samples=60,
    n_features=50,
    signal_dims=10,
    perturbation=0.9,
    label_noise=0.05,
    class_balance=0.5,
)
BENEFIT_SEEDS = 10
LAMBDA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# gradient correctness: every architecture against central finite differences


def _tiny_config(arch: str, rng: np.random.Generator) -> ModelConfig:
    input_dim = int(rng.integers(8, 13))
    if arch == "mlp":
        return ModelConfig("mlp", input_dim=input_dim, hidden_dims=(5, 3))
    if arch == "cnn":
        return ModelConfig(
            "cnn",
            input_dim=input_dim,
            channels=2,
            kernel_size=3,
            conv_stride=1,
            conv_padding=1,
            pool_size=2,
            pool_stride=2,
            conv_layers=2,
        )
    return ModelConfig("transformer", input_dim=input_dim, embed_dim=4, tokens=3)


def _flatten(params: ModelParams) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in params.items()])


def _unflatten(flat: np.ndarray, ref: ModelParams) -> ModelParams:
    arrays, i = {}, 0
    for name, arr in ref.items():
        arrays[name] = flat[i : i + arr.size].reshape(arr.shape).copy()
        i += arr.size
    return arrays


def test_gradients_match_finite_differences():
    """Max relative error <= 1e-4 over 100 random tiny models, all archs."""
    rng = np.random.default_rng(20240311)
    worst = 0.0
    cases_per_arch = (34, 33, 33)
    for arch, n_cases in zip(ARCHITECTURES, cases_per_arch):
        for _ in range(n_cases):
            config = _tiny_config(arch, rng)
            params = init_model(config, seed=int(rng.integers(1 << 31)))
            batch = rng.standard_normal((3, config.input_dim))
            labels = rng.integers(0, 2, size=3).astype(np.float64)

            tape = ad.Tape()
            leaves = {n: tape.watch(a) for n, a in params.items()}
            loss = ad.bce_loss(forward(leaves, config, Tensor(batch)), Tensor(labels))
            grads = ad.backward(loss)
            got = np.concatenate(
                [grads[leaves[name].node].ravel() for name in params]
            )

            def loss_at(flat: np.ndarray) -> float:
                trial = _unflatten(flat, params)
                out = forward(trial, config, Tensor(batch))
                return ad.bce_loss(out, Tensor(labels)).item()

            want = numeric_grad(loss_at, _flatten(params))
            worst = max(worst, max_rel_err(got, want))
    _report(
        "gradient check",
        worst <= 1e-4,
        f"100 models (mlp/cnn/transformer), max rel err {worst:.3e} (tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# mixing-weight endpoint: lam=1 must reproduce plain training exactly


def test_lambda_one_equals_plain_training():
    """Per-step parameter trajectories agree within 1e-9 (5 seeds x 3 archs)."""
    worst = 0.0
    for arch in ARCHITECTURES:
        for seed in range(5):
            spec = SynthSpec(seed=seed)
            sources, target = generate_task_family(spec)
            model = ModelConfig(arch, input_dim=spec.n_features)
            config = MetaConfig(model=model, lam=1.0, epochs=6, seed=seed)

            with adam_step_trail() as trail_meta:
                _, log_meta = train_meta(config, sources, target)
            with adam_step_trail() as trail_plain:
                _, log_plain = train_plain(config, target)

            assert len(trail_meta) == len(log_meta) == len(trail_plain) == len(log_plain) > 0
            for pm, pp in zip(trail_meta, trail_plain):
                for name in pm:
                    worst = max(worst, float(np.max(np.abs(pm[name] - pp[name]))))
    _report(
        "mixing-weight endpoint",
        worst <= 1e-9,
        f"lam=1 vs plain, 5 seeds x 3 archs, max |dtheta| {worst:.3e} (tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# inner step: one SGD step from zero velocity, so momentum never acts


def test_inner_step_ignores_momentum(tmp_path):
    """`metagx train` at momentum 0.0 and 0.9 writes byte-identical artifacts."""
    family = tmp_path / "family"
    synth_args = ["synth", "--out", str(family), "--seed", "4", "--sources", "2",
                  "--source-samples", "40", "--target-samples", "30", "--features", "12"]
    assert main(synth_args) == 0
    differing = []
    for arch in ARCHITECTURES:
        artifacts = []
        for momentum in (0.0, 0.9):
            config_file = tmp_path / f"{arch}-{momentum}.ini"
            config_file.write_text(
                "[data]\n"
                f"sources = {family / 'synth_source_0.tsv'}, {family / 'synth_source_1.tsv'}\n"
                f"target = {family / 'synth_target.tsv'}\n"
                f"[model]\narchitecture = {arch}\nhidden_dims = 8, 4\nchannels = 4\ntokens = 4\n"
                f"[training]\nmomentum = {momentum}\nalpha = 0.01\nepochs = 2\nbatch_size = 16\n"
                "[run]\ntrainer = meta\nseed = 5\n",
                encoding="utf-8",
            )
            out = tmp_path / f"{arch}-{momentum}"
            assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
            artifacts.append([(out / n).read_bytes() for n in ("checkpoint.json", "trainlog.csv")])
        if artifacts[0] != artifacts[1]:
            differing.append(arch)
    _report(
        "inner step ignores momentum",
        not differing,
        f"checkpoint.json and trainlog.csv at momentum 0.0 vs 0.9, "
        f"{len(ARCHITECTURES)} archs, differing: {differing or 'none'}",
    )


# ---------------------------------------------------------------------------
# metrics against brute-force oracles


def _counting_oracle(scores: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    pred = [1 if s >= 0.5 else 0 for s in scores]
    tp = sum(1 for p, y in zip(pred, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(pred, labels) if p == 1 and y == 0)
    tn = sum(1 for p, y in zip(pred, labels) if p == 0 and y == 0)
    fn = sum(1 for p, y in zip(pred, labels) if p == 0 and y == 1)

    def safe(num, den):
        return num / den if den else 0.0

    prec_pos, rec_pos = safe(tp, tp + fp), safe(tp, tp + fn)
    prec_neg, rec_neg = safe(tn, tn + fn), safe(tn, tn + fp)
    f1_pos = safe(2 * prec_pos * rec_pos, prec_pos + rec_pos)
    f1_neg = safe(2 * prec_neg * rec_neg, prec_neg + rec_neg)
    return {
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
        "accuracy": (tp + tn) / len(labels),
        "precision": (prec_pos + prec_neg) / 2,
        "recall": (rec_pos + rec_neg) / 2,
        "f1": (f1_pos + f1_neg) / 2,
    }


def _ap_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision by exhaustive sweep over distinct thresholds."""
    total_pos = int(labels.sum())
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap, prev_recall = 0.0, 0.0
    for thr in thresholds:
        mask = scores >= thr
        tp = int(labels[mask].sum())
        precision = tp / int(mask.sum())
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_metrics_match_counting_oracle():
    """Counting metrics exact; ranking metric within 1e-9; 500 random sets."""
    rng = np.random.default_rng(77)
    worst_count, worst_ap = 0.0, 0.0
    for case in range(500):
        n = int(rng.integers(1, 201))
        scores = rng.random(n)
        if case % 2:  # force heavy score ties half the time
            scores = np.round(scores, 1)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        report = classification_metrics(scores, labels)
        want = _counting_oracle(scores, labels)
        assert (report.tp, report.fp, report.tn, report.fn) == (
            want["tp"],
            want["fp"],
            want["tn"],
            want["fn"],
        )
        for key in ("accuracy", "precision", "recall", "f1"):
            worst_count = max(worst_count, abs(getattr(report, key) - want[key]))
        if labels.sum() == 0:
            assert math.isnan(report.pr_auc)
        else:
            worst_ap = max(worst_ap, abs(report.pr_auc - _ap_oracle(scores, labels)))
    _report(
        "metrics oracle",
        worst_count == 0.0 and worst_ap <= 1e-9,
        f"500 sets: counting diff {worst_count:.1e} (exact), "
        f"ranking diff {worst_ap:.3e} (tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# attribution validity: axioms on exact values, sampling close to exact


def test_attributions_satisfy_axioms_and_sampling_converges():
    """Efficiency/symmetry/null within 1e-9; sampling within 0.02 of exact."""
    d = 8
    rng = np.random.default_rng(5)
    background = rng.standard_normal((40, d))
    background[:, 3] = background[:, 2]  # identical columns for the symmetry check
    sample = rng.standard_normal(d)
    sample[3] = sample[2]

    w = rng.standard_normal(d) * 0.9
    w[5] = 0.0  # feature 5 never influences the output
    w[3] = w[2]

    def model_fn(batch: np.ndarray) -> np.ndarray:
        z = batch @ w + 0.4 * batch[:, 0] * batch[:, 1]
        return 1.0 / (1.0 + np.exp(-z))

    exact = shapley_exact(model_fn, None, background, sample)
    eff = abs(exact.values.sum() - (exact.prediction - exact.base_value))
    sym = abs(exact.values[2] - exact.values[3])
    null = abs(exact.values[5])

    config = ModelConfig("mlp", input_dim=d, hidden_dims=(6,))
    params = init_model(config, seed=9)
    exact_model = shapley_exact(params, config, background, sample)
    eff_model = abs(exact_model.values.sum() - (exact_model.prediction - exact_model.base_value))

    worst_gap = 0.0
    for seed in range(10):
        sampled = shapley_sampled(
            params, config, background, sample, n_permutations=20000, seed=seed
        )
        worst_gap = max(worst_gap, float(np.max(np.abs(sampled.values - exact_model.values))))

    ok = max(eff, sym, null, eff_model) <= 1e-9 and worst_gap <= 0.02
    _report(
        "attribution validity",
        ok,
        f"efficiency {max(eff, eff_model):.2e}, symmetry {sym:.2e}, null {null:.2e} "
        f"(tol 1e-9); sampling gap {worst_gap:.4f} over 10 seeds (tol 0.02)",
    )


# ---------------------------------------------------------------------------
# feature-selection pipeline on a crafted corpus


def test_feature_selection_pipeline():
    """Expected gene list exactly; per-feature |mean| < 1e-9, |std-1| <= 1e-9."""
    rng = np.random.default_rng(13)

    def dataset(name: str, genes: tuple[str, ...], n: int) -> ExpressionDataset:
        matrix = rng.normal(5.0, 2.0, size=(n, len(genes)))
        labels = rng.integers(0, 2, size=n)
        return ExpressionDataset(name, genes, matrix, labels)

    cohort_a = dataset("a", ("GA", "GB", "GC", "GD", "GE"), 30)
    cohort_b = dataset("b", ("GB", "GC", "GD", "GF"), 25)
    target = dataset("t", ("GB", "GC", "GD", "GE", "GG"), 20)
    shared = select_common_genes([cohort_a, cohort_b, target])
    assert shared == ("GB", "GC", "GD")

    kept = filter_by_interactions(shared, frozenset({"GB", "GC", "GX", "GY"}))
    ok_list = kept == ("GB", "GC")

    projected = project(target, kept)
    stats = fit_normalization(projected)
    normalized = apply_normalization(projected.matrix, stats)
    mean_err = float(np.max(np.abs(normalized.mean(axis=0))))
    std_err = float(np.max(np.abs(normalized.std(axis=0) - 1.0)))
    ok = ok_list and mean_err < 1e-9 and std_err <= 1e-9
    _report(
        "feature-selection pipeline",
        ok,
        f"gene list {kept}, max |mean| {mean_err:.2e} (tol 1e-9), "
        f"max |std-1| {std_err:.2e} (tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# benefit checks on the synthetic task family (shared 10-seed experiment)


@pytest.fixture(scope="module")
def benefit_rows():
    rows = []
    for seed in range(BENEFIT_SEEDS):
        spec = SynthSpec(seed=seed, **BENEFIT_FAMILY)
        sources, target = generate_task_family(spec)
        config = MetaConfig(
            model=ModelConfig("mlp", input_dim=spec.n_features), seed=seed
        )
        plain = cross_validate(sources, target, config, trainer="plain", k=10)
        transfer = cross_validate(sources, target, config, trainer="transfer", k=10)
        best = best_lambda(lambda_sweep(sources, target, config, lambdas=LAMBDA_GRID, k=10))
        rows.append(
            {
                "plain": plain.mean_f1,
                "transfer": transfer.mean_f1,
                "best_lam": best.lam,
                "best_f1": best.f1_mean,
            }
        )
    return rows


def test_meta_beats_plain_training(benefit_rows):
    """Best-lam meta F1 >= plain F1 in at least 7 of 10 seeds (10-fold CV)."""
    wins = sum(1 for r in benefit_rows if r["best_f1"] >= r["plain"])
    detail = "  ".join(f"{r['best_f1']:.3f}|{r['plain']:.3f}" for r in benefit_rows)
    _report(
        "meta vs plain",
        wins >= 7,
        f"{wins}/10 seeds with meta >= plain (need >= 7); meta|plain per seed: {detail}",
    )


def test_meta_matches_or_beats_transfer(benefit_rows):
    """Best-lam meta F1 >= pretrain+finetune F1 in at least 6 of 10 seeds."""
    wins = sum(1 for r in benefit_rows if r["best_f1"] >= r["transfer"])
    detail = "  ".join(f"{r['best_f1']:.3f}|{r['transfer']:.3f}" for r in benefit_rows)
    _report(
        "meta vs transfer",
        wins >= 6,
        f"{wins}/10 seeds with meta >= transfer (need >= 6); meta|transfer per seed: {detail}",
    )


def test_best_mixing_weight_uses_sources(benefit_rows):
    """F1-maximizing lam over the default grid is < 1 in >= 7 of 10 seeds."""
    wins = sum(1 for r in benefit_rows if r["best_lam"] < 1.0)
    lams = "  ".join(f"{r['best_lam']}" for r in benefit_rows)
    _report(
        "mixing-weight shape",
        wins >= 7,
        f"{wins}/10 seeds with best lam < 1 (need >= 7); best lam per seed: {lams}",
    )


# ---------------------------------------------------------------------------
# determinism and checkpoint round-trip


def test_determinism_and_checkpoint_round_trip(tmp_path):
    """Reruns are byte-identical; save->load is value-exact for all archs."""
    family = tmp_path / "family"
    synth_args = [
        "synth",
        "--out",
        str(family),
        "--seed",
        "2",
        "--sources",
        "2",
        "--source-samples",
        "40",
        "--target-samples",
        "30",
        "--features",
        "12",
        "--signal-dims",
        "4",
    ]
    assert main(synth_args) == 0
    config_file = tmp_path / "run.ini"
    config_file.write_text(
        "[data]\n"
        f"sources = {family / 'synth_source_0.tsv'}, {family / 'synth_source_1.tsv'}\n"
        f"target = {family / 'synth_target.tsv'}\n"
        "[model]\narchitecture = mlp\nhidden_dims = 8, 4\n"
        "[training]\nepochs = 2\nbatch_size = 16\n"
        "[run]\ntrainer = meta\nk = 2\nseed = 5\n",
        encoding="utf-8",
    )

    artifacts = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(config_file), "--out", str(out)]) == 0
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(config_file),
                    "--out",
                    str(out),
                    "--lambdas",
                    "0.5,1.0",
                ]
            )
            == 0
        )
        artifacts[tag] = {
            name: (out / name).read_bytes()
            for name in ("checkpoint.json", "trainlog.csv", "cv_meta.csv", "sweep.csv")
        }
    identical = artifacts["a"] == artifacts["b"]

    worst = 0.0
    for arch in ARCHITECTURES:
        config = ModelConfig(arch, input_dim=12, embed_dim=4, tokens=3, channels=2)
        params = init_model(config, seed=31)
        path = tmp_path / f"{arch}.json"
        save_checkpoint(path, params, config)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert tuple(loaded) == tuple(params)
        for name in params:
            if not np.array_equal(loaded[name], params[name]):
                worst = max(worst, float(np.max(np.abs(loaded[name] - params[name]))))
    ok = identical and worst == 0.0
    _report(
        "determinism & round-trip",
        ok,
        f"rerun artifacts byte-identical: {identical}; "
        f"checkpoint value drift {worst:.1e} (must be 0)",
    )
