"""Optimizers against hand recurrences; trainer equivalences and determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from metagx import autodiff as ad
from metagx import training
from metagx.data import ExpressionDataset, sample_batch
from metagx.errors import TrainingError
from metagx.models import ModelConfig, ModelParams, forward, init_model, predict
from metagx.synth import SynthSpec, generate_task_family

from conftest import max_rel_err, numeric_grad


def make_ds(name: str, n: int, d: int, seed: int) -> ExpressionDataset:
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, d))
    labels = (rng.random(n) < 0.5).astype(float)
    labels[0], labels[1] = 0.0, 1.0  # both classes always present
    return ExpressionDataset(name, tuple(f"G{i}" for i in range(d)), matrix, labels)


def tiny_meta_config(**kw) -> training.MetaConfig:
    model = kw.pop("model", ModelConfig("mlp", input_dim=6, hidden_dims=(5, 4)))
    defaults = dict(epochs=2, batch_size=8, seed=0)
    defaults.update(kw)
    return training.MetaConfig(model=model, **defaults)


# ---------------------------------------------------------------------------
# SGD with momentum


def test_sgd_momentum_matches_hand_recurrence():
    # pure-Python oracle over ten steps with varied gradients
    grads = [0.5, -1.0, 0.25, 2.0, -0.125, 0.75, -0.5, 1.5, -2.0, 0.0625]
    lr, momentum = 0.0004, 0.2
    theta, v = 1.0, 0.0
    params = ModelParams({"w": np.array([1.0])})
    state = training.SgdState()
    for g in grads:
        v = momentum * v + g
        theta = theta - lr * v
        params = training.sgd_momentum_step(params, {"w": np.array([g])}, lr, momentum, state)
        assert abs(float(params["w"][0]) - theta) < 1e-15


def test_sgd_momentum_unit_gradient_velocity():
    params = ModelParams({"w": np.array([0.0])})
    state = training.SgdState()
    params = training.sgd_momentum_step(params, {"w": np.array([1.0])}, 0.0004, 0.2, state)
    params = training.sgd_momentum_step(params, {"w": np.array([1.0])}, 0.0004, 0.2, state)
    assert float(state.velocity["w"][0]) == pytest.approx(1.2, abs=1e-15)
    assert float(params["w"][0]) == pytest.approx(-0.0004 * (1.0 + 1.2), abs=1e-15)


def test_sgd_single_step_example():
    params = ModelParams({"w": np.array([1.0])})
    out = training.sgd_momentum_step(
        params, {"w": np.array([0.5])}, 0.0004, 0.0, training.SgdState()
    )
    assert float(out["w"][0]) == pytest.approx(0.9998, abs=1e-15)
    assert float(params["w"][0]) == 1.0  # input untouched


def test_sgd_validates_and_checks_gradients():
    params = ModelParams({"w": np.array([1.0])})
    with pytest.raises(ValueError):
        training.sgd_momentum_step(params, {"w": np.array([1.0])}, -0.1, 0.2, training.SgdState())
    with pytest.raises(ValueError):
        training.sgd_momentum_step(params, {"w": np.array([1.0])}, 0.1, 1.0, training.SgdState())
    with pytest.raises(TrainingError):
        training.sgd_momentum_step(params, {"w": np.array([np.nan])}, 0.1, 0.2, training.SgdState())


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signed_lr():
    params = ModelParams({"w": np.array([2.0, -3.0])})
    state = training.AdamState()
    out = training.adam_step(params, {"w": np.array([0.7, -0.1])}, 0.0004, state)
    delta = out["w"] - params["w"]
    np.testing.assert_allclose(delta, [-0.0004, 0.0004], atol=1e-9)


def test_adam_matches_hand_recurrence():
    grads = [0.3, -0.2, 0.05, 1.0, -0.7]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    theta, m, v = 0.5, 0.0, 0.0
    params = ModelParams({"w": np.array([0.5])})
    state = training.AdamState()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        params = training.adam_step(params, {"w": np.array([g])}, lr, state)
        assert abs(float(params["w"][0]) - theta) < 1e-15


def test_adam_rejects_non_finite_gradient():
    params = ModelParams({"w": np.array([1.0])})
    with pytest.raises(TrainingError):
        training.adam_step(params, {"w": np.array([np.inf])}, 0.01, training.AdamState())


# ---------------------------------------------------------------------------
# adaptation and losses


def test_inner_adapt_moves_against_finite_difference_gradient():
    cfg = ModelConfig("mlp", input_dim=4, hidden_dims=(3,))
    params = init_model(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    y = (rng.random(6) < 0.5).astype(float)
    alpha = 0.01
    adapted = training.inner_adapt(params, cfg, (x, y), alpha, 0.0)
    for name in params.names():
        def loss_at(arr, _name=name):
            trial = ModelParams({n: (arr if n == _name else params[n]) for n in params.names()})
            return ad.bce_loss(ad.Tensor(predict(trial, cfg, x)), ad.Tensor(y)).item()

        fd = numeric_grad(loss_at, params[name].copy())
        got = (params[name] - adapted[name]) / alpha
        assert max_rel_err(got, fd) < 1e-4, name


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_weighted_backward_equals_backward_of_the_scaled_loss(arch):
    cfg = ModelConfig(arch, input_dim=12, hidden_dims=(5, 4), channels=3)
    params = init_model(cfg, seed=8)
    ds = make_ds("t", 9, 12, seed=9)

    def leaf_grads(weight, fused):
        tape = ad.Tape()
        leaves = params.bind(tape)
        loss = ad.bce_loss(forward(leaves, cfg, ad.Tensor(ds.matrix)), ad.Tensor(ds.labels))
        grads = ad.backward(loss, weight) if fused else ad.backward(ad.mul(loss, weight))
        return {name: grads[leaf.node].data.tobytes() for name, leaf in leaves.items()}

    for weight in (0.0, 0.25, 1.0):
        assert leaf_grads(weight, True) == leaf_grads(weight, False), weight


def test_target_loss_matches_direct_bce():
    cfg = ModelConfig("mlp", input_dim=5, hidden_dims=(4,))
    params = init_model(cfg, seed=3)
    ds = make_ds("t", 10, 5, seed=4)
    got = ad.bce_loss(ad.Tensor(predict(params, cfg, ds.matrix)), ad.Tensor(ds.labels)).item()
    p = np.clip(predict(params, cfg, ds.matrix), 1e-7, 1 - 1e-7)
    want = -np.mean(ds.labels * np.log(p) + (1 - ds.labels) * np.log(1 - p))
    assert got == pytest.approx(want, abs=1e-12)


def test_first_step_source_loss_is_the_mean_of_recomputed_adapted_losses():
    cfg = tiny_meta_config(epochs=1, batch_size=8, seed=5)
    sources = [make_ds(f"s{i}", 20, 6, seed=10 + i) for i in range(3)]
    target = make_ds("t", 16, 6, seed=13)
    _, log = training.train_meta(cfg, sources, target)

    params = init_model(cfg.model, cfg.seed)
    rng = np.random.default_rng([cfg.seed, training._STREAM_SOURCE])
    losses = []
    for src in sources:
        x, y = sample_batch(src.matrix, src.labels, cfg.batch_size, rng)
        fast = training.inner_adapt(params, cfg.model, (x, y), cfg.inner_lr, cfg.inner_momentum)
        losses.append(ad.bce_loss(ad.Tensor(predict(fast, cfg.model, x)), ad.Tensor(y)).item())
    assert log.records[0].loss_source == pytest.approx(sum(losses) / 3, abs=1e-12)
    # the step's source batches differ, so the mean is not one source's loss
    assert len(set(losses)) == 3


def test_lambda_zero_ignores_the_target_batches():
    cfg = tiny_meta_config(lam=0.0, epochs=2, batch_size=6, seed=4)
    sources = [make_ds(f"s{i}", 20, 6, seed=20 + i) for i in range(2)]
    first = make_ds("t", 16, 6, seed=30)
    # same sample count, other values and flipped labels
    other = ExpressionDataset("u", first.gene_ids, -2.0 * first.matrix + 1.0, 1.0 - first.labels)
    p1, log1 = training.train_meta(cfg, sources, first)
    p2, log2 = training.train_meta(cfg, sources, other)
    assert [r.loss_target for r in log1.records] != [r.loss_target for r in log2.records]
    for name in p1.names():
        np.testing.assert_array_equal(p1[name], p2[name])


def test_meta_step_memory_does_not_grow_with_sources():
    sources, target = generate_task_family(
        SynthSpec(n_sources=4, source_samples=32, target_samples=32, n_features=300, seed=2)
    )
    cfg = training.MetaConfig(
        model=ModelConfig("cnn", input_dim=300), epochs=1, batch_size=32, seed=1
    )

    def peak_bytes(srcs):
        tracemalloc.start()
        try:
            training.train_meta(cfg, srcs, target)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak_bytes(sources[:1]), peak_bytes(sources)
    assert four <= 1.25 * one, (one, four)


# ---------------------------------------------------------------------------
# full loops


def test_train_plain_runs_and_logs():
    cfg = tiny_meta_config(epochs=3, batch_size=7)
    target = make_ds("t", 20, 6, seed=7)
    params, log = training.train_plain(cfg, target)
    assert len(log) == 3 * 3  # ceil(20/7) = 3 batches per epoch
    assert all(r.loss_source is None and r.loss_meta is None for r in log.records)
    assert all(np.isfinite(r.loss_target) for r in log.records)
    assert params.names() == init_model(cfg.model, 0).names()


def test_train_meta_lambda_one_equals_plain():
    cfg = tiny_meta_config(lam=1.0, epochs=2, batch_size=8, seed=3)
    sources = [make_ds(f"s{i}", 25, 6, seed=40 + i) for i in range(3)]
    target = make_ds("t", 20, 6, seed=50)

    meta_snaps, plain_snaps = [], []
    p_meta, log_meta = training.train_meta(
        cfg, sources, target, on_step=lambda s, p: meta_snaps.append(p)
    )
    p_plain, log_plain = training.train_plain(
        cfg, target, on_step=lambda s, p: plain_snaps.append(p)
    )
    assert len(meta_snaps) == len(plain_snaps)
    for pm, pp in zip(meta_snaps, plain_snaps):
        for name in pm.names():
            np.testing.assert_array_equal(pm[name], pp[name])
    for rm, rp in zip(log_meta.records, log_plain.records):
        assert rm.loss_target == rp.loss_target


def test_train_meta_deterministic_and_seed_sensitive():
    sources = [make_ds(f"s{i}", 25, 6, seed=60 + i) for i in range(2)]
    target = make_ds("t", 18, 6, seed=70)
    cfg = tiny_meta_config(lam=0.5, epochs=2, batch_size=6, seed=11)
    p1, log1 = training.train_meta(cfg, sources, target)
    p2, log2 = training.train_meta(cfg, sources, target)
    for name in p1.names():
        np.testing.assert_array_equal(p1[name], p2[name])
    assert [r.loss_meta for r in log1.records] == [r.loss_meta for r in log2.records]

    cfg2 = tiny_meta_config(lam=0.5, epochs=2, batch_size=6, seed=12)
    p3, _ = training.train_meta(cfg2, sources, target)
    assert any(not np.array_equal(p1[n], p3[n]) for n in p1.names())


def test_train_meta_stacked_slices_equal_train_meta():
    cfg = tiny_meta_config(epochs=2, batch_size=7, seed=9)
    sources = [make_ds(f"s{i}", 25, 6, seed=100 + i) for i in range(3)]
    target = make_ds("t", 20, 6, seed=110)
    lams = (0.0, 0.3, 1.0)
    stacked, logs = training.train_meta_stacked(cfg, lams, sources, target)
    assert stacked["hidden.0.bias"].shape == (3, 5)
    for i, lam in enumerate(lams):
        params, log = training.train_meta(replace(cfg, lam=lam), sources, target)
        for name in params.names():
            assert stacked[name][i].tobytes() == params[name].tobytes(), (lam, name)
        assert [repr(r) for r in logs[i].records] == [repr(r) for r in log.records]


def test_train_meta_stacked_validates_inputs():
    sources = [make_ds("s", 10, 6, seed=1)]
    target = make_ds("t", 10, 6, seed=0)
    with pytest.raises(ValueError, match="only an MLP"):
        cnn = ModelConfig("cnn", input_dim=6, channels=2)
        training.train_meta_stacked(tiny_meta_config(model=cnn), (0.5,), sources, target)
    with pytest.raises(ValueError, match="lam must be in"):
        training.train_meta_stacked(tiny_meta_config(), (0.5, 1.5), sources, target)
    with pytest.raises(ValueError, match="source"):
        training.train_meta_stacked(tiny_meta_config(), (0.5,), [], target)


def test_stacked_divergence_names_the_first_diverging_slice():
    cfg = ModelConfig("mlp", input_dim=6, hidden_dims=(5, 4))
    lams = np.array([0.2, 0.7, 0.9])
    init = init_model(cfg, seed=0)
    arrays = {n: np.tile(a, (3,) + (1,) * a.ndim) for n, a in init.items()}
    arrays["output.weight"][1:] = np.nan
    ds = make_ds("t", 8, 6, seed=1)
    with pytest.raises(TrainingError) as err:
        training.inner_adapt(ModelParams(arrays), cfg, (ds.matrix, ds.labels), 0.01, 0.0, lams)
    assert str(err.value) == "non-finite adaptation loss nan at lambda=0.7"
    grads = {"w": np.array([[1.0, 2.0], [3.0, 4.0], [5.0, np.inf]])}
    params = ModelParams({"w": np.zeros((3, 2))})
    with pytest.raises(TrainingError) as err:
        training.adam_step(params, grads, 0.01, training.AdamState(), lams)
    assert str(err.value) == "non-finite gradient for parameter 'w' at lambda=0.9"


def test_train_meta_validates_inputs():
    cfg = tiny_meta_config()
    target = make_ds("t", 10, 6, seed=0)
    with pytest.raises(ValueError):
        training.train_meta(cfg, [], target)
    bad = make_ds("s", 10, 7, seed=1)
    with pytest.raises(ValueError, match="genes"):
        training.train_meta(cfg, [bad], target)


def test_train_transfer_stages_and_plain_equivalence():
    cfg = tiny_meta_config(epochs=2, batch_size=6, seed=5)
    sources = [make_ds(f"s{i}", 15, 6, seed=80 + i) for i in range(2)]
    target = make_ds("t", 12, 6, seed=90)

    p_tr, log_tr = training.train_transfer(cfg, sources, target)
    stages = [r.stage for r in log_tr.records]
    # pretraining sees 30 pooled samples: 2 epochs x 5 batches, then 2 x 2
    assert stages == ["pretrain"] * 10 + ["finetune"] * 4
    assert [r.step for r in log_tr.records] == list(range(1, 15))
    assert log_tr.records[10].epoch == 1  # fine-tuning counts its own epochs

    p_plain, _ = training.train_plain(cfg, target)
    # pretraining must actually change the outcome
    assert any(not np.array_equal(p_tr[n], p_plain[n]) for n in p_tr.names())


def test_meta_config_validation():
    model = ModelConfig("mlp", input_dim=4)
    with pytest.raises(ValueError):
        training.MetaConfig(model=model, lam=1.5)
    with pytest.raises(ValueError):
        training.MetaConfig(model=model, inner_lr=0.0)
    with pytest.raises(ValueError, match="inner_lr must be finite"):
        training.MetaConfig(model=model, inner_lr=float("nan"))
    with pytest.raises(ValueError, match="outer_lr must be finite"):
        training.MetaConfig(model=model, outer_lr=float("inf"))
    with pytest.raises(ValueError):
        training.MetaConfig(model=model, inner_momentum=1.0)
    with pytest.raises(ValueError):
        training.MetaConfig(model=model, epochs=0)


def test_train_log_csv_format(tmp_path):
    log = training.TrainLog()
    log.append(1, 1, 0.5, 0.25, 0.375)
    log.append(2, 1, 0.4, stage="pretrain")
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,epoch,loss_target,loss_source,loss_meta,stage"
    assert lines[1] == "1,1,0.5,0.25,0.375,train"
    assert lines[2] == "2,1,0.4,,,pretrain"
