"""Optimizers against hand recurrences; trainer equivalences and determinism."""

import math

import numpy as np
import pytest

from metagx import autodiff as ad
from metagx import training
from metagx.data import ExpressionDataset
from metagx.errors import TrainingError
from metagx.models import ModelConfig, ModelParams, forward, init_model, predict

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


def test_meta_loss_mixing():
    one, two = ad.Tensor(1.0), ad.Tensor(2.0)
    assert training.meta_loss(one, two, 0.7).item() == pytest.approx(1.3, abs=1e-9)
    assert training.meta_loss(one, two, 1.0).item() == 1.0
    assert training.meta_loss(one, two, 0.0).item() == 2.0
    with pytest.raises(ValueError):
        training.meta_loss(one, two, 1.5)
    # the mix is recorded, so it stays differentiable
    tape = ad.Tape()
    lt = tape.watch(np.array(1.0).reshape(()))
    ls = tape.watch(np.array(2.0).reshape(()))
    mixed = training.meta_loss(lt, ls, 0.25)
    grads = ad.backward(mixed)
    assert float(grads[lt.node].data) == pytest.approx(0.25)
    assert float(grads[ls.node].data) == pytest.approx(0.75)


def test_target_loss_matches_direct_bce():
    cfg = ModelConfig("mlp", input_dim=5, hidden_dims=(4,))
    params = init_model(cfg, seed=3)
    ds = make_ds("t", 10, 5, seed=4)
    got = ad.bce_loss(ad.Tensor(predict(params, cfg, ds.matrix)), ad.Tensor(ds.labels)).item()
    p = np.clip(predict(params, cfg, ds.matrix), 1e-7, 1 - 1e-7)
    want = -np.mean(ds.labels * np.log(p) + (1 - ds.labels) * np.log(1 - p))
    assert got == pytest.approx(want, abs=1e-12)


def test_adapted_source_losses_mean_and_rng_determinism():
    cfg = ModelConfig("mlp", input_dim=5, hidden_dims=(4,))
    params = init_model(cfg, seed=5)
    sources = [make_ds(f"s{i}", 20, 5, seed=10 + i) for i in range(3)]

    def source_losses():
        losses, _ = training._adapted_source_losses(
            ad.Tape(), params, cfg, sources, 8, 4e-4, 0.2, np.random.default_rng(9)
        )
        return [loss.item() for loss in losses], training._mean_of(losses).item()

    per1, mean1 = source_losses()
    per2, mean2 = source_losses()
    assert per1 == per2
    assert len(per1) == 3
    assert mean1 == pytest.approx(sum(per1) / 3, abs=1e-12)
    assert mean1 == mean2


def test_lambda_zero_kills_target_gradient():
    cfg = ModelConfig("mlp", input_dim=5, hidden_dims=(4,))
    params = init_model(cfg, seed=6)
    sources = [make_ds(f"s{i}", 20, 5, seed=20 + i) for i in range(2)]
    target = make_ds("t", 16, 5, seed=30)

    tape = ad.Tape()
    base = params.bind(tape)
    l_t = ad.bce_loss(forward(base, cfg, ad.Tensor(target.matrix)), ad.Tensor(target.labels))
    src_losses, _ = training._adapted_source_losses(
        tape, params, cfg, sources, 8, 4e-4, 0.2, np.random.default_rng(1)
    )
    l_s = training._mean_of(src_losses)
    l_m = training.meta_loss(l_t, l_s, 0.0)
    grads = ad.backward(l_m)
    for name, leaf in base.items():
        assert np.max(np.abs(grads[leaf.node].data)) < 1e-12, name


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

    p_skip, _ = training.train_transfer(cfg, sources, target, pretrain_epochs=0)
    p_plain, _ = training.train_plain(cfg, target)
    for name in p_skip.names():
        np.testing.assert_array_equal(p_skip[name], p_plain[name])
    # pretraining must actually change the outcome
    assert any(not np.array_equal(p_tr[n], p_plain[n]) for n in p_tr.names())


def test_train_transfer_validates_epochs():
    cfg = tiny_meta_config()
    sources = [make_ds("s", 10, 6, seed=1)]
    target = make_ds("t", 10, 6, seed=2)
    with pytest.raises(ValueError):
        training.train_transfer(cfg, sources, target, pretrain_epochs=-1)
    with pytest.raises(ValueError):
        training.train_transfer(cfg, sources, target, finetune_epochs=0)


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
