"""Optimizers against hand recurrences; trainer equivalences and determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from metagx import autodiff as ad
from metagx import models, training
from metagx.data import ExpressionDataset, sample_batch
from metagx.errors import TrainingError
from metagx.evaluate import cross_validate, cv_to_csv, lambda_sweep, sweep_to_csv
from metagx.models import ModelConfig, forward, init_model, predict
from metagx.synth import SynthSpec, generate_task_family

from conftest import adam_step_trail, max_rel_err, numeric_grad


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
# Adam


def test_adam_first_step_is_signed_lr():
    params = {"w": np.array([2.0, -3.0])}
    state = training.AdamState()
    out = training.adam_step(params, {"w": np.array([0.7, -0.1])}, 0.0004, state)
    delta = out["w"] - params["w"]
    np.testing.assert_allclose(delta, [-0.0004, 0.0004], atol=1e-9)


def test_adam_matches_hand_recurrence():
    grads = [0.3, -0.2, 0.05, 1.0, -0.7]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    theta, m, v = 0.5, 0.0, 0.0
    params = {"w": np.array([0.5])}
    state = training.AdamState()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        params = training.adam_step(params, {"w": np.array([g])}, lr, state)
        assert abs(float(params["w"][0]) - theta) < 1e-15


def test_adam_rejects_non_finite_gradient():
    params = {"w": np.array([1.0])}
    with pytest.raises(TrainingError):
        training.adam_step(params, {"w": np.array([np.inf])}, 0.01, training.AdamState())


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -0.01])
def test_adam_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    state = training.AdamState()
    with pytest.raises(ValueError, match="learning rate must be finite and > 0"):
        training.adam_step({"w": np.array([1.0])}, {"w": np.array([0.5])}, lr, state)
    assert state.t == 0 and not state.m


def out_of_place_adam_step(params, grads, lr, state):
    """Adam as one fresh array per term: the recurrence ``adam_step`` keeps to
    bit for bit with its moments updated in place."""
    state.t += 1
    bc1 = 1.0 - 0.9**state.t
    bc2 = 1.0 - 0.999**state.t
    new = {}
    for name, arr in params.items():
        g = grads[name]
        m = 0.9 * state.m.get(name, 0.0) + (1.0 - 0.9) * g
        v = 0.999 * state.v.get(name, 0.0) + (1.0 - 0.999) * g * g
        state.m[name], state.v[name] = m, v
        new[name] = arr - lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    return new


def test_adam_equals_the_out_of_place_recurrence_and_writes_no_input():
    rng = np.random.default_rng(21)
    shapes = {"w": (3, 4), "b": (4,), "stacked": (3, 2, 5)}
    params = {n: rng.standard_normal(s) for n, s in shapes.items()}
    params["b"][0] = -0.0
    want_params = {n: a.copy() for n, a in params.items()}
    state, want_state = training.AdamState(), training.AdamState()
    snapshots = []
    for step in range(20):
        grads = {n: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for n, s in shapes.items()}
        for g in grads.values():
            g[rng.random(g.shape) < 0.2] = -0.0
            g[rng.random(g.shape) < 0.2] = 0.0
        if step % 7 == 3:
            grads["w"][:] = 0.0
        # a weight's gradient is a transposed view, and a leaf's gradient can
        # be a read-only broadcast view
        grads["w"] = np.asfortranarray(grads["w"])
        grads["b"] = np.broadcast_to(grads["b"], shapes["b"])
        before = {n: a.tobytes() for n, a in {**params, **grads}.items()}
        out = training.adam_step(params, grads, 0.003, state)
        want_params = out_of_place_adam_step(want_params, grads, 0.003, want_state)
        assert {n: a.tobytes() for n, a in {**params, **grads}.items()} == before
        for name in shapes:
            assert out[name].tobytes() == want_params[name].tobytes(), (step, name)
            # the layout decides which BLAS path the next forward takes
            assert out[name].strides == want_params[name].strides, (step, name)
            assert state.m[name].tobytes() == want_state.m[name].tobytes()
            assert state.v[name].tobytes() == want_state.v[name].tobytes()
        snapshots.append((out, {n: a.tobytes() for n, a in out.items()}))
        params = out
    # later steps write into no array an earlier step returned
    for out, saved in snapshots:
        assert {n: a.tobytes() for n, a in out.items()} == saved


# ---------------------------------------------------------------------------
# adaptation and losses


def test_inner_adapt_moves_against_finite_difference_gradient():
    cfg = ModelConfig("mlp", input_dim=4, hidden_dims=(3,))
    params = init_model(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    y = (rng.random(6) < 0.5).astype(float)
    alpha = 0.01
    adapted = training.inner_adapt(params, cfg, (x, y), alpha)
    for name in params:
        def loss_at(arr, _name=name):
            trial = {n: (arr if n == _name else params[n]) for n in params}
            return ad.bce_loss(ad.Tensor(predict(trial, cfg, x)), ad.Tensor(y)).item()

        fd = numeric_grad(loss_at, params[name].copy())
        got = (params[name] - adapted[name]) / alpha
        assert max_rel_err(got, fd) < 1e-4, name


def test_inner_adapt_rejects_a_non_finite_gradient_of_a_finite_loss(monkeypatch):
    cfg = ModelConfig("mlp", input_dim=4, hidden_dims=(3,))
    init = init_model(cfg, seed=1)
    ds = make_ds("t", 6, 4, seed=2)
    grads = training._grads

    def poisoned(loss, leaves, weight=1.0):
        # the last entry of the output weight's gradient, in the last slice when stacked
        out = grads(loss, leaves, weight)
        g = out["output.weight"].copy()
        g.flat[-1] = np.nan
        out["output.weight"] = g
        return out

    monkeypatch.setattr(training, "_grads", poisoned)
    with pytest.raises(TrainingError) as err:
        training.inner_adapt(init, cfg, (ds.matrix, ds.labels), 0.01)
    assert str(err.value) == "non-finite gradient for parameter 'output.weight'"
    # stacked parameters take the same path and the same message
    stacked = {n: np.tile(a, (3,) + (1,) * a.ndim) for n, a in init.items()}
    with pytest.raises(TrainingError) as err:
        training.inner_adapt(stacked, cfg, (ds.matrix, ds.labels), 0.01)
    assert str(err.value) == "non-finite gradient for parameter 'output.weight'"
    grads = {n: np.zeros_like(a) for n, a in stacked.items()}
    grads["output.weight"][-1] = np.inf
    with pytest.raises(TrainingError) as err:
        training.adam_step(stacked, grads, 0.01, training.AdamState())
    assert str(err.value) == "non-finite gradient for parameter 'output.weight'"


def test_each_trainer_names_the_loss_that_turned_non_finite():
    """Finite inputs near the float limit overflow a transformer's first
    forward to a NaN loss; each trainer reports the stage it was in."""
    model = ModelConfig("transformer", input_dim=6, tokens=3, embed_dim=4)
    cfg = tiny_meta_config(model=model, epochs=1, batch_size=4)
    target = make_ds("t", 8, 6, seed=1)
    huge = make_ds("s", 8, 6, seed=2)
    huge = replace(huge, matrix=np.clip(huge.matrix, -1.7, 1.7) * 1e308)
    cases = (
        (lambda: training.train_plain(cfg, huge), "non-finite train loss nan at step 1 (epoch 1)"),
        (
            lambda: training.train_transfer(cfg, [huge], target),
            "non-finite pretrain loss nan at step 1 (epoch 1)",
        ),
        (lambda: training.train_meta(cfg, [huge], target), "non-finite adaptation loss nan"),
    )
    for run, message in cases:
        with pytest.raises(TrainingError) as err:
            run()
        assert str(err.value) == message


def test_inner_adapt_is_the_out_of_place_step_on_read_only_gradients(monkeypatch):
    cfg = ModelConfig("mlp", input_dim=4, hidden_dims=(3,))
    params = init_model(cfg, seed=1)
    params["hidden.0.bias"][:] = [-0.0, 0.0, 1e-300]
    ds = make_ds("t", 6, 4, seed=2)
    grads = training._grads
    seen = {}

    def read_only(loss, leaves, weight=1.0):
        out = grads(loss, leaves, weight)
        out["hidden.0.bias"] = np.array([0.0, -0.0, 1e-290])
        seen.update(out)
        return {n: np.broadcast_to(g, g.shape) for n, g in out.items()}

    monkeypatch.setattr(training, "_grads", read_only)
    before = {n: a.tobytes() for n, a in params.items()}
    adapted = training.inner_adapt(params, cfg, (ds.matrix, ds.labels), 0.01)
    assert {n: a.tobytes() for n, a in params.items()} == before
    for name, a in params.items():
        want = a - 0.01 * seen[name]
        assert adapted[name].tobytes() == want.tobytes(), name
        # the layout decides which BLAS path the adapted forward takes
        assert adapted[name].strides == want.strides, name


def test_inner_adapt_rejects_a_stale_positional_momentum():
    # inner_adapt is plain SGD: a momentum passed as a fifth argument is an error
    cfg = ModelConfig("mlp", input_dim=4, hidden_dims=(3,))
    ds = make_ds("t", 6, 4, seed=2)
    with pytest.raises(TypeError):
        training.inner_adapt(init_model(cfg, seed=1), cfg, (ds.matrix, ds.labels), 0.01, 0.2)


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_weighted_backward_equals_backward_of_the_scaled_loss(arch):
    cfg = ModelConfig(arch, input_dim=12, hidden_dims=(5, 4), channels=3)
    params = init_model(cfg, seed=8)
    ds = make_ds("t", 9, 12, seed=9)

    def leaf_grads(weight, fused):
        tape = ad.Tape()
        leaves = {n: tape.watch(a) for n, a in params.items()}
        loss = ad.bce_loss(forward(leaves, cfg, ad.Tensor(ds.matrix)), ad.Tensor(ds.labels))
        grads = ad.backward(loss, weight) if fused else ad.backward(ad.mul(loss, weight))
        return {name: grads[leaf.node].tobytes() for name, leaf in leaves.items()}

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
        fast = training.inner_adapt(params, cfg.model, (x, y), cfg.alpha)
        losses.append(ad.bce_loss(ad.Tensor(predict(fast, cfg.model, x)), ad.Tensor(y)).item())
    assert log[0].loss_source == pytest.approx(sum(losses) / 3, abs=1e-12)
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
    assert [r.loss_target for r in log1] != [r.loss_target for r in log2]
    for name in p1:
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
    assert all(r.loss_source is None and r.loss_meta is None for r in log)
    assert all(np.isfinite(r.loss_target) for r in log)
    assert tuple(params) == tuple(init_model(cfg.model, 0))


def test_train_meta_lambda_one_equals_plain():
    cfg = tiny_meta_config(lam=1.0, epochs=2, batch_size=8, seed=3)
    sources = [make_ds(f"s{i}", 25, 6, seed=40 + i) for i in range(3)]
    target = make_ds("t", 20, 6, seed=50)

    with adam_step_trail() as meta_snaps:
        p_meta, log_meta = training.train_meta(cfg, sources, target)
    with adam_step_trail() as plain_snaps:
        p_plain, log_plain = training.train_plain(cfg, target)
    assert len(meta_snaps) == len(log_meta) == len(plain_snaps) == len(log_plain) > 0
    for pm, pp in zip(meta_snaps, plain_snaps):
        for name in pm:
            np.testing.assert_array_equal(pm[name], pp[name])
    for rm, rp in zip(log_meta, log_plain):
        assert rm.loss_target == rp.loss_target


def test_train_meta_deterministic_and_seed_sensitive():
    sources = [make_ds(f"s{i}", 25, 6, seed=60 + i) for i in range(2)]
    target = make_ds("t", 18, 6, seed=70)
    cfg = tiny_meta_config(lam=0.5, epochs=2, batch_size=6, seed=11)
    p1, log1 = training.train_meta(cfg, sources, target)
    p2, log2 = training.train_meta(cfg, sources, target)
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])
    assert [r.loss_meta for r in log1] == [r.loss_meta for r in log2]

    cfg2 = tiny_meta_config(lam=0.5, epochs=2, batch_size=6, seed=12)
    p3, _ = training.train_meta(cfg2, sources, target)
    assert any(not np.array_equal(p1[n], p3[n]) for n in p1)


def test_train_meta_stacked_slices_equal_train_meta():
    cfg = tiny_meta_config(epochs=2, batch_size=7, seed=9)
    sources = [make_ds(f"s{i}", 25, 6, seed=100 + i) for i in range(3)]
    target = make_ds("t", 20, 6, seed=110)
    lams = (0.0, 0.3, 1.0)
    stacked = training.train_meta_stacked(cfg, lams, sources, target)
    assert stacked["hidden.0.bias"].shape == (3, 5)
    scores = predict(stacked, cfg.model, target.matrix)
    for i, lam in enumerate(lams):
        params, _ = training.train_meta(replace(cfg, lam=lam), sources, target)
        for name in params:
            assert stacked[name][i].tobytes() == params[name].tobytes(), (lam, name)
        assert scores[i].tobytes() == predict(params, cfg.model, target.matrix).tobytes(), lam


def unfused_forward_cnn(tensors, config, batch):
    """``models.forward_cnn`` as the conv1d -> leaky_relu -> max_pool1d chain
    it recorded per layer before ``conv_block``: the reference forward."""
    n = batch.data.shape[0]
    h = ad.reshape(batch, (n, 1, config.input_dim))
    for i in range(config.conv_layers):
        w = tensors[f"conv.{i}.weight"]
        h = ad.conv1d(h, w, stride=config.conv_stride, padding=config.conv_padding)
        h = ad.leaky_relu(h, config.leaky_slope)
        h = ad.max_pool1d(h, config.pool_size, config.pool_stride)
    h = ad.reshape(h, (n, config.channels * models.conv_output_length(config)))
    return ad.sigmoid_head(h, tensors["output.weight"])


def test_cnn_artifacts_through_conv_block_equal_the_unfused_chain(monkeypatch, tmp_path):
    sources, target = generate_task_family(SynthSpec(n_features=100, target_samples=40, seed=4))
    model = ModelConfig("cnn", input_dim=100, channels=8)
    cfg = tiny_meta_config(model=model, lam=0.5, epochs=2, batch_size=16, seed=5)

    def artifacts(tag):
        params, log = training.train_meta(cfg, sources, target)
        training.trainlog_to_csv(log, tmp_path / f"trainlog_{tag}.csv")
        cv = cross_validate(sources, target, cfg, trainer="meta", k=3)
        cv_to_csv(cv, tmp_path / f"cv_{tag}.csv")
        files = [tmp_path / f"{kind}_{tag}.csv" for kind in ("trainlog", "cv")]
        return params, [f.read_bytes() for f in files]

    fused_params, fused_files = artifacts("fused")
    calls = []
    monkeypatch.setitem(
        models._FORWARDS, "cnn", lambda *a: calls.append(1) or unfused_forward_cnn(*a)
    )
    chain_params, chain_files = artifacts("chain")
    assert calls, "the reference forward did not run"
    for name in fused_params:
        assert fused_params[name].tobytes() == chain_params[name].tobytes(), name
    assert fused_files == chain_files


def reference_inner_adapt(params, model_config, batch, alpha):
    """``inner_adapt`` as ``a - alpha * g``, with two temporaries."""
    loss, leaves = training._batch_loss(params, model_config, batch)
    grads = training._grads(loss, leaves, np.ones_like(loss.data))
    return {n: a - alpha * grads[n] for n, a in params.items()}


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_artifacts_equal_those_of_the_unfused_out_of_place_step(monkeypatch, tmp_path, arch):
    sources, target = generate_task_family(SynthSpec(n_features=30, target_samples=40, seed=4))
    model = ModelConfig(arch, input_dim=30, hidden_dims=(16, 8), channels=4, tokens=6)
    cfg = tiny_meta_config(model=model, lam=0.5, epochs=2, batch_size=16, seed=5)

    def artifacts(tag):
        params, log = training.train_meta(cfg, sources, target)
        training.trainlog_to_csv(log, tmp_path / f"trainlog_{tag}.csv")
        cv = cross_validate(sources, target, cfg, trainer="meta", k=3)
        cv_to_csv(cv, tmp_path / f"cv_{tag}.csv")
        # an MLP sweep trains its weights as one stacked model
        points = lambda_sweep(sources, target, cfg, (0.2, 1.0), k=3)
        sweep_to_csv(points, tmp_path / f"sw_{tag}.csv")
        files = [tmp_path / f"{kind}_{tag}.csv" for kind in ("trainlog", "cv", "sw")]
        return params, [f.read_bytes() for f in files]

    fused_params, fused_files = artifacts("fused")
    calls = []

    def chain(x, w, b, slope):
        calls.append(1)
        return ad.leaky_relu(ad.linear(x, w, b), slope)

    monkeypatch.setattr(ad, "dense_block", chain)
    monkeypatch.setattr(training, "adam_step", out_of_place_adam_step)
    monkeypatch.setattr(training, "inner_adapt", reference_inner_adapt)
    chain_params, chain_files = artifacts("chain")
    assert bool(calls) == (arch == "mlp")
    for name in fused_params:
        assert fused_params[name].tobytes() == chain_params[name].tobytes(), name
    assert fused_files == chain_files


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
    stages = [r.stage for r in log_tr]
    # pretraining sees 30 pooled samples: 2 epochs x 5 batches, then 2 x 2
    assert stages == ["pretrain"] * 10 + ["finetune"] * 4
    assert [r.step for r in log_tr] == list(range(1, 15))
    assert log_tr[10].epoch == 1  # fine-tuning counts its own epochs

    p_plain, _ = training.train_plain(cfg, target)
    # pretraining must actually change the outcome
    assert any(not np.array_equal(p_tr[n], p_plain[n]) for n in p_tr)


def test_meta_config_validation():
    model = ModelConfig("mlp", input_dim=4)
    with pytest.raises(ValueError):
        training.MetaConfig(model=model, lam=1.5)
    with pytest.raises(ValueError):
        training.MetaConfig(model=model, alpha=0.0)
    with pytest.raises(ValueError, match="alpha must be finite"):
        training.MetaConfig(model=model, alpha=float("nan"))
    with pytest.raises(ValueError, match="beta must be finite"):
        training.MetaConfig(model=model, beta=float("inf"))
    with pytest.raises(ValueError):
        training.MetaConfig(model=model, epochs=0)


def test_train_log_csv_format(tmp_path):
    log = [
        training.TrainLogRecord(1, 1, 0.5, 0.25, 0.375, "train"),
        training.TrainLogRecord(2, 1, 0.4, None, None, "pretrain"),
    ]
    path = tmp_path / "log.csv"
    training.trainlog_to_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,epoch,loss_target,loss_source,loss_meta,stage"
    assert lines[1] == "1,1,0.5,0.25,0.375,train"
    assert lines[2] == "2,1,0.4,,,pretrain"
