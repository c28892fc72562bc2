"""Architectures: initialization, forward oracles, gradients, checkpoints."""

import base64
import json

import numpy as np
import pytest

from metagx import autodiff as ad
from metagx import models
from metagx.errors import CheckpointError, DimensionError

from conftest import max_rel_err, numeric_grad

GRAD_TOL = 1e-4


def tiny_config(arch: str) -> models.ModelConfig:
    if arch == "mlp":
        return models.ModelConfig("mlp", input_dim=6, hidden_dims=(5, 4))
    if arch == "cnn":
        return models.ModelConfig("cnn", input_dim=12, channels=2)
    return models.ModelConfig("transformer", input_dim=8, embed_dim=4, tokens=2)


def np_sigmoid(x):
    return np.clip(1.0 / (1.0 + np.exp(-x)), 1e-7, 1.0 - 1e-7)


def np_leaky(x, slope=0.01):
    return np.where(x >= 0, x, slope * x)


# ---------------------------------------------------------------------------
# configuration and initialization


def test_config_validation():
    with pytest.raises(ValueError):
        models.ModelConfig("rnn", input_dim=10)
    with pytest.raises(ValueError):
        models.ModelConfig("mlp", input_dim=0)
    with pytest.raises(ValueError):
        models.ModelConfig("mlp", input_dim=4, hidden_dims=())
    with pytest.raises(ValueError):
        models.ModelConfig("transformer", input_dim=4, tokens=8)
    with pytest.raises(ValueError):
        models.ModelConfig("cnn", input_dim=2, kernel_size=9, conv_padding=0)


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_init_deterministic_and_seed_sensitive(arch):
    cfg = tiny_config(arch)
    a = models.init_model(cfg, seed=5)
    b = models.init_model(cfg, seed=5)
    c = models.init_model(cfg, seed=6)
    assert tuple(a) == tuple(b) == tuple(c)
    for name, arr in a.items():
        np.testing.assert_array_equal(arr, b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_init_bounds_and_zero_biases():
    cfg = models.ModelConfig("mlp", input_dim=16, hidden_dims=(8, 4))
    params = models.init_model(cfg, seed=0)
    np.testing.assert_array_equal(params["hidden.0.bias"], np.zeros(8))
    np.testing.assert_array_equal(params["hidden.1.bias"], np.zeros(4))
    assert np.max(np.abs(params["hidden.0.weight"])) <= 1.0 / 4.0
    assert np.max(np.abs(params["hidden.1.weight"])) <= 1.0 / np.sqrt(8.0)
    assert np.max(np.abs(params["output.weight"])) <= 1.0 / 2.0


def test_param_names_per_architecture():
    assert tuple(models.init_model(tiny_config("mlp"), 0)) == (
        "hidden.0.weight",
        "hidden.0.bias",
        "hidden.1.weight",
        "hidden.1.bias",
        "output.weight",
    )
    assert tuple(models.init_model(tiny_config("cnn"), 0)) == (
        "conv.0.weight",
        "conv.1.weight",
        "output.weight",
    )
    assert tuple(models.init_model(tiny_config("transformer"), 0)) == (
        "token.weight",
        "query.weight",
        "key.weight",
        "value.weight",
        "output.weight",
    )


# ---------------------------------------------------------------------------
# shape arithmetic


def test_conv_length_reference_geometry():
    # 695 genes, kernel 3 / stride 1 / padding 1, pool 2 / stride 2, two layers
    cfg = models.ModelConfig("cnn", input_dim=695)
    assert models.conv_output_length(cfg) == 173
    params = models.init_model(cfg, 0)
    assert params["output.weight"].shape == (1, 32 * 173)


def test_token_chunking_pads_last_token():
    cfg = models.ModelConfig("transformer", input_dim=10, tokens=4, embed_dim=4)
    assert models.token_chunk(cfg) == 3  # 4 tokens x 3 features, 2 zeros of pad
    params = models.init_model(cfg, 0)
    assert params["token.weight"].shape == (4, 3)


# ---------------------------------------------------------------------------
# forward oracles


def test_mlp_forward_matches_numpy():
    cfg = models.ModelConfig("mlp", input_dim=3, hidden_dims=(4,))
    params = models.init_model(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    got = models.predict(params, cfg, x)
    h = np_leaky(x @ params["hidden.0.weight"].T + params["hidden.0.bias"])
    want = np_sigmoid(h @ params["output.weight"].T)[:, 0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_cnn_forward_matches_numpy():
    cfg = models.ModelConfig("cnn", input_dim=6, channels=2)
    params = models.init_model(cfg, seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 6))
    got = models.predict(params, cfg, x)

    def conv(h, w):  # h: [n, c_in, L], w: [c_out, c_in, 3], stride 1, pad 1
        hp = np.pad(h, ((0, 0), (0, 0), (1, 1)))
        n, _, L = h.shape
        out = np.zeros((n, w.shape[0], L))
        for j in range(L):
            out[:, :, j] = np.einsum("nck,ock->no", hp[:, :, j : j + 3], w)
        return out

    def pool(h):
        windows = np.lib.stride_tricks.sliding_window_view(h, 2, axis=2)[:, :, ::2]
        return windows.max(axis=3)

    h = x[:, None, :]
    for i in range(2):
        h = pool(np_leaky(conv(h, params[f"conv.{i}.weight"])))
    flat = h.reshape(3, -1)
    want = np_sigmoid(flat @ params["output.weight"].T)[:, 0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_transformer_single_token_collapses_attention():
    # with one token the softmax weight is exactly 1, so attention passes V through
    cfg = models.ModelConfig("transformer", input_dim=5, tokens=1, embed_dim=3)
    params = models.init_model(cfg, seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 5))
    got = models.predict(params, cfg, x)
    emb = x @ params["token.weight"].T
    v = emb @ params["value.weight"].T
    want = np_sigmoid(v @ params["output.weight"].T)[:, 0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_transformer_forward_matches_numpy():
    cfg = tiny_config("transformer")
    params = models.init_model(cfg, seed=7)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 8))
    got = models.predict(params, cfg, x)
    tokens = x.reshape(3, 2, 4)
    emb = tokens @ params["token.weight"].T
    q = emb @ params["query.weight"].T
    k = emb @ params["key.weight"].T
    v = emb @ params["value.weight"].T
    scores = q @ np.swapaxes(k, 1, 2) / 2.0
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = (ex / ex.sum(axis=-1, keepdims=True)) @ v
    want = np_sigmoid(att.mean(axis=1) @ params["output.weight"].T)[:, 0]
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_forward_outputs_strict_probabilities(arch):
    cfg = tiny_config(arch)
    params = models.init_model(cfg, seed=9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((7, cfg.input_dim)) * 100.0  # drive the head to saturation
    p = models.predict(params, cfg, x)
    assert p.shape == (7,)
    assert np.all(p > 0.0) and np.all(p < 1.0)


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_forward_rejects_wrong_width(arch):
    cfg = tiny_config(arch)
    params = models.init_model(cfg, seed=0)
    with pytest.raises(DimensionError):
        models.predict(params, cfg, np.ones((2, cfg.input_dim + 1)))


def test_forward_rejects_wrong_parameter_set():
    mlp = models.init_model(tiny_config("mlp"), 0)
    cnn_cfg = tiny_config("cnn")
    with pytest.raises(ValueError, match="conv.0.weight"):
        models.predict(mlp, cnn_cfg, np.ones((2, cnn_cfg.input_dim)))


@pytest.mark.parametrize("arch,want", [("mlp", 3), ("cnn", 4), ("transformer", 10)])
def test_forward_calls_autodiff_only_on_parameters_and_activations(monkeypatch, arch, want):
    # the batch is a constant shaped with numpy (the transformer's pad and
    # token reshape, the CNN's channel axis), so no op is spent on it
    cfg = models.ModelConfig(arch, input_dim=50)
    params = models.init_model(cfg, seed=0)
    x = np.random.default_rng(1).standard_normal((3, 50))
    calls = []
    for name in ad.__all__:
        if name not in ("Tensor", "Tape"):
            op = getattr(ad, name)
            monkeypatch.setattr(ad, name, lambda *a, _op=op, **k: calls.append(1) or _op(*a, **k))
    tape = ad.Tape()
    leaves = {n: tape.watch(a) for n, a in params.items()}
    out = models.forward(leaves, cfg, ad.Tensor(x))
    assert out.node is not None
    assert len(calls) == want
    with pytest.raises(ValueError, match="batch must be a constant"):
        models.forward(leaves, cfg, tape.watch(x))


# ---------------------------------------------------------------------------
# gradients through full models


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_model_loss_gradients_match_finite_differences(arch):
    cfg = tiny_config(arch)
    params = models.init_model(cfg, seed=11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, cfg.input_dim))
    y = (rng.random(4) < 0.5).astype(np.float64)

    tape = ad.Tape()
    leaves = {n: tape.watch(a) for n, a in params.items()}
    loss = ad.bce_loss(models.forward(leaves, cfg, ad.Tensor(x)), ad.Tensor(y))
    grads = ad.backward(loss)

    for name in params:
        def loss_at(arr, _name=name):
            trial = {n: (arr if n == _name else params[n]) for n in params}
            out = models.forward(
                {n: ad.Tensor(a) for n, a in trial.items()}, cfg, ad.Tensor(x)
            )
            return ad.bce_loss(out, ad.Tensor(y)).item()

        got = grads[leaves[name].node]
        want = numeric_grad(loss_at, params[name].copy())
        assert max_rel_err(got, want) < GRAD_TOL, name


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_checkpoint_round_trip_exact(tmp_path, arch):
    cfg = tiny_config(arch)
    params = models.init_model(cfg, seed=13)
    path = tmp_path / "model.json"
    models.save_checkpoint(path, params, cfg)
    loaded, loaded_cfg = models.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert tuple(loaded) == tuple(params)
    for name, arr in params.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_checkpoint_with_the_old_attention_layers_key_still_loads(tmp_path):
    # checkpoints of older releases record "attention_layers": 1
    cfg = tiny_config("transformer")
    params = models.init_model(cfg, seed=13)
    path = tmp_path / "model.json"
    models.save_checkpoint(path, params, cfg)
    doc = json.loads(path.read_text())
    doc["config"]["attention_layers"] = 1
    path.write_text(json.dumps(doc, sort_keys=True))
    loaded, loaded_cfg = models.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert tuple(loaded) == tuple(params)
    for name, arr in params.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = tiny_config("mlp")
    params = models.init_model(cfg, seed=14)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    models.save_checkpoint(p1, params, cfg)
    models.save_checkpoint(p2, params, cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    cfg = tiny_config("mlp")
    params = models.init_model(cfg, seed=0)
    path = tmp_path / "model.json"
    models.save_checkpoint(path, params, cfg)
    doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(doc)
    with pytest.raises(CheckpointError, match="version"):
        models.load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json at all")
    with pytest.raises(CheckpointError):
        models.load_checkpoint(path)
    with pytest.raises(CheckpointError):
        models.load_checkpoint(tmp_path / "missing.json")


@pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
def test_checkpoint_rejects_json_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(CheckpointError, match="JSON object"):
        models.load_checkpoint(path)


def _set_param(doc, name, arr):
    doc["params"][name] = {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }
    if name not in doc["param_order"]:
        doc["param_order"].append(name)


def _poke_param(doc, name, value):
    entry = doc["params"][name]
    arr = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
    arr[0] = value
    _set_param(doc, name, arr.reshape(entry["shape"]))


def _drop_param(doc, name):
    del doc["params"][name]
    doc["param_order"].remove(name)


BAD_PARAMS = {
    # a (1,) bias broadcasts in forward_mlp and used to load as a wrong model
    "broadcastable_bias": (lambda d: _set_param(d, "hidden.0.bias", np.zeros(1)), "shape"),
    "transposed_weight": (
        lambda d: _set_param(d, "hidden.0.weight", np.zeros((12, 8))), "shape"
    ),
    "missing": (lambda d: _drop_param(d, "output.weight"), "output.weight"),
    "extra": (lambda d: _set_param(d, "hidden.9.bias", np.zeros(3)), "hidden.9.bias"),
    # checked from the config alone, without allocating the model it describes
    "huge_input_dim": (lambda d: d["config"].update(input_dim=10**12), "shape"),
    "nan_weight": (lambda d: _poke_param(d, "output.weight", np.nan), "'output.weight'.*finite"),
    "inf_bias": (lambda d: _poke_param(d, "hidden.1.bias", -np.inf), "'hidden.1.bias'.*finite"),
    "attention_layers_2": (lambda d: d["config"].update(attention_layers=2), "attention layer"),
    "data_null": (lambda d: d["params"]["output.weight"].update(data=None), "malformed"),
    "data_number": (lambda d: d["params"]["output.weight"].update(data=5), "malformed"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_checkpoint_rejects_params_that_do_not_match_config(tmp_path, case):
    cfg = models.ModelConfig("mlp", input_dim=12, hidden_dims=(8, 4))
    path = tmp_path / "model.json"
    models.save_checkpoint(path, models.init_model(cfg, seed=0), cfg)
    edit, message = BAD_PARAMS[case]
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=message):
        models.load_checkpoint(path)
