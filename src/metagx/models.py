"""Differentiable classifiers over expression profiles, plus checkpoints.

Three architectures share one interface: a named parameter set, a forward
function mapping an [n, d] batch to per-sample probabilities, and a common
initializer. Every dense layer is one ``autodiff.linear`` op, and every model
ends in ``autodiff.sigmoid_head``, a sigmoid clipped to [1e-7, 1 - 1e-7], so
downstream losses and attributions always see probabilities strictly inside
(0, 1).

Parameter draw order equals the canonical name order below, so a seed fully
determines every weight:

- mlp:          hidden.0.weight, hidden.0.bias, ..., output.weight
- cnn:          conv.0.weight, conv.1.weight, ..., output.weight
- transformer:  token.weight, query.weight, key.weight, value.weight,
                output.weight
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, DimensionError

Array = np.ndarray

ARCHITECTURES = ("mlp", "cnn", "transformer")

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; ``input_dim`` is the selected gene count."""

    architecture: str
    input_dim: int
    hidden_dims: tuple[int, ...] = (128, 64)
    channels: int = 32
    kernel_size: int = 3
    conv_stride: int = 1
    conv_padding: int = 1
    pool_size: int = 2
    pool_stride: int = 2
    conv_layers: int = 2
    embed_dim: int = 32
    tokens: int = 16
    attention_layers: int = 1
    leaky_slope: float = 0.01

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}"
            )
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        positive = {
            "input_dim": self.input_dim,
            "channels": self.channels,
            "kernel_size": self.kernel_size,
            "conv_stride": self.conv_stride,
            "pool_size": self.pool_size,
            "pool_stride": self.pool_stride,
            "conv_layers": self.conv_layers,
            "embed_dim": self.embed_dim,
            "tokens": self.tokens,
        }
        for name, value in positive.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.conv_padding < 0:
            raise ValueError(f"conv_padding must be >= 0, got {self.conv_padding}")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.attention_layers != 1:
            raise ValueError("only a single self-attention layer is supported")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky_slope must be in (0, 1), got {self.leaky_slope}")
        if self.architecture == "cnn":
            # run the shape arithmetic now so bad configs fail before training
            conv_output_length(self)
        if self.architecture == "transformer":
            if self.tokens > self.input_dim:
                raise ValueError(
                    f"tokens={self.tokens} exceeds input_dim={self.input_dim}"
                )


class ModelParams:
    """Ordered, named float64 parameter arrays for one model instance."""

    __slots__ = ("_arrays",)

    def __init__(self, arrays: Mapping[str, Array]):
        self._arrays = {
            name: np.asarray(value, dtype=np.float64) for name, value in arrays.items()
        }

    def names(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def __getitem__(self, name: str) -> Array:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def items(self) -> Iterator[tuple[str, Array]]:
        return iter(self._arrays.items())

    def copy(self) -> "ModelParams":
        return ModelParams({n: a.copy() for n, a in self._arrays.items()})

    def bind(self, tape: ad.Tape) -> dict[str, Tensor]:
        """Watch every array on ``tape``; returns name -> leaf tensor."""
        return {name: tape.watch(arr) for name, arr in self._arrays.items()}

    def constants(self) -> dict[str, Tensor]:
        """Tape-free tensors for pure inference."""
        return {name: Tensor(arr) for name, arr in self._arrays.items()}

    def __repr__(self) -> str:
        scalars = sum(a.size for a in self._arrays.values())
        return f"ModelParams({len(self._arrays)} arrays, {scalars} scalars)"


# ---------------------------------------------------------------------------
# shape bookkeeping


def _pooled_length(length: int, size: int, stride: int) -> int:
    return (length - size) // stride + 1


def conv_output_length(config: ModelConfig) -> int:
    """Sequence length surviving all conv/pool stages (the flatten width is
    ``channels * conv_output_length``)."""
    length = config.input_dim
    for layer in range(config.conv_layers):
        conv_len = (length + 2 * config.conv_padding - config.kernel_size) // config.conv_stride + 1
        if conv_len < 1:
            raise ValueError(
                f"conv layer {layer} consumes the sequence: length {length} with "
                f"kernel {config.kernel_size}, stride {config.conv_stride}, "
                f"padding {config.conv_padding}"
            )
        length = _pooled_length(conv_len, config.pool_size, config.pool_stride)
        if length < 1:
            raise ValueError(
                f"pool after conv layer {layer} consumes the sequence "
                f"(length {conv_len}, pool {config.pool_size}/{config.pool_stride})"
            )
    return length


def token_chunk(config: ModelConfig) -> int:
    """Features per token; the last token is zero-padded when it divides unevenly."""
    return math.ceil(config.input_dim / config.tokens)


# ---------------------------------------------------------------------------
# initialization


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Array:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in canonical name order."""
    shapes: dict[str, tuple[int, ...]] = {}
    if config.architecture == "mlp":
        fan_in = config.input_dim
        for i, width in enumerate(config.hidden_dims):
            shapes[f"hidden.{i}.weight"] = (width, fan_in)
            shapes[f"hidden.{i}.bias"] = (width,)
            fan_in = width
        shapes["output.weight"] = (1, fan_in)
    elif config.architecture == "cnn":
        c = config.channels
        in_ch = 1
        for i in range(config.conv_layers):
            shapes[f"conv.{i}.weight"] = (c, in_ch, config.kernel_size)
            in_ch = c
        shapes["output.weight"] = (1, c * conv_output_length(config))
    else:
        d = config.embed_dim
        shapes["token.weight"] = (d, token_chunk(config))
        for name in ("query.weight", "key.weight", "value.weight"):
            shapes[name] = (d, d)
        shapes["output.weight"] = (1, d)
    return shapes


def init_model(config: ModelConfig, seed: int) -> ModelParams:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero.

    A weight's fan-in is the product of its shape after the first axis.
    Arrays are drawn in canonical name order, so equal (config, seed) pairs
    produce bitwise-equal parameters.
    """
    rng = np.random.default_rng(seed)
    arrays: dict[str, Array] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".bias"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = _uniform(rng, shape, math.prod(shape[1:]))
    return ModelParams(arrays)


# ---------------------------------------------------------------------------
# forward passes


def _check_batch(config: ModelConfig, batch: Tensor) -> None:
    if batch.data.ndim != 2:
        raise DimensionError(f"batch must be [n, features], got shape {batch.data.shape}")
    if batch.data.shape[1] != config.input_dim:
        raise DimensionError(
            f"batch has {batch.data.shape[1]} features, model expects {config.input_dim}"
        )


def _require(tensors: Mapping[str, Tensor], name: str) -> Tensor:
    if name not in tensors:
        raise ValueError(f"parameter set lacks {name!r}; wrong architecture?")
    return tensors[name]


def forward_mlp(tensors: Mapping[str, Tensor], config: ModelConfig, batch: Tensor) -> Tensor:
    """Fully connected stack: affine + leaky-relu per hidden layer, sigmoid head."""
    _check_batch(config, batch)
    w = _require(tensors, "hidden.0.weight")
    b = _require(tensors, "hidden.0.bias")
    return forward_mlp_tail(tensors, config, ad.linear(batch, w, b))


def forward_mlp_tail(
    tensors: Mapping[str, Tensor], config: ModelConfig, pre: Tensor
) -> Tensor:
    """The MLP after its first affine layer: from the [n, hidden_dims[0]]
    pre-activations through leaky-relu, hidden layers 1.. and the head."""
    h = ad.leaky_relu(pre, config.leaky_slope)
    for i in range(1, len(config.hidden_dims)):
        w = _require(tensors, f"hidden.{i}.weight")
        b = _require(tensors, f"hidden.{i}.bias")
        h = ad.leaky_relu(ad.linear(h, w, b), config.leaky_slope)
    return ad.sigmoid_head(h, _require(tensors, "output.weight"))


def forward_cnn(tensors: Mapping[str, Tensor], config: ModelConfig, batch: Tensor) -> Tensor:
    """Single-channel 1-D conv stack: (conv, leaky-relu, max-pool) per layer,
    flatten, sigmoid head. Conv layers carry no bias."""
    _check_batch(config, batch)
    n = batch.data.shape[0]
    h = ad.reshape(batch, (n, 1, config.input_dim))
    for i in range(config.conv_layers):
        w = _require(tensors, f"conv.{i}.weight")
        h = ad.conv1d(h, w, stride=config.conv_stride, padding=config.conv_padding)
        h = ad.leaky_relu(h, config.leaky_slope)
        h = ad.max_pool1d(h, config.pool_size, config.pool_stride)
    flat = config.channels * conv_output_length(config)
    h = ad.reshape(h, (n, flat))
    return ad.sigmoid_head(h, _require(tensors, "output.weight"))


def forward_transformer(
    tensors: Mapping[str, Tensor], config: ModelConfig, batch: Tensor
) -> Tensor:
    """Chunk the profile into tokens, embed, one self-attention layer,
    mean-pool over tokens, sigmoid head."""
    _check_batch(config, batch)
    n = batch.data.shape[0]
    chunk = token_chunk(config)
    pad = config.tokens * chunk - config.input_dim
    h = ad.pad_last(batch, pad) if pad else batch
    tokens = ad.reshape(h, (n, config.tokens, chunk))
    emb = ad.linear(tokens, _require(tensors, "token.weight"))
    q = ad.linear(emb, _require(tensors, "query.weight"))
    k = ad.linear(emb, _require(tensors, "key.weight"))
    v = ad.linear(emb, _require(tensors, "value.weight"))
    scores = ad.mul(ad.linear(q, k), 1.0 / math.sqrt(config.embed_dim))
    att = ad.matmul(ad.softmax(scores, axis=-1), v)
    pooled = ad.mean(att, axis=1)
    return ad.sigmoid_head(pooled, _require(tensors, "output.weight"))


_FORWARDS = {
    "mlp": forward_mlp,
    "cnn": forward_cnn,
    "transformer": forward_transformer,
}


def forward(tensors: Mapping[str, Tensor], config: ModelConfig, batch: Tensor) -> Tensor:
    """Dispatch to the configured architecture; output is an [n] probability tensor."""
    return _FORWARDS[config.architecture](tensors, config, batch)


def predict(params: ModelParams, config: ModelConfig, batch: Array) -> Array:
    """Tape-free inference: probabilities for an [n, d] matrix.

    Stacked MLP parameters (a leading [Λ] axis, as ``train_meta_stacked``
    returns them) give [Λ, n], each row bitwise equal to predicting with
    that slice alone.
    """
    out = forward(params.constants(), config, Tensor(np.asarray(batch, dtype=np.float64)))
    return out.data


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: Path | str, params: ModelParams, config: ModelConfig) -> None:
    """Serialize config + parameters to JSON with base64 float64 payloads.

    The encoding is fully value-preserving and byte-deterministic: arrays are
    dumped as little-endian float64 buffers and keys are sorted.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "params": {
            name: {
                "shape": list(arr.shape),
                "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
            }
            for name, arr in params.items()
        },
        "param_order": list(params.names()),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: Path | str) -> tuple[ModelParams, ModelConfig]:
    """Inverse of save_checkpoint; rejects unknown versions and malformed files."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} does not hold a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported format version {doc.get('format_version')!r}"
        )
    try:
        raw = doc["config"]
        raw["hidden_dims"] = tuple(raw["hidden_dims"])
        config = ModelConfig(**raw)
        arrays = {}
        for name in doc["param_order"]:
            entry = doc["params"][name]
            buf = base64.b64decode(entry["data"].encode("ascii"))
            arrays[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(
                entry["shape"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is malformed: {exc}") from None
    expected = param_shapes(config)
    missing = sorted(expected.keys() - arrays.keys())
    extra = sorted(arrays.keys() - expected.keys())
    if missing or extra:
        raise CheckpointError(
            f"checkpoint {path} parameters do not match its config: "
            f"missing {missing}, unexpected {extra}"
        )
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise CheckpointError(
                f"checkpoint {path} parameter {name!r} has shape {arr.shape}, "
                f"the config needs {expected[name]}"
            )
    return ModelParams(arrays), config
