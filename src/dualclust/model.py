"""Shared MLP encoder with instance and cluster projection heads.

One backbone maps inputs to features H; two heads branch off it: the
instance head projects H into the contrastive embedding space, and the
cluster head produces row-stochastic soft assignments via a softmax.
Parameters live in plain arrays (``ModelParams``); each training step
wraps them in graph nodes (``ParamNodes``) so gradients can be read off
after a backward pass.

Checkpoints use a small self-describing binary format: an 8-byte magic,
a length-prefixed JSON header (sorted keys), then the raw float64
little-endian payloads in header order. Writing the same parameters
twice produces byte-identical files, and a round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, FormatError, ShapeError

__all__ = [
    "ModelConfig",
    "ModelParams",
    "ParamNodes",
    "init_params",
    "forward_graph",
    "forward",
    "predict_assignments",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"DCLCKPT1"
CHECKPOINT_VERSION = 1

# Weight scheme: zero-mean normal with variance 2 / fan_in, the standard
# choice for ReLU stacks. Biases start at zero.
WEIGHT_VARIANCE_FACTOR = 2.0


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    encoder_widths: tuple
    cluster_count: int
    instance_dim: int = 128
    head_hidden_dim: int | None = None
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "encoder_widths", tuple(int(w) for w in self.encoder_widths))
        if self.input_dim < 1:
            raise ConfigError(f"model: input_dim must be >= 1, got {self.input_dim}")
        if not self.encoder_widths:
            raise ConfigError("model: encoder_widths must list at least one layer")
        for i, w in enumerate(self.encoder_widths):
            if w < 1:
                raise ConfigError(f"model: encoder width {i} must be >= 1, got {w}")
        if self.instance_dim < 1:
            raise ConfigError(f"model: instance_dim must be >= 1, got {self.instance_dim}")
        if self.cluster_count < 2:
            raise ConfigError(f"model: cluster_count must be >= 2, got {self.cluster_count}")
        if self.head_hidden_dim is not None and self.head_hidden_dim < 1:
            raise ConfigError(
                f"model: head_hidden_dim must be >= 1, got {self.head_hidden_dim}"
            )

    @property
    def feature_dim(self) -> int:
        return self.encoder_widths[-1]

    @property
    def head_hidden(self) -> int:
        # Hidden width of both two-layer heads; defaults to the encoder
        # feature width.
        return self.feature_dim if self.head_hidden_dim is None else self.head_hidden_dim


@dataclass
class ModelParams:
    """Weights as (in, out) matrices and biases as (1, out) rows.

    ``encoder`` holds one (weight, bias) pair per layer with ReLU between
    consecutive layers; both heads are two layers with ReLU after the
    first. The cluster head's softmax is applied in the forward pass,
    not stored here.
    """

    config: ModelConfig
    encoder: list = field(default_factory=list)
    instance_head: list = field(default_factory=list)
    cluster_head: list = field(default_factory=list)

    def items(self):
        """(name, array) pairs in canonical order: checkpoint layout and
        optimizer state both follow this ordering."""
        for group, layers in (
            ("encoder", self.encoder),
            ("instance_head", self.instance_head),
            ("cluster_head", self.cluster_head),
        ):
            for i, (w, b) in enumerate(layers):
                yield f"{group}.{i}.weight", w
                yield f"{group}.{i}.bias", b


@dataclass
class ParamNodes:
    """Graph-node view of ModelParams for one differentiable step.

    Nodes share storage with the parameter arrays; gradients live on the
    nodes and are reset by each backward pass.
    """

    encoder: list
    instance_head: list
    cluster_head: list

    @classmethod
    def from_params(cls, params: ModelParams) -> "ParamNodes":
        wrap = lambda layers: [(ad.lift(w), ad.lift(b)) for w, b in layers]
        return cls(
            encoder=wrap(params.encoder),
            instance_head=wrap(params.instance_head),
            cluster_head=wrap(params.cluster_head),
        )

    def nodes(self):
        for layers in (self.encoder, self.instance_head, self.cluster_head):
            for w, b in layers:
                yield w
                yield b


def _layer_shapes(config: ModelConfig):
    dims = [config.input_dim, *config.encoder_widths]
    encoder = list(zip(dims[:-1], dims[1:]))
    hidden = config.head_hidden
    instance = [(config.feature_dim, hidden), (hidden, config.instance_dim)]
    cluster = [(config.feature_dim, hidden), (hidden, config.cluster_count)]
    return encoder, instance, cluster


def init_params(config: ModelConfig) -> ModelParams:
    """Fresh parameters: weights ~ Normal(0, 2/fan_in), biases zero.

    Deterministic in ``config.init_seed``; layers are drawn in the fixed
    canonical order (encoder, instance head, cluster head).
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.init_seed))

    def draw(shapes):
        layers = []
        for fan_in, fan_out in shapes:
            std = np.sqrt(WEIGHT_VARIANCE_FACTOR / fan_in)
            w = rng.normal(0.0, std, size=(fan_in, fan_out))
            b = np.zeros((1, fan_out))
            layers.append((w, b))
        return layers

    enc_shapes, inst_shapes, clu_shapes = _layer_shapes(config)
    return ModelParams(
        config=config,
        encoder=draw(enc_shapes),
        instance_head=draw(inst_shapes),
        cluster_head=draw(clu_shapes),
    )


def _two_layer(layers, x: ad.Node) -> ad.Node:
    (w0, b0), (w1, b1) = layers
    hidden = ad.relu(ad.add_row_vector(ad.matmul(x, w0), b0))
    return ad.add_row_vector(ad.matmul(hidden, w1), b1)


def forward_graph(param_nodes: ParamNodes, batch: ad.Node):
    """Differentiable forward pass: (features H, projections Z, soft
    assignments Y). Z is left un-normalized; the loss normalizes. Y rows
    are strictly positive and sum to 1."""
    h = batch
    last = len(param_nodes.encoder) - 1
    for i, (w, b) in enumerate(param_nodes.encoder):
        h = ad.add_row_vector(ad.matmul(h, w), b)
        if i < last:
            h = ad.relu(h)
    z = _two_layer(param_nodes.instance_head, h)
    y = ad.softmax_rows(_two_layer(param_nodes.cluster_head, h))
    return h, z, y


def _check_batch(config: ModelConfig, x) -> ad.Matrix:
    x = ad.as_matrix(x)
    if x.shape[1] != config.input_dim:
        raise ShapeError(
            f"forward: batch width {x.shape[1]} does not match input_dim {config.input_dim}"
        )
    return x


def forward(params: ModelParams, batch):
    """Non-differentiable forward: plain arrays (H, Z, Y). Row-separable:
    each output row depends only on its own input row."""
    x = _check_batch(params.config, batch)
    h, z, y = forward_graph(ParamNodes.from_params(params), ad.lift(x))
    return h.value, z.value, y.value


def predict_assignments(params: ModelParams, x) -> np.ndarray:
    """Hard cluster index per row: argmax over the soft assignment row,
    ties broken toward the lowest index. Inputs are used as-is (no
    augmentation at inference)."""
    _, _, y = forward(params, x)
    return np.argmax(y, axis=1)


def _config_to_dict(config: ModelConfig) -> dict:
    return {
        "input_dim": config.input_dim,
        "encoder_widths": list(config.encoder_widths),
        "cluster_count": config.cluster_count,
        "instance_dim": config.instance_dim,
        "head_hidden_dim": config.head_hidden_dim,
        "init_seed": config.init_seed,
    }


def save_checkpoint(path, params: ModelParams) -> None:
    """Serialize config and parameters; same inputs give identical bytes."""
    entries = []
    payload = bytearray()
    for name, array in params.items():
        arr = np.ascontiguousarray(array, dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape)})
        payload += arr.astype("<f8", copy=False).tobytes()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": _config_to_dict(params.config),
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(bytes(payload))


PARAM_GROUPS = ("encoder", "instance_head", "cluster_head")


def _array_shapes(config: ModelConfig):
    """(name, shape) of every parameter array the config implies, in
    ``ModelParams.items`` order."""
    for group, shapes in zip(PARAM_GROUPS, _layer_shapes(config)):
        for i, (fan_in, fan_out) in enumerate(shapes):
            yield f"{group}.{i}.weight", (fan_in, fan_out)
            yield f"{group}.{i}.bias", (1, fan_out)


def _header_key(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise FormatError(f"checkpoint: {where} has no {key!r} key")
    return mapping[key]


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint; round trip is bit-exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 8:
        raise FormatError(f"checkpoint: file too short ({len(blob)} bytes)")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError("checkpoint: bad magic at offset 0")
    (header_len,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
    header_start = len(CHECKPOINT_MAGIC) + 8
    header_end = header_start + header_len
    if len(blob) < header_end:
        raise FormatError(
            f"checkpoint: truncated header, need {header_end} bytes, have {len(blob)}"
        )
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"checkpoint: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise FormatError("checkpoint: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise FormatError(
            f"checkpoint: unsupported format_version {header.get('format_version')!r}"
        )
    raw = _header_key(header, "config", "header")
    values = {f.name: _header_key(raw, f.name, "header config") for f in fields(ModelConfig)}
    try:
        config = ModelConfig(**values)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint: header config is invalid ({exc})") from exc
    flat = {}
    offset = header_end
    for entry in _header_key(header, "arrays", "header"):
        name = _header_key(entry, "name", "array entry")
        shape = _header_key(entry, "shape", f"array entry {name!r}")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise FormatError(f"checkpoint: array {name!r} has invalid shape {shape!r}")
        shape = tuple(shape)
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if len(blob) < offset + nbytes:
            raise FormatError(f"checkpoint: truncated payload for {name} at offset {offset}")
        flat[name] = (
            np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += nbytes
    if offset != len(blob):
        raise FormatError(f"checkpoint: {len(blob) - offset} trailing bytes after payload")
    expected = dict(_array_shapes(config))
    for name, shape in expected.items():
        if name not in flat:
            raise FormatError(f"checkpoint: config implies array {name!r} {shape}, header lists none")
        if flat[name].shape != shape:
            raise FormatError(
                f"checkpoint: array {name!r} has shape {flat[name].shape}, "
                f"config implies {shape}"
            )
    unexpected = sorted(set(flat) - set(expected))
    if unexpected:
        raise FormatError(f"checkpoint: array {unexpected[0]!r} is not part of the config's model")
    encoder, instance_head, cluster_head = (
        [(flat[f"{group}.{i}.weight"], flat[f"{group}.{i}.bias"]) for i in range(len(shapes))]
        for group, shapes in zip(PARAM_GROUPS, _layer_shapes(config))
    )
    return ModelParams(
        config=config,
        encoder=encoder,
        instance_head=instance_head,
        cluster_head=cluster_head,
    )
