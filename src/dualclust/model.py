"""Shared MLP encoder with instance and cluster projection heads.

One backbone maps inputs to features H; two heads branch off it: the
instance head projects H into the contrastive embedding space, and the
cluster head produces row-stochastic soft assignments via a softmax.
Every parameter lives in one flat float64 buffer (``ModelParams.flat``);
each weight and bias is a named view into it, in the canonical order
that the checkpoint payload, the gradient list and the optimizer moments
all follow. A training step wraps the views in graph leaves
(``ModelParams.nodes``) so gradients can be read off after a backward
pass, and the optimizer updates the whole buffer at once.

Checkpoints use a small self-describing binary format: an 8-byte magic,
a length-prefixed JSON header (sorted keys), then the flat buffer as raw
float64 little-endian values. Writing the same parameters twice produces
byte-identical files, and a round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, FormatError, ShapeError

__all__ = [
    "ModelConfig",
    "ModelParams",
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
    """Every parameter in one flat float64 buffer, with named views.

    ``arrays`` maps ``encoder.i.weight``/``.bias``, then
    ``instance_head.i.*``, then ``cluster_head.i.*`` to (in, out) weight
    matrices and (1, out) bias rows; the views tile ``flat`` in that
    order. The encoder has ReLU between consecutive layers; both heads
    are two layers with ReLU after the first. The cluster head's softmax
    is applied in the forward pass, not stored here.
    """

    config: ModelConfig
    flat: np.ndarray
    arrays: dict

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """All-zero parameters in the layout ``config`` implies."""
        shapes = dict(_array_shapes(config))
        sizes = [rows * cols for rows, cols in shapes.values()]
        flat = np.zeros(sum(sizes))
        views = np.split(flat, np.cumsum(sizes)[:-1])
        arrays = {name: view.reshape(shape) for (name, shape), view in zip(shapes.items(), views)}
        return cls(config=config, flat=flat, arrays=arrays)

    def nodes(self) -> dict:
        """Graph leaves over the views, by name. They share storage with
        ``flat``, so they stay valid across in-place updates."""
        return {name: ad.lift(view) for name, view in self.arrays.items()}


def _array_shapes(config: ModelConfig):
    """(name, shape) of every parameter array the config implies, in
    canonical order: the one statement of the parameter layout."""
    hidden = config.head_hidden
    for group, dims in (
        ("encoder", (config.input_dim, *config.encoder_widths)),
        ("instance_head", (config.feature_dim, hidden, config.instance_dim)),
        ("cluster_head", (config.feature_dim, hidden, config.cluster_count)),
    ):
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            yield f"{group}.{i}.weight", (fan_in, fan_out)
            yield f"{group}.{i}.bias", (1, fan_out)


def init_params(config: ModelConfig) -> ModelParams:
    """Fresh parameters: weights ~ Normal(0, 2/fan_in), biases zero.

    Deterministic in ``config.init_seed``; weights are drawn in the
    canonical order (encoder, instance head, cluster head).
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.init_seed))
    params = ModelParams.zeros(config)
    for name, view in params.arrays.items():
        if name.endswith(".weight"):
            std = np.sqrt(WEIGHT_VARIANCE_FACTOR / view.shape[0])
            view[...] = rng.normal(0.0, std, size=view.shape)
    return params


def _layers(nodes: dict, group: str, x) -> ad.Node:
    """Apply the linear layers ``group.0``, ``group.1``, ... in turn,
    with ReLU between consecutive layers."""
    i = 0
    while f"{group}.{i}.weight" in nodes:
        if i:
            x = ad.relu(x)
        weight, bias = nodes[f"{group}.{i}.weight"], nodes[f"{group}.{i}.bias"]
        x = ad.linear(x, weight, bias)
        i += 1
    return x


def forward_graph(nodes: dict, batch):
    """Differentiable forward pass over ``ModelParams.nodes``: (features
    H, projections Z, soft assignments Y). Z is left un-normalized; the
    loss normalizes. Y rows are strictly positive and sum to 1. A batch
    passed as a node gets a gradient; a plain array is a constant."""
    h = _layers(nodes, "encoder", batch)
    z = _layers(nodes, "instance_head", h)
    y = ad.softmax_rows(_layers(nodes, "cluster_head", h))
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
    h, z, y = forward_graph(params.nodes(), x)
    return h.value, z.value, y.value


def predict_assignments(params: ModelParams, x) -> np.ndarray:
    """Hard cluster index per row: argmax over the soft assignment row,
    ties broken toward the lowest index. Inputs are used as-is (no
    augmentation at inference)."""
    _, _, y = forward(params, x)
    return np.argmax(y, axis=1)


def save_checkpoint(path, params: ModelParams) -> None:
    """Serialize config and parameters; same inputs give identical bytes."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "arrays": [
            {"name": name, "shape": list(view.shape)} for name, view in params.arrays.items()
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def _header_key(mapping, key, where):
    if not isinstance(mapping, dict):
        raise FormatError(f"checkpoint: {where} is not an object")
    if key not in mapping:
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
    except (ValueError, RecursionError) as exc:  # also an integer over the digit limit
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
    # Every entry is checked against the config's layout before the buffer
    # is allocated, so a header cannot make the loader allocate more than
    # the file holds.
    shapes = dict(_array_shapes(config))
    offsets = {}
    offset = header_end
    entries = _header_key(header, "arrays", "header")
    if not isinstance(entries, list):
        raise FormatError(f"checkpoint: header 'arrays' is not a list: {entries!r}")
    for i, entry in enumerate(entries):
        name = _header_key(entry, "name", f"array entry {i}")
        if not isinstance(name, str):
            raise FormatError(f"checkpoint: array entry {i} has a non-string name {name!r}")
        shape = _header_key(entry, "shape", f"array entry {name!r}")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise FormatError(f"checkpoint: array {name!r} has invalid shape {shape!r}")
        if name not in shapes:
            raise FormatError(f"checkpoint: array {name!r} is not part of the config's model")
        if name in offsets:
            raise FormatError(f"checkpoint: array entry {i} lists {name!r} a second time")
        if tuple(shape) != shapes[name]:
            raise FormatError(
                f"checkpoint: array {name!r} has shape {tuple(shape)}, "
                f"config implies {shapes[name]}"
            )
        nbytes = 8 * shape[0] * shape[1]
        if len(blob) < offset + nbytes:
            raise FormatError(f"checkpoint: truncated payload for {name} at offset {offset}")
        offsets[name] = offset
        offset += nbytes
    if offset != len(blob):
        raise FormatError(f"checkpoint: {len(blob) - offset} trailing bytes after payload")
    for name, shape in shapes.items():
        if name not in offsets:
            raise FormatError(
                f"checkpoint: config implies array {name!r} {shape}, header lists none"
            )
    params = ModelParams.zeros(config)
    for name, view in params.arrays.items():
        payload = np.frombuffer(blob, dtype="<f8", count=view.size, offset=offsets[name])
        view[...] = payload.reshape(view.shape)
    return params
