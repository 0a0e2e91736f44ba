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
float64 little-endian values. The header's ``arrays`` list must equal
the layout its config implies, in canonical order, so the payload is
read back as one buffer. Writing the same parameters twice produces
byte-identical files, and a round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest

import numpy as np

from . import autodiff as ad
from .config import ModelSection
from .errors import ConfigError, DegenerateInputError, FormatError, ShapeError
from .schema import check_value, parse_section

__all__ = [
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


@dataclass
class ModelParams:
    """Every parameter in one flat float64 buffer, with named views.

    ``config`` is the resolved model section; the input width is read
    off ``encoder.0.weight``. ``arrays`` maps ``encoder.i.weight``/``.bias``,
    then ``instance_head.i.*``, then ``cluster_head.i.*`` to (in, out)
    weight matrices and (1, out) bias rows; the views tile ``flat`` in
    that order. The encoder has ReLU between consecutive layers; both
    heads are two layers with ReLU after the first. The cluster head's
    softmax is applied in the forward pass, not stored here.
    """

    config: ModelSection
    flat: np.ndarray
    arrays: dict

    @classmethod
    def zeros(cls, section: ModelSection, input_dim: int) -> "ModelParams":
        """All-zero parameters in the layout ``section`` implies."""
        shapes = dict(_array_shapes(section, input_dim))
        sizes = [rows * cols for rows, cols in shapes.values()]
        flat = np.zeros(sum(sizes))
        views = np.split(flat, np.cumsum(sizes)[:-1])
        arrays = {name: view.reshape(shape) for (name, shape), view in zip(shapes.items(), views)}
        return cls(config=section, flat=flat, arrays=arrays)

    @property
    def input_dim(self) -> int:
        return self.arrays["encoder.0.weight"].shape[0]

    def nodes(self) -> dict:
        """Graph leaves over the views, by name. They share storage with
        ``flat``, so they stay valid across in-place updates."""
        return {name: ad.lift(view) for name, view in self.arrays.items()}


def _array_shapes(section: ModelSection, input_dim: int):
    """(name, shape) of every parameter array a resolved section implies
    for ``input_dim``-wide inputs, in canonical order: the one statement
    of the parameter layout. Both heads start at the last encoder width."""
    if None in (section.cluster_count, section.head_hidden_dim, section.init_seed):
        raise ConfigError("config: model section must be resolved before building the model")
    if input_dim < 1:
        raise ConfigError(f"config: model.input_dim: must be >= 1, got {input_dim}")
    feature, hidden = section.encoder_widths[-1], section.head_hidden_dim
    for group, dims in (
        ("encoder", (input_dim, *section.encoder_widths)),
        ("instance_head", (feature, hidden, section.instance_dim)),
        ("cluster_head", (feature, hidden, section.cluster_count)),
    ):
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            yield f"{group}.{i}.weight", (fan_in, fan_out)
            yield f"{group}.{i}.bias", (1, fan_out)


def init_params(section: ModelSection, input_dim: int) -> ModelParams:
    """Fresh parameters: weights ~ Normal(0, 2/fan_in), biases zero.

    Deterministic in ``section.init_seed``; weights are drawn in the
    canonical order (encoder, instance head, cluster head).
    """
    rng = np.random.default_rng(np.random.SeedSequence(section.init_seed))
    params = ModelParams.zeros(section, input_dim)
    for name, view in params.arrays.items():
        if name.endswith(".weight"):
            std = np.sqrt(WEIGHT_VARIANCE_FACTOR / view.shape[0])
            view[...] = rng.normal(0.0, std, size=view.shape)
    return params


def _layers(nodes: dict, group: str, x) -> ad.Node:
    """Apply the linear layers ``group.0``, ``group.1``, ... in turn,
    with ReLU between consecutive layers. Raises ``DegenerateInputError``
    naming the first layer whose output is not finite."""
    i = 0
    while f"{group}.{i}.weight" in nodes:
        if i:
            x = ad.relu(x)
        x = ad.linear(x, nodes[f"{group}.{i}.weight"], nodes[f"{group}.{i}.bias"])
        if not np.isfinite(x.value).all():
            raise DegenerateInputError(f"{group}.{i}: output is not finite")
        i += 1
    return x


def forward_graph(nodes: dict, batch):
    """Differentiable forward pass over ``ModelParams.nodes``: (features
    H, projections Z, soft assignments Y). Z is left un-normalized; the
    loss normalizes. Y rows are strictly positive and sum to 1. A batch
    passed as a node gets a gradient; a plain array is a constant.

    The first layer whose output is not finite, in the encoder or in
    either head, is named here, with numpy's warning off."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = _layers(nodes, "encoder", batch)
        z = _layers(nodes, "instance_head", h)
        y = ad.softmax_rows(_layers(nodes, "cluster_head", h))
    return h, z, y


def forward(params: ModelParams, batch):
    """Non-differentiable forward: plain arrays (H, Z, Y). Row-separable:
    each output row depends only on its own input row."""
    x = ad.as_matrix(batch)
    if x.shape[1] != params.input_dim:
        raise ShapeError(
            f"forward: batch width {x.shape[1]} does not match input_dim {params.input_dim}"
        )
    h, z, y = forward_graph(params.nodes(), x)
    return h.value, z.value, y.value


def predict_assignments(params: ModelParams, x) -> np.ndarray:
    """Hard cluster index per row: argmax over the soft assignment row,
    ties broken toward the lowest index. Inputs are used as-is (no
    augmentation at inference)."""
    _, _, y = forward(params, x)
    return np.argmax(y, axis=1)


def save_checkpoint(path, params: ModelParams) -> None:
    """Serialize the model section, the input width and the parameters;
    same inputs give identical bytes."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": {"input_dim": params.input_dim, **asdict(params.config)},
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
    """Inverse of save_checkpoint; round trip is bit-exact. The header's
    array list must be the config's layout in canonical order."""
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
    version = header.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint: unsupported format_version {version!r}")
    raw = _header_key(header, "config", "header")
    for name in ("input_dim", *(f.name for f in fields(ModelSection))):
        _header_key(raw, name, "header config")
    values = dict(raw)
    # The header config is read like a config file's model section: strict
    # types, no unknown key, the range checks. Errors name the header's key.
    try:
        input_dim = check_value(int, values.pop("input_dim"), "model.input_dim")
        section = parse_section(ModelSection, values, "model")
        shapes = list(_array_shapes(section, input_dim))
    except ConfigError as exc:
        where = str(exc).removeprefix("config: ").replace("model", "config", 1)
        raise FormatError(f"checkpoint: header {where}") from None
    # The array list must be the config's layout, entry for entry; it is
    # compared as JSON text, so 6.0 or true never passes for the dimension 6 or 1.
    entries = _header_key(header, "arrays", "header")
    if not isinstance(entries, list):
        raise FormatError(f"checkpoint: header 'arrays' is not a list: {entries!r}")
    implied = [{"name": name, "shape": list(shape)} for name, shape in shapes]
    got = [json.dumps(entry, sort_keys=True) for entry in entries]
    want = [json.dumps(entry, sort_keys=True) for entry in implied]
    for i, (text, expected) in enumerate(zip_longest(got, want, fillvalue="none")):
        if text != expected:
            raise FormatError(f"checkpoint: array entry {i} is {text}, config implies {expected}")
    # The payload size is checked before the buffer is allocated, so a
    # header cannot make the loader allocate more than the file holds.
    size, need = len(blob) - header_end, 8 * sum(rows * cols for _, (rows, cols) in shapes)
    if size != need:
        problem = "truncated" if size < need else f"{size - need} trailing bytes"
        raise FormatError(
            f"checkpoint: payload at offset {header_end} has {size} bytes, "
            f"config implies {need}: {problem}"
        )
    params = ModelParams.zeros(section, input_dim)
    params.flat[:] = np.frombuffer(blob, dtype="<f8", offset=header_end)
    return params
