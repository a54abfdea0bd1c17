"""Named tensor store, its binary serialization, and reproducible random
initialization.

Weight file layout (all integers little-endian):

    magic   5 bytes  b"MCSRW"
    version u32
    count   u32
    then per tensor:
        name length u16, UTF-8 name
        ndim u8, dims u32 each
        float32 payload, row-major

Random initialization draws zero-mean uniforms in [-0.02, 0.02] from a
seeded 64-bit linear congruential generator (high 32 bits of
``x <- 6364136223846793005 * x + 1442695040888963407``), so stores are
byte-reproducible across platforms.
"""

import math
import struct
from functools import cache
from pathlib import Path

import numpy as np

from .aggregation import load_jrfab_params, load_sab_params
from .errors import CorruptFileError, InputError, MissingWeightsError
from .swin import load_stg_params
from .tensor_ops import ConvSpec

MAGIC = b"MCSRW"
VERSION = 1
INIT_SCALE = 0.02
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407

BRANCHES = ("tar_lr", "ref_lr", "ref")


class WeightStore:
    """Ordered map from dotted parameter name to a float32 tensor."""

    def __init__(self):
        self._tensors = {}
        self._reference_memo = None  # pipeline.py's (key, f_ref_lr, pyramid or None)

    def __len__(self):
        return len(self._tensors)

    def __contains__(self, name):
        return name in self._tensors

    def names(self):
        return list(self._tensors)

    def set(self, name, array):
        """Store a read-only float32 copy; drops the reference memo."""
        tensor = np.array(array, dtype=np.float32, order="C")
        tensor.flags.writeable = False
        self._tensors[name] = tensor
        self._reference_memo = None

    def get(self, name, shape=None):
        """The stored tensor; one whose shape is not ``shape``, if given, raises."""
        tensor = self._tensors[name]
        if shape is not None and tensor.shape != shape:
            raise InputError(f"weight {name} has shape {tensor.shape}, expected {shape}")
        return tensor

    def fetch(self, name, shape=None):
        """Parameter as float64 for computation; missing names and wrong shapes raise."""
        if name not in self._tensors:
            raise MissingWeightsError([name])
        return self.get(name, shape).astype(np.float64)


class _InventoryRecorder:
    """Stands in for a store while the loaders run: records each ``(name, shape)``
    fetched and returns one zero-stride view per shape, so nothing allocates."""

    def __init__(self):
        self.inventory = []
        self._view = cache(lambda shape: np.broadcast_to(0.0, shape))

    def fetch(self, name, shape):
        self.inventory.append((name, shape))
        return self._view(shape)


def save_weights(store, path):
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(store))]
    for name in store.names():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise InputError(f"tensor name too long: {name!r}")
        tensor = store.get(name)
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", tensor.ndim))
        chunks.extend(struct.pack("<I", dim) for dim in tensor.shape)
        chunks.append(tensor.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_weights(path):
    data = Path(path).read_bytes()
    offset = 0

    def take(count, what):
        nonlocal offset
        if offset + count > len(data):
            raise CorruptFileError(f"truncated weight file while reading {what}", offset)
        chunk = data[offset : offset + count]
        offset += count
        return chunk

    if take(5, "magic") != MAGIC:
        raise CorruptFileError("bad magic, not a weight file", 0)
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise CorruptFileError(f"unsupported weight file version {version}", 5)
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    store = WeightStore()
    for _ in range(count):
        entry_offset = offset
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptFileError("tensor name is not valid UTF-8", entry_offset) from None
        (ndim,) = struct.unpack("<B", take(1, f"ndim of '{name}'"))
        dims = [
            struct.unpack("<I", take(4, f"dim {d} of '{name}'"))[0] for d in range(ndim)
        ]
        elements = math.prod(dims)
        payload = take(4 * elements, f"payload of '{name}'")
        if name in store:
            raise CorruptFileError(f"duplicate tensor '{name}'", entry_offset)
        tensor = np.frombuffer(payload, dtype="<f4").reshape(dims)
        if not np.all(np.isfinite(tensor)):
            raise CorruptFileError(f"tensor '{name}' contains non-finite values", entry_offset)
        store.set(name, tensor)
    if offset != len(data):
        raise CorruptFileError("trailing bytes after final tensor", offset)
    return store


def _jump_tables(count):
    """``(A_k, C_k)`` for k = 1..count, with ``x_{n+k} = A_k x_n + C_k``
    (mod 2**64); numpy's uint64 arithmetic wraps exactly as the recurrence
    does."""
    multipliers = np.cumprod(np.full(count, LCG_MULTIPLIER, dtype=np.uint64))
    powers = np.concatenate(([np.uint64(1)], multipliers[:-1]))
    increments = np.cumsum(powers) * np.uint64(LCG_INCREMENT)
    return multipliers, increments


def parameter_inventory(cfg):
    """Every (name, shape) the forward pass reads, in order: what its loaders fetch."""
    c = cfg.channels
    recorder = _InventoryRecorder()
    for branch in BRANCHES:
        ConvSpec.load(recorder, f"shallow.{branch}", 1, c)
    for branch in BRANCHES:  # after every shallow conv: the order fixes the seeded draws
        load_stg_params(recorder, f"stg.{branch}", cfg.stg)
    for level in range(cfg.num_levels - 1, 0, -1):
        ConvSpec.load(recorder, f"pyramid.down{level}", c, c, stride=2)
    for level in range(1, cfg.num_levels + 1):
        load_sab_params(recorder, level, c)
        load_jrfab_params(recorder, level, c)
    ConvSpec.load(recorder, "head", c, 1)
    return recorder.inventory


def init_random_weights(cfg):
    """Seeded store covering the full inventory, uniform in [-0.02, 0.02]:
    each tensor, in inventory order, takes the next ``prod(shape)`` LCG states,
    jumped ahead from the last one, and maps each state's high 32 bits ``u32``
    to ``-INIT_SCALE + span * u32``."""
    inventory = parameter_inventory(cfg)
    jump_a, jump_c = _jump_tables(max(math.prod(shape) for _, shape in inventory))
    span = 2 * INIT_SCALE / 4294967296.0
    state = np.uint64(cfg.seed)
    store = WeightStore()
    for name, shape in inventory:
        count = math.prod(shape)
        states = jump_a[:count] * state + jump_c[:count]
        state = states[-1]
        draws = (states >> np.uint64(32)).astype(np.float64)
        store.set(name, (-INIT_SCALE + span * draws).reshape(shape))
    return store
