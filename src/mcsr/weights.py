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

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptFileError, MissingWeightsError
from .pyramid import num_levels_for
from .swin import STL_PARAM_SHAPES

MAGIC = b"MCSRW"
VERSION = 1
INIT_SCALE = 0.02
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1

BRANCHES = ("tar_lr", "ref_lr", "ref")


class WeightStore:
    """Ordered map from dotted parameter name to a float32 tensor."""

    def __init__(self):
        self._tensors = {}
        self._reference_memo = None  # run_forward's (key, reference features)

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

    def get(self, name):
        return self._tensors[name]

    def fetch(self, name):
        """Parameter as float64 for computation; missing names raise."""
        if name not in self._tensors:
            raise MissingWeightsError([name])
        return self._tensors[name].astype(np.float64)

    def require(self, names):
        missing = [name for name in names if name not in self._tensors]
        if missing:
            raise MissingWeightsError(missing)


def save_weights(store, path):
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(store))]
    for name in store.names():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ConfigError(f"tensor name too long: {name!r}")
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
        elements = int(np.prod(dims, dtype=np.int64)) if dims else 1
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


def _jump_tables(block):
    """``(A_k, C_k)`` for k = 1..block, with ``x_{n+k} = A_k x_n + C_k``
    (mod 2**64); numpy's uint64 arithmetic wraps exactly as the recurrence
    does."""
    multipliers = np.cumprod(np.full(block, LCG_MULTIPLIER, dtype=np.uint64))
    powers = np.concatenate(([np.uint64(1)], multipliers[:-1]))
    increments = np.cumsum(powers) * np.uint64(LCG_INCREMENT)
    return multipliers, increments


_JUMP_BLOCK = 4096
_JUMP_A, _JUMP_C = _jump_tables(_JUMP_BLOCK)


class Lcg64:
    """The package's portable RNG: 64-bit LCG, outputs the high 32 bits."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def next_u32(self):
        self.state = (self.state * LCG_MULTIPLIER + LCG_INCREMENT) & _MASK64
        return self.state >> 32

    def uniform(self, shape, low=-INIT_SCALE, high=INIT_SCALE):
        """The next ``prod(shape)`` draws of :meth:`next_u32`, mapped to
        ``low + span * u32``; whole blocks of states are advanced at once
        from the jump-ahead tables."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        span = (high - low) / 4294967296.0
        draws = np.empty(count, dtype=np.uint64)
        state = np.array(self.state, dtype=np.uint64)
        for start in range(0, count, _JUMP_BLOCK):
            n = min(_JUMP_BLOCK, count - start)
            states = _JUMP_A[:n] * state + _JUMP_C[:n]
            draws[start : start + n] = states >> np.uint64(32)
            state = states[-1]
        self.state = int(state)
        return (low + span * draws.astype(np.float64)).reshape(shape)


def _rstb_parameter_names(prefix, stg_cfg):
    for j in range(stg_cfg.stl_per_rstb):
        stl_cfg = stg_cfg.stl_config(j)
        for suffix, shape_of in STL_PARAM_SHAPES:
            yield f"{prefix}.stl{j}.{suffix}", shape_of(stl_cfg)
    yield f"{prefix}.conv.weight", (stg_cfg.embed_dim, stg_cfg.embed_dim, 3, 3)
    yield f"{prefix}.conv.bias", (stg_cfg.embed_dim,)


def _stg_parameter_names(prefix, stg_cfg):
    for i in range(stg_cfg.num_rstb):
        yield from _rstb_parameter_names(f"{prefix}.rstb{i}", stg_cfg)
    yield f"{prefix}.conv.weight", (stg_cfg.embed_dim, stg_cfg.embed_dim, 3, 3)
    yield f"{prefix}.conv.bias", (stg_cfg.embed_dim,)


def parameter_inventory(cfg):
    """Every (name, shape) the forward pass reads, in a fixed order."""
    channels = cfg.channels
    levels = num_levels_for(cfg.uf)
    names = []
    for branch in BRANCHES:
        names.append((f"shallow.{branch}.weight", (channels, 1, 3, 3)))
        names.append((f"shallow.{branch}.bias", (channels,)))
    for branch in BRANCHES:  # after every shallow conv: the order fixes the seeded draws
        names.extend(_stg_parameter_names(f"stg.{branch}", cfg.stg))
    for level in range(levels - 1, 0, -1):
        names.append((f"pyramid.down{level}.weight", (channels, channels, 3, 3)))
        names.append((f"pyramid.down{level}.bias", (channels,)))
    for level in range(1, levels + 1):
        if level > 1:
            names.append((f"mab{level}.sab.up.weight", (channels, channels, 3, 3)))
            names.append((f"mab{level}.sab.up.bias", (channels,)))
        for kind in ("alpha", "beta"):
            names.append((f"mab{level}.sab.{kind}.weight", (channels, 2 * channels, 3, 3)))
            names.append((f"mab{level}.sab.{kind}.bias", (channels,)))
        for kind in ("down", "ta", "tb"):
            names.append((f"mab{level}.jrfab.{kind}.weight", (channels, channels, 3, 3)))
            names.append((f"mab{level}.jrfab.{kind}.bias", (channels,)))
        names.append((f"mab{level}.jrfab.fuse.weight", (channels, 2 * channels, 3, 3)))
        names.append((f"mab{level}.jrfab.fuse.bias", (channels,)))
    names.append(("head.weight", (1, channels, 3, 3)))
    names.append(("head.bias", (1,)))
    return names


def init_random_weights(cfg, seed=None):
    """Seeded store covering the full inventory, uniform in [-0.02, 0.02]."""
    rng = Lcg64(cfg.seed if seed is None else seed)
    store = WeightStore()
    for name, shape in parameter_inventory(cfg):
        store.set(name, rng.uniform(shape))
    return store
