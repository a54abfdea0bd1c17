"""MCIMG image file format.

Layout: magic ``b"MCIMG"`` (5 bytes), version u8, height u32 LE, width u32
LE, then ``height * width`` float32 LE pixels, row-major. Pixels are clamped
to [0, 1] when written; in-memory images are left unclamped.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import CorruptFileError
from .tensor_ops import _as_image

MAGIC = b"MCIMG"
VERSION = 1
_HEADER = struct.Struct("<5sBII")


def write_image(path, image):
    image = _as_image(image)
    h, w = image.shape
    payload = np.clip(image, 0.0, 1.0).astype("<f4").tobytes()
    Path(path).write_bytes(_HEADER.pack(MAGIC, VERSION, h, w) + payload)


def read_image(path):
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CorruptFileError("truncated image file while reading header", len(data))
    magic, version, h, w = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptFileError("bad magic, not an image file", 0)
    if version != VERSION:
        raise CorruptFileError(f"unsupported image file version {version}", 5)
    expected = _HEADER.size + 4 * h * w
    if len(data) != expected:
        raise CorruptFileError(
            f"image payload has {len(data) - _HEADER.size} bytes, expected {4 * h * w}",
            min(len(data), expected),
        )
    pixels = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(pixels)):
        raise CorruptFileError("image payload contains non-finite values", _HEADER.size)
    return np.clip(pixels.reshape(h, w), 0.0, 1.0)
