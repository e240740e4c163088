"""Files on disk. A checkpoint or a `.melspec` dump is a one-line sorted-key
JSON header, then its arrays' values back to back as C-ordered little-endian
float32 (write_file, read_arrays); write_json lays out every JSON report."""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

_STORED = np.dtype("<f4")  # every stored value: little-endian float32


def write_json(path, obj) -> None:
    """Write obj as a JSON report: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_file(path, header: dict, arrays) -> None:
    """`header` as one line of sorted-key JSON, then each of `arrays` as C-ordered
    _STORED values, written straight from an array already in that layout."""
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.writelines(np.ascontiguousarray(a, dtype=_STORED) for a in arrays)


def read_arrays(f, path, shapes: dict[str, tuple[int, ...]], error: type[Exception]) -> list:
    """The arrays of `shapes` (name -> shape, in file order) after the header
    f has read; `error`, before any is allocated, unless the rest of the file
    is exactly their bytes, and on a short read or a NaN or infinity."""
    found = os.fstat(f.fileno()).st_size - f.tell()
    needed = _STORED.itemsize * sum(math.prod(shape) for shape in shapes.values())
    if found != needed:
        raise error(f"{path}: {found} value bytes after the header, not {needed}")
    arrays = [np.empty(shape, _STORED) for shape in shapes.values()]
    for name, value in zip(shapes, arrays):
        if f.readinto(value) != value.nbytes:
            raise error(f"{path}: values truncated at {name!r}")
        if not np.isfinite(value).all():
            raise error(f"{path}: non-finite value in {name!r}")
    return arrays


def read_header(f, path, error: type[Exception], keys: tuple[str, ...]) -> dict:
    """The JSON object on f's next line; `error` unless it is one with every key in `keys`."""
    try:
        header = json.loads(f.readline())
    except ValueError as e:  # also UnicodeDecodeError
        raise error(f"{path}: header is not JSON: {e}") from e
    if not isinstance(header, dict) or not set(keys) <= set(header):
        raise error(f"{path}: header is not a JSON object with {', '.join(keys)}")
    return header


def read_config(cls, config, error: type[Exception]):
    """cls(**config); `error` unless config holds exactly cls's fields, each
    of its default's type, and passes validation (which raises ValueError)."""
    types = {f.name: type(f.default) for f in fields(cls)}
    if not isinstance(config, dict) or set(config) != set(types):
        got = sorted(config) if isinstance(config, dict) else type(config).__name__
        raise error(f"config keys must be exactly {sorted(types)}, got {got}")
    bad = sorted(k for k, typ in types.items() if type(config[k]) is not typ)
    if bad:
        raise error(f"config values of the wrong type: {bad}")
    try:
        return cls(**config)
    except ValueError as e:
        raise error(f"invalid config: {e}") from e
