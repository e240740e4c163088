"""JSON on disk: the one-line header that starts a checkpoint or a `.melspec`
dump, and the layout of every JSON report (`write_json`)."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path


def write_json(path, obj) -> None:
    """Write obj as a JSON report: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_file(path, header: dict, blob) -> None:
    """Write `header` as one line of sorted-key JSON, then the buffers of
    `blob` (an iterable of bytes-like objects, e.g. contiguous arrays) back
    to back, each straight from its memory."""
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.writelines(blob)


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
