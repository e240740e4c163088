"""Shared label vocabulary for the six-way disfluency target.

Class order is fixed and shared by the model head, the curation pipeline,
and the evaluator: [Block, Interjection, Prolongation, SoundRep, WordRep,
NoStutteredWords].
"""

from __future__ import annotations

from collections.abc import Iterable

LABELS = ("Block", "Interjection", "Prolongation", "SoundRep", "WordRep", "NoStutteredWords")
DISFLUENT_LABELS = LABELS[:5]
NO_STUTTER = "NoStutteredWords"
N_CLASSES = len(LABELS)

_INDEX = {name: i for i, name in enumerate(LABELS)}


def label_index(name: str) -> int:
    if name not in _INDEX:
        raise KeyError(f"unknown label {name!r}; expected one of {LABELS}")
    return _INDEX[name]


def bits_from_labels(names: Iterable[str]) -> tuple[int, ...]:
    """Multi-hot encode a set of label names.

    NoStutteredWords is exclusive: it cannot co-occur with a disfluency bit.
    """
    bits = [0] * N_CLASSES
    for name in names:
        bits[label_index(name)] = 1
    if bits[_INDEX[NO_STUTTER]] and any(bits[:5]):
        raise ValueError("NoStutteredWords cannot co-occur with a disfluency label")
    return tuple(bits)

