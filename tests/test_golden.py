"""Every artifact of the fixed CLI runs in tools/golden.py keeps the bytes
recorded in tests/golden.json (on the numpy and BLAS stack recorded there)."""

import json
from pathlib import Path

import pytest

from helpers import load_tool


@pytest.fixture(scope="module")
def golden():
    return load_tool(Path(__file__).resolve().parents[1] / "tools" / "golden.py")


def test_artifacts_keep_their_committed_digests(golden):
    """A change that means to alter bytes regenerates the file with
    `python3 tools/golden.py --write` and says which digests moved and why."""
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    if want["stack"] != golden.stack():
        pytest.skip(f"digests were taken on {want['stack']}; this stack is {golden.stack()}")
    assert golden.compare(want, golden.digests()) == []


def test_compare_names_missing_new_and_changed_artifacts(golden):
    want = {"digests": {"a": "1", "b": "2", "c": "3"}}
    assert golden.compare(want, {"a": "1", "b": "9", "d": "4"}) == ["missing: c", "new: d", "changed: b"]
    assert golden.compare(want, dict(want["digests"])) == []
