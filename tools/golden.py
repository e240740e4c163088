"""sha256 of every artifact two fixed sets of CLI runs write, kept in
tests/golden.json, so a change that alters any artifact's bytes shows up.

    python3 tools/golden.py           # compare this tree with tests/golden.json
    python3 tools/golden.py --write   # regenerate tests/golden.json

The runs:
- the tiny criterion-6 chain (tests/helpers.curation_fixture): `featurize`
  the fixture clips, `curate` them, then `train` for 50 steps under
  UnFrz0-1 and under Frz0-0+FrzFE, each followed by `eval` at 0.3 and 0.5,
  and for 8 steps under UnFrz0-1 with post-norm layers and a ReLU FFN,
  followed by `eval` at 0.5;
- paper scale (the default config): `train` for one step on two clips under
  UnFrz0-5 and under Frz0-4+FrzFE, each followed by `eval` on one clip.

Every file they leave is digested except the inputs and `run_manifest.json`,
which records wall-clock times. They run in a child process with one BLAS
thread, because the thread count changes conv1.w's gradient bits. Digests
hold for one numpy and BLAS build only, so the file records that stack, and
a compare on another stack reports both instead of comparing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"

PAPER_CONFIG = dict(batch_size=2, max_epochs=1, max_steps=1)
TINY_SPECS = ("UnFrz0-1", "Frz0-0+FrzFE")
POST_RELU_CONFIG = dict(norm_placement="post", ffn_activation="relu", max_steps=8)
PAPER_SPECS = ("UnFrz0-5", "Frz0-4+FrzFE")
OUTPUTS = ("tiny", "paper")  # the directories digested; inputs live beside them


def stack() -> dict[str, str]:
    """The numpy version and the BLAS build numpy links, as np.show_config names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _run(argv: list[str]) -> None:
    from stutterkit.cli import main

    rc = main(argv)
    if rc:
        raise RuntimeError(f"stutterkit {' '.join(argv)} exited {rc}")


def _train_and_eval(manifests: Path, cfg: Path, spec: str, out: Path, thresholds: list[str]) -> None:
    _run(["train", str(manifests / "train" / "manifest.csv"), str(manifests / "val" / "manifest.csv"),
          str(out / "run"), "--config", str(cfg), "--freeze", spec, "--seed", "11"])
    _run(["eval", str(out / "run" / "checkpoint.bin"), str(manifests / "test" / "manifest.csv"),
          str(out / "eval"), "--config", str(cfg), "--threshold", *thresholds])


def _first_rows(src: Path, dst: Path, n: int) -> None:
    """Split dst: the first n rows of split src's manifest, with their audio."""
    from stutterkit.curation import read_split

    (dst / "audio").mkdir(parents=True)
    for row in read_split(src / "manifest.csv")[:n]:
        shutil.copy(row["path"], dst / "audio" / row["path"].name)
    lines = (src / "manifest.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (dst / "manifest.csv").write_text("".join(lines[: n + 1]), encoding="utf-8")


def run_all(root: Path) -> dict[str, str]:
    """Run both sets in this process under root; relative path -> sha256."""
    from helpers import CRITERION_6_CONFIG, curation_fixture, write_config_file

    inventory, audio_dir, groups = curation_fixture(root / "inputs")
    tiny_cfg, paper_cfg = root / "inputs" / "tiny.cfg", root / "inputs" / "paper.cfg"
    post_relu_cfg = root / "inputs" / "post_relu.cfg"
    write_config_file(tiny_cfg, **CRITERION_6_CONFIG)
    write_config_file(post_relu_cfg, **{**CRITERION_6_CONFIG, **POST_RELU_CONFIG})
    write_config_file(paper_cfg, **PAPER_CONFIG)
    tiny = root / "tiny"
    _run(["featurize", str(audio_dir), str(tiny / "features"), "--config", str(tiny_cfg)])
    _run(["curate", str(inventory), str(audio_dir), str(tiny / "curated"),
          "--plan", "SEP-28k-E-merged", "--groups", str(groups), "--seed", "11"])
    for spec in TINY_SPECS:
        _train_and_eval(tiny / "curated", tiny_cfg, spec, tiny / spec, ["0.3", "0.5"])
    _train_and_eval(tiny / "curated", post_relu_cfg, "UnFrz0-1", tiny / "UnFrz0-1-post-relu", ["0.5"])
    paper = root / "paper"
    for split, n in (("train", 2), ("val", 1), ("test", 1)):
        _first_rows(tiny / "curated" / split, paper / "splits" / split, n)
    for spec in PAPER_SPECS:
        _train_and_eval(paper / "splits", paper_cfg, spec, paper / spec, ["0.5"])
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for out in OUTPUTS for p in sorted((root / out).rglob("*"))
        if p.is_file() and p.name != "run_manifest.json"
    }


def digests() -> dict[str, str]:
    """run_all in a child process with one BLAS thread, in a temporary directory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, __file__, "--child", tmp], env=env,
                              capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare(want: dict, got: dict[str, str]) -> list[str]:
    """One line per artifact that is missing, new, or has other bytes."""
    digests_want = want["digests"]
    return (
        [f"missing: {p}" for p in sorted(set(digests_want) - set(got))]
        + [f"new: {p}" for p in sorted(set(got) - set(digests_want))]
        + [f"changed: {p}" for p in sorted(set(got) & set(digests_want)) if got[p] != digests_want[p]]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_all(Path(args.child))))
        return 0
    if args.write:
        GOLDEN.write_text(json.dumps({"stack": stack(), "digests": digests()}, indent=1,
                                     sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if want["stack"] != stack():
        print(f"digests were taken on {want['stack']}; this stack is {stack()}")
        return 1
    diff = compare(want, digests())
    print("\n".join(diff) or f"all {len(want['digests'])} artifacts match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
