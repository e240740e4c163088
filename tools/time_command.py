"""Time one stutterkit command in two checkouts, in alternating pairs of fresh interpreters.

    python3 tools/time_command.py PARENT_DIR CHANGE_DIR --pairs 8 -- \\
        eval CKPT MANIFEST {out} --config CFG

A benchmark run times `eval` on 3 clips, so one run's `eval_clips_per_s`
reads mostly the host's drift; this times the command alone, as often as
asked. Each run is `python -m stutterkit.cli ARGV` with the checkout's `src`
as PYTHONPATH and OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, as bench/run.py
sets them; glibc's allocator keeps its defaults, as in a benchmark run.
The tool takes no reading of its own. It reads the cost the command records
in {out}/run_manifest.json: its wall seconds and minor page faults from
after argument parsing to after its outputs are hashed (interpreter start
and imports excluded), and the process's VmHWM, its peak resident memory
(null without /proc), which unlike ru_maxrss starts afresh at exec. A run
whose manifest lacks any of the three fails, as it does in a checkout from
before `curate` and `featurize` recorded their cost and every command its
faults. `{out}` in the argv becomes a fresh directory per run.
The side that runs first alternates from pair to pair. Prints each side's
median and quartiles of the time, its median VmHWM (n/a without /proc) and
median minor faults, and the pairs each side won on each (the lower value
wins). Exits 1 if a run fails, or if any file a run writes under `{out}`,
other than run_manifest.json (which holds the costs), differs in bytes
from the first parent run's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import quartiles  # run as a script, this file's directory is on sys.path

SKIPPED = "run_manifest.json"


class RunFailed(RuntimeError):
    """The command exited non-zero, or its run manifest records no cost."""


def run_once(checkout: Path, argv: list[str], out: Path) -> tuple[float, float | None, int, dict[str, str]]:
    """Run the command with `out` for {out}. Returns its wall seconds, VmHWM
    in MB (None without /proc) and minor faults, as its run manifest records
    them, and the sha256 of each other file it wrote there, keyed by path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "stutterkit.cli", *(a.replace("{out}", str(out)) for a in argv)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RunFailed(f"{checkout}: exit status {proc.returncode}: {tail[0]}")
    cost = json.loads((out / SKIPPED).read_text(encoding="utf-8"))["extra"] or {}
    if not {"wall_s", "vmhwm_mb", "minor_faults"} <= cost.keys():
        raise RunFailed(f"{checkout}: {SKIPPED} lacks wall_s, vmhwm_mb or minor_faults")
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != SKIPPED)
    digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    shutil.rmtree(out)
    return cost["wall_s"], cost["vmhwm_mb"], cost["minor_faults"], digests


def spread(times: list[float]) -> str:
    q = quartiles(times)
    return f"median {q['median']:.3f} s (quartiles {q['q1']:.3f} / {q['q3']:.3f})"


def megabytes(peaks: list[float | None]) -> str:
    """The median peak in MB, or n/a if a run could not read its own."""
    return "n/a" if None in peaks else f"{statistics.median(peaks):.1f} MB"


def pairs_won(values: dict[str, list[float | None]]) -> dict[str, int]:
    """The pairs each side won: the lower value wins, a tie or n/a neither."""
    pairs = [(p, c) for p, c in zip(values["parent"], values["change"]) if None not in (p, c)]
    return {"parent": sum(p < c for p, c in pairs), "change": sum(c < p for p, c in pairs)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1 :]
    if not command or args.pairs < 1:
        parser.error("needs --pairs >= 1 and, after --, the stutterkit argv")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times: dict[str, list[float]] = {"parent": [], "change": []}
    peaks: dict[str, list[float | None]] = {"parent": [], "change": []}
    faults: dict[str, list[int]] = {"parent": [], "change": []}
    reference, differ = None, set()
    with tempfile.TemporaryDirectory(prefix="time_command_") as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    took, peak, minflt, digests = run_once(sides[side], command, Path(tmp) / f"{side}{i}")
                except RunFailed as e:
                    print(f"pair {i + 1}, {side}: {e}", file=sys.stderr)
                    return 1
                times[side].append(took)
                peaks[side].append(peak)
                faults[side].append(minflt)
                reference = digests if reference is None else reference
                differ |= {k for k in reference.keys() | digests.keys()
                           if reference.get(k) != digests.get(k)}
            print(f"pair {i + 1} ({order[0]} first): "
                  + ", ".join(f"{side} {times[side][-1]:.3f} s {megabytes(peaks[side][-1:])} "
                              f"{faults[side][-1]:,} faults" for side in sides), flush=True)
    faster, smaller, fewer = pairs_won(times), pairs_won(peaks), pairs_won(faults)
    for side in sides:
        print(f"{side}: {spread(times[side])}, won {faster[side]} of {args.pairs} pairs; "
              f"VmHWM {megabytes(peaks[side])}, won {smaller[side]} of {args.pairs} pairs; "
              f"minor faults {statistics.median(faults[side]):,.0f}, "
              f"won {fewer[side]} of {args.pairs} pairs")
    if differ:
        print(f"outputs differ: {', '.join(sorted(differ))}")
        return 1
    print(f"outputs: the same bytes on both sides ({len(reference)} files besides {SKIPPED})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
