"""Time one stutterkit command in two checkouts, in alternating pairs of fresh interpreters.

    python3 tools/time_command.py PARENT_DIR CHANGE_DIR --pairs 8 -- \\
        eval CKPT MANIFEST {out} --config CFG

A benchmark run times `eval` on 3 clips, so one run's `eval_clips_per_s`
reads mostly the host's drift; this times the command alone, as often as
asked. Each run starts a new interpreter with the checkout's `src` as
PYTHONPATH and OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, as bench/run.py sets
them, and with glibc's mmap and trim thresholds fixed (MALLOC_FIXED). It
times `stutterkit.cli.main(argv)` (interpreter start and imports excluded)
and counts the minor page faults (ru_minflt) taken inside that call. After
`main` returns, the run reads its own VmHWM (peak resident memory) from
/proc/self/status: unlike ru_maxrss, which a child inherits from the
process that forked it, VmHWM starts afresh at exec, so it is the
command's own peak. `{out}` in the argv becomes a fresh directory per run.
The side that runs first alternates from pair to pair. Prints each side's
median and quartiles of the time, its median VmHWM (n/a without /proc) and
median minor faults, and the pairs each side won on each (the lower value
wins). Exits 1 if a run fails, or if any file a run writes under `{out}`,
other than run_manifest.json (which holds wall times), differs in bytes
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
# glibc raises its mmap and trim thresholds as a process frees large blocks,
# so VmHWM follows each run's allocation history, and even the checkout's
# path. Fixed at 128 KiB, a no-op change's VmHWM gap fell from 1.6 to 0.23 MB.
# Every block of 128 KiB or more is then mapped afresh, so time and minor
# faults read above a run with glibc's defaults: compare the two sides only.
MALLOC_FIXED = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}
_TIMED = (
    "import json, resource, sys, time\n"
    "from stutterkit.cli import main\n"
    "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "start = time.perf_counter()\n"
    "rc = main(sys.argv[2:])\n"
    "took = time.perf_counter() - start\n"
    "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults\n"
    "try:\n"
    "    with open('/proc/self/status') as f:\n"
    "        hwm = next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
    "except (OSError, StopIteration):\n"
    "    hwm = None\n"
    "open(sys.argv[1], 'w').write(json.dumps([took, hwm, faults]))\n"
    "sys.exit(rc)\n"
)


class RunFailed(RuntimeError):
    """The command exited non-zero."""


def run_once(checkout: Path, argv: list[str], work: Path) -> tuple[float, float | None, int, dict[str, str]]:
    """Seconds spent in cli.main, the run's VmHWM in MB (kB / 1024, None
    without /proc), the minor faults it took in cli.main, and the sha256 of
    each file the run wrote under {out} (SKIPPED aside), keyed by its path
    there."""
    work.mkdir()
    out, seconds = work / "out", work / "seconds"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **MALLOC_FIXED)
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED, str(seconds), *(a.replace("{out}", str(out)) for a in argv)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RunFailed(f"{checkout}: exit status {proc.returncode}: {tail[0]}")
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != SKIPPED)
    digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    took, hwm_kb, faults = json.loads(seconds.read_text())
    shutil.rmtree(work)
    return took, None if hwm_kb is None else hwm_kb / 1024, faults, digests


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
