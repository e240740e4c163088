"""Outside-in tracing: spans recorded around the program's public functions.

Each traced function is wrapped at the module attribute its caller looks it
up by (`trainer.forward_with_cache`, because `trainer` imports it by name;
`cli.predict`, because `cli` does too), so no program file changes. Spans
are kept in memory and handed back when the traced command ends. A span is
(name, start, end, parent, run): `parent` is the index of the enclosing
span, `run` identifies the command run the span belongs to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict


def _count_pairs(counters, result, bound):
    counters["curation.pair.pairs"] += len(result)


def _count_balance(counters, result, bound):
    counters["curation.balance_no_stutter.kept"] += len(result)
    counters["curation.balance_no_stutter.materialized"] += len(bound.arguments["pairs"])


def _count_grads(counters, result, bound):
    registry = bound.arguments["registry"]
    counters["model.backward_pass.returned"] += sum(g.size for g in result.values())
    counters["model.backward_pass.useful"] += sum(
        g.size for name, g in result.items() if registry.entry(name).trainable
    )


# (metric name, lookup sites as "module.attr" under the stutterkit package,
#  counter hook or None). The metric name is the defining module's.
TARGETS = (
    ("featurizer.load_wav", ("featurizer.load_wav",), None),
    ("featurizer.featurize", ("featurizer.featurize",), None),
    ("featurizer.dump_spectrogram", ("featurizer.dump_spectrogram",), None),
    ("featurizer.save_wav", ("curation.save_wav",), None),
    ("curation.read_inventory", ("curation.read_inventory",), None),
    ("curation.clean", ("curation.clean",), None),
    ("curation.pair", ("curation.pair",), _count_pairs),
    ("curation.balance_no_stutter", ("curation.balance_no_stutter",), _count_balance),
    ("curation.build_splits", ("curation.build_splits",), None),
    ("curation.write_split", ("curation.write_split",), None),
    ("model.build_registry", ("model.build_registry",), None),
    ("model.forward_with_cache", ("trainer.forward_with_cache", "model.forward_with_cache"), None),
    ("model.forward", ("model.forward",), None),
    ("model.backward_pass", ("trainer.backward_pass",), _count_grads),
    ("model.save_checkpoint", ("model.save_checkpoint",), None),
    ("model.load_checkpoint", ("model.load_checkpoint",), None),
    ("trainer.fit", ("trainer.fit",), None),
    ("trainer.train_step", ("trainer.train_step",), None),
    ("trainer.backward", ("trainer.backward",), None),
    ("trainer.adam_update", ("trainer.adam_update",), None),
    ("trainer.evaluate_split", ("trainer.evaluate_split",), None),
    ("evaluator.predict", ("cli.predict", "trainer.predict"), None),
    ("evaluator.f1_report", ("cli.f1_report", "trainer.f1_report"), None),
)

COMMANDS = ("curate", "featurize", "train", "eval")


class Tracer:
    """Records spans for one command run; `install` wraps the targets."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "run": self.run})
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count:
                count(self.counters, result, signature.bind(*args, **kwargs))
            return result

        return traced

    def install(self, package: str = "stutterkit") -> None:
        """Wrap every target that exists; record the others as missing."""
        for name, sites, count in TARGETS:
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"{package}.{module_name}")
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{name} (looked up as {site})")
                    continue
                setattr(module, attr, self.wrap(name, fn, count))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def check_nesting(spans: list[dict], selfs: list[float]) -> list[str]:
    """Child self times must add up to no more than their parent's wall time."""
    child_self: dict[int, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        if s["parent"] is not None:
            child_self[s["parent"]] += own
    return [
        f"span {spans[p]['name']} ({spans[p]['run']}): children's self time "
        f"{total:.6f} s exceeds its wall time {spans[p]['end'] - spans[p]['start']:.6f} s"
        for p, total in child_self.items()
        if total > spans[p]["end"] - spans[p]["start"] + 1e-9
    ]


def layer_metrics(spans: list[dict], counters: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of one traced run set."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s, own in zip(spans, selfs):
        by_name[s["name"]].append((s["end"] - s["start"], own))
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in TARGETS:
        rows = by_name.get(name, [])
        out[f"{name}.calls"] = (len(rows), "count")
        out[f"{name}.s"] = (sum(r[0] for r in rows), "s")
        out[f"{name}.self_s"] = (sum(r[1] for r in rows), "s")
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = (sum(r[1] for r in by_name.get(f"cli.{command}", [])), "s")
    steps = [r[0] for r in by_name.get("trainer.train_step", [])]
    out["trainer.train_step.p50_s"] = (statistics.median(steps) if steps else 0.0, "s")
    out["trainer.train_step.p50_n"] = (len(steps), "count")
    out["curation.pair.pairs"] = (counters.get("curation.pair.pairs", 0), "count")
    materialized = counters.get("curation.balance_no_stutter.materialized", 0)
    kept = counters.get("curation.balance_no_stutter.kept", 0)
    out["curation.balance_no_stutter.kept_ratio"] = (
        kept / materialized if materialized else 0.0, "ratio")
    returned = counters.get("model.backward_pass.returned", 0)
    useful = counters.get("model.backward_pass.useful", 0)
    out["model.backward_pass.useful_grad_ratio"] = (useful / returned if returned else 0.0, "ratio")
    return out
