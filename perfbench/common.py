"""Shared pieces of the workloads: run context, outcome, inputs, digests."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.api import GenerationSession, RuleLLMConfig, default_stages
from repro.corpus.dataset import Dataset, DatasetConfig, build_dataset
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedAnalystLLM

from calib import Calibrator, Stopwatch
from layers import TimedProvider, TimedStage, layer_metrics
from spans import SpanRecorder

#: Seed of the corpus the scan-side workloads generate their rules from (the
#: repository's default corpus seed).  It is fixed because rulesets generated
#: from different corpus seeds differ up to 4.5x in Semgrep cost per package;
#: the run seed drives everything sampled on top of it.
CORPUS_SEED = 1633
#: Corpus scale of ``scan``, ``yara-stream`` and ``gateway`` (82 malware + 25
#: benign packages) and of ``generate`` (3x the malware).
SCAN_SCALE = 0.05
GENERATE_SCALE = 0.15
#: Model profile and generation seed (the defaults of ``rulellm serve``).
MODEL = "gpt-4o"
GENERATION_SEED = 1633
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Root span around each timed operation in traced runs.
ROOT = "bench.op"

#: (name, unit, better) of the end-to-end metrics every run prints.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("generate_pkg_per_s", "pkg/s", "higher"),
    ("scan_pkg_per_s", "pkg/s", "higher"),
    ("precision", "ratio", "higher"),
    ("recall", "ratio", "higher"),
]


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    calibrator: Calibrator
    recorder: Optional[SpanRecorder]
    out_dir: Path
    import_window: tuple[float, float]
    root: Path  # the checkout (holds src/)
    smoke: bool = False  # miniature inputs for the benchmark's own tests

    def size(self, full, smoke):
        return smoke if self.smoke else full

    def log(self, message: str) -> None:
        print(f"[{self.workload}] {message}", flush=True)

    def span(self, name: str = ROOT):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def count(self, name: str, amount: float = 1) -> None:
        if self.recorder is not None:
            self.recorder.count(name, amount)

    def counters(self) -> dict[str, float]:
        return dict(self.recorder.counters) if self.recorder is not None else {}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)  # uncalibrated twins
    layers: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


# -- inputs ---------------------------------------------------------------------------
def corpus(scale: float, seed: int) -> Dataset:
    """A labelled corpus shaped like ``DatasetConfig.medium``."""
    return build_dataset(
        DatasetConfig(
            seed=seed,
            scale=scale,
            benign_modules_range=(3, 5),
            benign_pieces_per_module_range=(6, 12),
        )
    )


def generation_config() -> RuleLLMConfig:
    return RuleLLMConfig.full(model=MODEL, seed=GENERATION_SEED)


def session(ctx: Context, registry=None) -> GenerationSession:
    """A generation session; traced runs hand it timed provider and stages."""
    config = generation_config()
    if ctx.recorder is None:
        return GenerationSession(config=config, registry=registry)
    provider = SimulatedAnalystLLM(profile=get_profile(config.model), seed=config.seed)
    return GenerationSession(
        config=config,
        provider=TimedProvider(provider, ctx.recorder),
        stages=[TimedStage(stage, ctx.recorder) for stage in default_stages()],
        registry=registry,
    )


def record_generation(ctx: Context, result) -> None:
    """Per-layer counts of one generation run (traced runs only)."""
    ctx.count("extraction.clusters_kept", result.info.cluster_count)
    ctx.count("core.coarse_rules", result.info.coarse_rule_count)
    ctx.count("core.refined_rules", result.info.refined_rule_count)
    ctx.count("core.rules_accepted", len(result.rule_set.rules))
    ctx.count("core.duplicate_rule_names", duplicate_names(result.rule_set))


def duplicate_names(rule_set) -> int:
    """Rules whose (format, name) an earlier rule of the set already has."""
    names = [(rule.format, rule.name) for rule in rule_set.rules]
    return len(names) - len(set(names))


def timed_setup(ctx: Context, build: Callable[[], object], outcome: Outcome):
    """Run ``build`` :data:`SETUP_REPEATS` times and report ``setup_s`` from
    the intervals (see :func:`report_setup`).  Returns the last build."""
    builds = Stopwatch(ctx.calibrator)
    state = None
    for _ in range(ctx.size(SETUP_REPEATS, 1)):
        start = time.perf_counter()
        state = build()
        builds.add(start, time.perf_counter())
    report_setup(ctx, builds, outcome)
    return state


def report_setup(
    ctx: Context, builds: Stopwatch, outcome: Outcome, once: Optional[Stopwatch] = None
) -> None:
    """``setup_s`` = the import time + the median calibrated interval of the
    repeated ``builds`` + the set-up work done ``once`` after them."""
    imports = ctx.calibrator.seconds(*ctx.import_window)
    after = once.calibrated if once is not None else 0.0
    after_raw = once.raw if once is not None else 0.0
    outcome.metrics["setup_s"] = imports + statistics.median(builds.calibrated_each()) + after
    outcome.raw["setup_s"] = (
        ctx.import_window[1] - ctx.import_window[0]
        + statistics.median(b - a for a, b in builds.intervals) + after_raw
    )
    ctx.log(
        "setup: imports %.3fs, builds %s s calibrated (raw %s)%s"
        % (imports, _fmt(builds.calibrated_each()),
           _fmt([b - a for a, b in builds.intervals]),
           "" if once is None else ", then %.3fs (raw %.3fs)" % (after, after_raw))
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate(count: float, watch: Stopwatch, outcome: Outcome, name: str) -> None:
    """``name`` = ``count`` per calibrated second of the median interval of
    ``watch`` (the raw twin from the raw median)."""
    outcome.metrics[name] = count / statistics.median(watch.calibrated_each())
    outcome.raw[name] = count / statistics.median(b - a for a, b in watch.intervals)


def quality(verdicts: Iterable[tuple[bool, bool]], outcome: Outcome) -> None:
    """Precision and recall from (flagged, malicious-by-corpus-label) pairs."""
    tp = fp = fn = 0
    for flagged, malicious in verdicts:
        tp += flagged and malicious
        fp += flagged and not malicious
        fn += (not flagged) and malicious
    outcome.metrics["precision"] = tp / (tp + fp) if tp + fp else 0.0
    outcome.metrics["recall"] = tp / (tp + fn) if tp + fn else 0.0
    outcome.check("precision and recall are defined", tp > 0, f"TP {tp} FP {fp} FN {fn}")
    outcome.digests["confusion"] = f"TP {tp} FP {fp} FN {fn}"


def finish_layers(
    ctx: Context,
    outcome: Outcome,
    counters: tuple[dict[str, float], dict[str, float]],
    window: tuple[float, float],
    operations: int,
    calibrate: bool = True,
) -> None:
    """Fill ``outcome.layers`` from the spans and the counter deltas
    (``counters`` = before, after) of the measurement window; seconds are
    calibrated unless ``calibrate`` is false."""
    if ctx.recorder is None:
        return
    before, after = counters
    counters = {k: v - before.get(k, 0.0) for k, v in after.items()}
    factor = ctx.calibrator.factor(*window) if calibrate else 1.0
    metrics, self_times = layer_metrics(
        ctx.recorder, counters, window, factor, operations, ROOT
    )
    spans = sum(1 for s in ctx.recorder.spans if window[0] <= s.start <= window[1])
    cost = ctx.recorder.span_cost()
    timed = ctx.recorder.total_times(*window).get(ROOT, 0.0)
    metrics["trace.overhead_share"] = spans * cost / timed if timed else 0.0
    outcome.layers.update({k: v for k, v in metrics.items() if k not in outcome.layers})
    total = sum(self_times.values())
    ctx.log(
        "trace: %d spans in the window, %.2f us per span, overhead %.2f%%"
        % (spans, cost * 1e6, 100 * metrics["trace.overhead_share"])
    )
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        ctx.log(
            "  self %-24s %9.4f s%s (%5.1f%%)"
            % (name, seconds, " calibrated" if calibrate else "",
               100 * seconds / total if total else 0.0)
        )
    ctx.log(
        "  unexplained remainder (time in %s outside every layer): %.2f%%"
        % (ROOT, 100 * metrics["trace.unexplained_share"])
    )


# -- digests --------------------------------------------------------------------------
def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()[:16]


def ruleset_digest(rule_set) -> str:
    return digest(sorted((r.format, r.name, r.text) for r in rule_set.rules))


def detections_digest(detections) -> str:
    return digest([(d.package, d.matched_rules) for d in detections])


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join("%.3f" % v for v in values) + "]"
