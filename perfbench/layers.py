"""The program's layers as the traced run sees them.

:func:`install` patches the public entry points of ``extraction``, ``api``,
``core`` (publish-side compile), ``scanserve``, ``evaluation``, ``yarax``
and ``semgrepx`` with :class:`spans.SpanRecorder` timers; :class:`TimedProvider`
and :class:`TimedStage` wrap the LLM provider and the stage objects handed
to ``GenerationSession``.  :func:`layer_metrics` turns the span tree into
the per-layer metrics listed in ``PER_LAYER`` (and in BENCHMARK.json).
"""

from __future__ import annotations

from repro.api.stages import PipelineStage, StageContext
from repro.core.rules import GeneratedRuleSet
from repro.evaluation.detector import PreparedPackage
from repro.extraction.clustering import KMeans
from repro.extraction.embedding import CodeEmbedder
from repro.api.session import GenerationSession
from repro.scanserve.index import RuleIndex
from repro.scanserve.registry import RulesetRegistry
from repro.scanserve.service import ScanService
from repro.semgrepx.matcher import ScanTarget

from spans import SpanRecorder

#: (name, unit, better) of every per-layer metric a traced run prints.
PER_LAYER = [
    ("extraction.embed_s", "s", "lower"),
    ("extraction.kmeans_s", "s", "lower"),
    ("extraction.kmeans_iterations", "count", "lower"),
    ("extraction.clusters_kept", "count", "higher"),
    ("llm.calls", "count", "lower"),
    ("llm.tokens", "count", "lower"),
    ("llm.s", "s", "lower"),
    ("core.craft_s", "s", "lower"),
    ("core.refine_s", "s", "lower"),
    ("core.align_s", "s", "lower"),
    ("core.coarse_rules", "count", "higher"),
    ("core.refined_rules", "count", "higher"),
    ("core.rules_accepted", "count", "higher"),
    ("core.duplicate_rule_names", "count", "lower"),
    ("core.align_yield", "ratio", "higher"),
    ("api.session_self_s", "s", "lower"),
    ("yarax.compile_s", "s", "lower"),
    ("semgrepx.compile_s", "s", "lower"),
    ("scanserve.publish_s", "s", "lower"),
    ("evaluation.haystack_s", "s", "lower"),
    ("semgrepx.parse_s", "s", "lower"),
    ("scanserve.fingerprint_s", "s", "lower"),
    ("scanserve.atoms_s", "s", "lower"),
    ("scanserve.candidates_s", "s", "lower"),
    ("scanserve.yara_candidates_per_pkg", "count", "lower"),
    ("scanserve.semgrep_candidates_per_pkg", "count", "lower"),
    ("scanserve.cache_hit_ratio", "ratio", "higher"),
    ("scanserve.batch_self_s", "s", "lower"),
    ("yarax.eval_s", "s", "lower"),
    ("yarax.match_yield", "ratio", "higher"),
    ("semgrepx.match_s", "s", "lower"),
    ("semgrepx.match_yield", "ratio", "higher"),
    ("gateway.scan_job_p50_ms", "ms", "lower"),
    ("gateway.scan_job_p99_ms", "ms", "lower"),
    ("gateway.scan_jobs_per_s", "jobs/s", "higher"),
    ("gateway.submit_ms", "ms", "lower"),
    ("gateway.queue_wait_ms", "ms", "lower"),
    ("gateway.run_ms", "ms", "lower"),
    ("gateway.notify_ms", "ms", "lower"),
    ("gateway.publish_s", "s", "lower"),
    ("gateway.request_bytes_per_job", "bytes", "lower"),
    ("gateway.known_fault_jobs", "count", "lower"),
    ("store.journal_bytes_per_job", "bytes", "lower"),
    ("store.blob_bytes", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unexplained_share", "ratio", "lower"),
]

#: Span name -> the per-layer seconds metric its self time feeds.
SELF_TIME_METRICS = {
    "extraction.embed": "extraction.embed_s",
    "extraction.kmeans": "extraction.kmeans_s",
    "llm": "llm.s",
    "core.craft": "core.craft_s",
    "core.refine": "core.refine_s",
    "core.align": "core.align_s",
    "api.generate": "api.session_self_s",
    "yarax.compile": "yarax.compile_s",
    "semgrepx.compile": "semgrepx.compile_s",
    "scanserve.publish": "scanserve.publish_s",
    "evaluation.haystack": "evaluation.haystack_s",
    "semgrepx.parse": "semgrepx.parse_s",
    "scanserve.fingerprint": "scanserve.fingerprint_s",
    "scanserve.atoms": "scanserve.atoms_s",
    "scanserve.candidates": "scanserve.candidates_s",
    "scanserve.batch": "scanserve.batch_self_s",
    "yarax.eval": "yarax.eval_s",
    "semgrepx.match": "semgrepx.match_s",
}


class TimedProvider:
    """An ``LLMProvider`` that times and counts the calls it forwards."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder

    @property
    def model_name(self) -> str:
        return self.inner.model_name

    @property
    def context_window(self) -> int:
        return self.inner.context_window

    def complete(self, request):
        with self.recorder.span("llm"):
            response = self.inner.complete(request)
        self.recorder.count("llm.calls")
        self.recorder.count("llm.tokens", response.usage.total_tokens)
        return response


class TimedStage(PipelineStage):
    """A pipeline stage run inside a ``core.<stage>`` span."""

    def __init__(self, inner: PipelineStage, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name

    def run(self, context: StageContext) -> None:
        with self.recorder.span(f"core.{self.name}"):
            self.inner.run(context)


def install(recorder: SpanRecorder) -> None:
    """Patch the layer entry points; undo with ``recorder.restore()``."""

    def kmeans_done(model, args, kwargs, result) -> None:
        recorder.count("extraction.kmeans_iterations", model.iterations_run)

    def semgrep_candidates(index, args, kwargs, result) -> None:
        recorder.count("scanserve.semgrep_candidates", len(result))

    def yara_evaluated(index, args, kwargs, result) -> None:
        text = args[0] if args else kwargs["text"]
        with recorder.span("trace.observer"):  # counted as tracing overhead
            candidates = index.candidate_yara_rules(
                text, folded=kwargs.get("folded"), hits=kwargs.get("hits")
            )
        recorder.count("scanserve.yara_packages")
        recorder.count("scanserve.yara_candidates", len(candidates))
        recorder.count("yarax.fired", len(result))

    def semgrep_matched(index, args, kwargs, result) -> None:
        recorder.count("scanserve.semgrep_packages")
        recorder.count("semgrepx.fired", len({finding.rule_id for finding in result}))

    def batch_scanned(service, args, kwargs, result) -> None:
        recorder.count("scanserve.cache_hits", result.cache_hits)
        recorder.count("scanserve.cache_lookups", result.cache_hits + result.cache_misses)

    recorder.wrap(CodeEmbedder, "embed_packages", "extraction.embed")
    recorder.wrap(KMeans, "fit", "extraction.kmeans", kmeans_done)
    recorder.wrap(GenerationSession, "generate", "api.generate")
    recorder.wrap(GeneratedRuleSet, "compile_yara", "yarax.compile")
    recorder.wrap(GeneratedRuleSet, "compile_semgrep", "semgrepx.compile")
    recorder.wrap(RulesetRegistry, "publish", "scanserve.publish")
    recorder.wrap(RulesetRegistry, "publish_generated", "scanserve.publish")
    for attr in ("yara_text", "folded_text", "folded_bytes"):
        recorder.wrap(PreparedPackage, attr, "evaluation.haystack")
    recorder.wrap(PreparedPackage, "fingerprint", "scanserve.fingerprint")
    recorder.wrap(ScanTarget, "from_package", "semgrepx.parse")
    recorder.wrap(RuleIndex, "hits", "scanserve.atoms")
    recorder.wrap(RuleIndex, "hits_batch", "scanserve.atoms")
    recorder.wrap(
        RuleIndex, "candidate_semgrep_rules", "scanserve.candidates", semgrep_candidates
    )
    recorder.wrap(RuleIndex, "yara_rule_names", "yarax.eval", yara_evaluated)
    recorder.wrap(RuleIndex, "match_semgrep", "semgrepx.match", semgrep_matched)
    recorder.wrap(ScanService, "scan_batch", "scanserve.batch", batch_scanned)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    counters: dict[str, float],
    window: tuple[float, float],
    factor: float,
    operations: int,
    root: str,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics over the measurement ``window``.

    Seconds are calibrated by ``factor`` and given per operation (a
    generation round, a scanned package or a scan job).  Returns the
    metrics and the calibrated self seconds per span name (for the
    accounting printout).  ``root`` names the benchmark's own span around
    each timed operation; the time it does not hand to a layer is the
    unexplained remainder.
    """
    start, end = window
    self_times = {
        name: seconds * factor
        for name, seconds in recorder.self_times(start, end).items()
    }
    totals = recorder.total_times(start, end)
    per_op = max(1, operations)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = self_times.get(span_name, 0.0) / per_op
    for name in (
        "extraction.kmeans_iterations",
        "extraction.clusters_kept",
        "llm.calls",
        "llm.tokens",
        "core.coarse_rules",
        "core.refined_rules",
        "core.rules_accepted",
        "core.duplicate_rule_names",
    ):
        metrics[name] = counters.get(name, 0.0) / per_op
    metrics["core.align_yield"] = _ratio(
        counters.get("core.rules_accepted", 0.0), counters.get("core.refined_rules", 0.0)
    )
    yara_candidates = counters.get("scanserve.yara_candidates", 0.0)
    metrics["scanserve.yara_candidates_per_pkg"] = _ratio(
        yara_candidates, counters.get("scanserve.yara_packages", 0.0)
    )
    semgrep_candidates = counters.get("scanserve.semgrep_candidates", 0.0)
    metrics["scanserve.semgrep_candidates_per_pkg"] = _ratio(
        semgrep_candidates, counters.get("scanserve.semgrep_packages", 0.0)
    )
    metrics["scanserve.cache_hit_ratio"] = _ratio(
        counters.get("scanserve.cache_hits", 0.0), counters.get("scanserve.cache_lookups", 0.0)
    )
    metrics["yarax.match_yield"] = _ratio(counters.get("yarax.fired", 0.0), yara_candidates)
    metrics["semgrepx.match_yield"] = _ratio(
        counters.get("semgrepx.fired", 0.0), semgrep_candidates
    )
    timed = totals.get(root, 0.0) * factor
    explained = sum(
        seconds
        for name, seconds in self_times.items()
        if name != root and name != "trace.observer"
    )
    metrics["trace.unexplained_share"] = _ratio(timed - explained, timed)
    return metrics, self_times
