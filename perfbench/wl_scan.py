"""``scan`` and ``yara-stream``: the registry's scan path over generated rules.

``scan`` is the paper's Table VIII protocol as a registry runs it: the
ruleset generated (in set-up) from the labelled corpus is published with the
production default ``ScanServiceConfig``, and every labelled package is
scanned once through ``ScanService.scan_batch`` in batches of
:data:`SCAN_BATCH`, in a seeded order.  One pass is one such sweep through
a fresh service (fresh result cache) over the same registry; a run makes
whole passes.  Semgrep matching dominates.

``yara-stream`` publishes only the generated YARA rules and scans a seeded
``ReplayTraffic`` stream of registry uploads -- exact re-uploads, renamed
re-uploads, loader re-wraps and lazily built benign packages -- with the
default config and its result cache.  One pass is the first
:data:`STREAM_ROUNDS` rounds of the stream through a fresh service.
Preparation, fingerprinting, the atom prefilter and YARA evaluation do all
the work; Semgrep does none.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.arena.traffic import ReplayTraffic, TrafficConfig
from repro.evaluation.detector import PreparedPackage, RuleScanner
from repro.scanserve import RulesetRegistry, ScanService, ScanServiceConfig

from calib import Stopwatch
from common import (
    CORPUS_SEED,
    SCAN_SCALE,
    Context,
    Outcome,
    corpus,
    detections_digest,
    finish_layers,
    peak_rss_mb,
    quality,
    rate,
    record_generation,
    ruleset_digest,
    session,
    timed_setup,
)

SCAN_BATCH = 16
STREAM_ROUNDS = 8
STREAM_ROUND_PACKAGES = 256
STREAM_CHUNK = 32
#: Packages re-scanned by the unindexed per-rule scanner, per workload.
PARITY_SAMPLE = {"scan": 12, "yara-stream": 96}


def _generate(ctx: Context, yara_only: bool, generating: Stopwatch):
    """Set-up: corpus, generation, publish.  Generation + publish is timed
    into ``generating`` (for ``generate_pkg_per_s``)."""
    dataset = corpus(ctx.size(SCAN_SCALE, 0.02), CORPUS_SEED)
    generator = session(ctx, registry=None if yara_only else RulesetRegistry())
    start = time.perf_counter()
    generator.add_batch(dataset.malware)
    result = generator.generate(label="bench")
    if yara_only:
        registry = RulesetRegistry()
        registry.publish(yara=result.rule_set.compile_yara(), label="bench-yara")
    else:
        registry = generator.registry
    generating.add(start, time.perf_counter())
    record_generation(ctx, result)
    return dataset, result, registry


def run(ctx: Context) -> Outcome:
    yara_only = ctx.workload == "yara-stream"
    outcome = Outcome()
    generating = Stopwatch(ctx.calibrator)
    dataset, result, registry = timed_setup(
        ctx, lambda: _generate(ctx, yara_only, generating), outcome
    )
    rate(len(dataset.malware), generating, outcome, "generate_pkg_per_s")
    version = registry.current()
    outcome.digests["ruleset"] = ruleset_digest(result.rule_set)
    ctx.log(f"published {version.describe()}; {result.describe()}")

    if yara_only:
        traffic = ReplayTraffic(
            dataset.malware,
            TrafficConfig(
                seed=ctx.seed,
                packages_per_round=ctx.size(STREAM_ROUND_PACKAGES, 64),
                chunk_size=STREAM_CHUNK,
                obfuscation_base=0.25,
                rename_probability=0.75,
            ),
        )

        def batches():
            for round_index in range(ctx.size(STREAM_ROUNDS, 1)):
                yield from traffic.round_chunks(round_index)

    else:
        order = list(dataset.packages)
        random.Random(f"scan-order-{ctx.seed}").shuffle(order)

        def batches():
            for offset in range(0, len(order), SCAN_BATCH):
                yield order[offset : offset + SCAN_BATCH]

    passes: list[Stopwatch] = []  # the scan_batch intervals of each pass
    digests: set[str] = set()
    counters_before = ctx.counters()
    window_start = time.perf_counter()
    deadline = window_start + ctx.seconds
    first_pass: list = []
    service = None
    while not passes or time.perf_counter() < deadline:
        stream = list(batches())  # built before the pass, so scans run back to back
        service = ScanService(registry=registry)
        scanning = Stopwatch(ctx.calibrator)
        detections = []
        if yara_only:
            ctx.calibrator.pause()  # reported raw: see README, calibration
        for batch in stream:
            start = time.perf_counter()
            with ctx.span():
                scanned = service.scan_batch(batch)
            end = time.perf_counter()
            scanning.add(start, end)
            detections.extend(scanned.detections)
            if not passes:
                first_pass.extend(zip(batch, scanned.detections))
            outcome.attempted += len(batch)
        if yara_only:
            ctx.calibrator.resume()
        digests.add(detections_digest(detections))
        passes.append(scanning)
    window = (window_start, time.perf_counter())
    counters = (counters_before, ctx.counters())

    per_pass = len(first_pass)
    outcome.raw["scan_pkg_per_s"] = statistics.median(per_pass / watch.raw for watch in passes)
    if yara_only:
        # the YARA scan path does not follow the kernel's drift: its raw
        # time repeats within a tenth, calibrated it does not (README)
        outcome.metrics["scan_pkg_per_s"] = outcome.raw["scan_pkg_per_s"]
    else:
        outcome.metrics["scan_pkg_per_s"] = statistics.median(
            per_pass / watch.calibrated for watch in passes
        )
    quality(
        ((bool(d.matched_rules), p.is_malicious) for p, d in first_pass), outcome
    )
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    ctx.log(
        "%d passes of %d packages; scan %s s calibrated (raw %s); %s"
        % (
            len(passes),
            per_pass,
            "-" if yara_only else ["%.3f" % watch.calibrated for watch in passes],
            ["%.3f" % watch.raw for watch in passes],
            outcome.digests.get("confusion", ""),
        )
    )
    _check(ctx, outcome, version, service, first_pass, digests)
    finish_layers(ctx, outcome, counters, window, outcome.attempted, calibrate=not yara_only)
    return outcome


def _check(ctx: Context, outcome: Outcome, version, service, first_pass, digests) -> None:
    outcome.digests["detections"] = next(iter(digests))
    outcome.check(
        "every pass yields the same detections",
        len(digests) == 1,
        f"{len(digests)} distinct detection digests",
    )
    published = set(version.yara.rule_names() if version.yara else []) | set(
        version.semgrep.rule_ids() if version.semgrep else []
    )
    flagged = {name for _, d in first_pass for name in d.matched_rules}
    outcome.check(
        "every flagged rule exists in the published version",
        flagged <= published,
        f"{len(flagged - published)} unknown of {len(flagged)}",
    )

    # parity: detections equal an unindexed per-rule scan of the same packages
    rng = random.Random(f"parity-{ctx.workload}-{ctx.seed}")
    sample = rng.sample(first_pass, min(PARITY_SAMPLE[ctx.workload], len(first_pass)))
    naive = RuleScanner(yara_rules=version.yara, semgrep_rules=version.semgrep)
    mismatched = [
        p.identifier
        for p, d in sample
        if naive.scan_package(p).matched_rules != d.matched_rules
    ]
    outcome.check(
        "detections equal an unindexed per-rule scan (sample)",
        not mismatched,
        f"{len(mismatched)}/{len(sample)} differ: {mismatched[:3]}",
    )

    # a cache hit gives the same verdict as a cold scan
    seen: set[str] = set()
    repeats = []
    for package, detection in first_pass:
        fingerprint = PreparedPackage(package).fingerprint
        if fingerprint in seen:
            repeats.append((package, detection))
        seen.add(fingerprint)
    probe = (repeats or first_pass)[:32]
    cold = ScanService(registry=service.registry, config=ScanServiceConfig(enable_cache=False))
    cold_scan = cold.scan_batch([p for p, _ in probe])
    warm_scan = service.scan_batch([p for p, _ in probe])
    outcome.check(
        "cache hits give the verdicts of a cold scan",
        warm_scan.cache_hits == len(probe)
        and [d.matched_rules for d in cold_scan.detections]
        == [d.matched_rules for _, d in probe]
        == [d.matched_rules for d in warm_scan.detections],
        f"{len(probe)} probed ({len(repeats)} in-pass repeats), "
        f"{warm_scan.cache_hits} hits",
    )
