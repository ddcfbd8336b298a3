"""``generate``: the analyst's path -- feed, cluster/craft/refine/align, publish.

Each round feeds the whole seeded malware corpus (in batches of 64) to a
fresh ``GenerationSession`` bound to a fresh ``ScanService`` registry; the
session publishes the ruleset, which compiles both formats and builds the
``RuleIndex``.  ``generate_pkg_per_s`` counts the seconds from the first
feed until the version is published.  After the publish, and timed apart,
a verification scan of a seeded sample of the corpus (fed malware and
unseen benign packages) gives ``scan_pkg_per_s``, ``precision`` and
``recall`` for the freshly generated rules.

A run makes whole rounds until the window has passed and reports the
median round's rates.  A round takes close to the 10-s window (about 5 s of
generation and 4.5 s of verification scan, raw, on a 2-vCPU Xeon guest), so
a 10-s run makes one or two rounds.  The checks and digests are those of
the first round (``steady.py`` compares the digests across runs of one
seed).
"""

from __future__ import annotations

import random
import time

from repro.scanserve import ScanService
from repro.semgrepx import compile_yaml
from repro.yarax import compile_source

from calib import Stopwatch
from common import (
    CORPUS_SEED,
    GENERATE_SCALE,
    Context,
    Outcome,
    corpus,
    detections_digest,
    duplicate_names,
    finish_layers,
    peak_rss_mb,
    quality,
    rate,
    record_generation,
    ruleset_digest,
    session,
    timed_setup,
)

FEED_BATCH = 64
SAMPLE_MALWARE = 12
SAMPLE_BENIGN = 12


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    scale = ctx.size(GENERATE_SCALE, 0.03)
    dataset = timed_setup(ctx, lambda: corpus(scale, CORPUS_SEED), outcome)
    malware = list(dataset.malware)
    random.Random(f"generate-feed-{ctx.seed}").shuffle(malware)
    rng = random.Random("generate-sample")
    sample = rng.sample(dataset.malware, ctx.size(SAMPLE_MALWARE, 4)) + rng.sample(
        dataset.benign, ctx.size(SAMPLE_BENIGN, 4)
    )
    labels = {p.identifier: p.is_malicious for p in sample}
    ctx.log(
        f"corpus scale {scale}, feed order seed {ctx.seed}: {len(malware)} malware fed per "
        f"round; verification sample {len(sample)} packages"
    )

    generation = Stopwatch(ctx.calibrator)
    scanning = Stopwatch(ctx.calibrator)
    counters_before = ctx.counters()
    window_start = time.perf_counter()
    deadline = window_start + ctx.seconds
    rounds = 0
    first = None
    while rounds == 0 or time.perf_counter() < deadline:
        service = ScanService()
        generator = session(ctx, registry=service.registry)
        start = time.perf_counter()
        with ctx.span():
            for offset in range(0, len(malware), FEED_BATCH):
                generator.add_batch(malware[offset : offset + FEED_BATCH])
            result = generator.generate(label=f"round-{rounds}")
        end = time.perf_counter()
        generation.add(start, end)
        record_generation(ctx, result)
        start = time.perf_counter()
        with ctx.span():
            batch = service.scan_batch(sample)
        end = time.perf_counter()
        scanning.add(start, end)
        if first is None:
            first = (result, batch)
        rounds += 1
    window = (window_start, time.perf_counter())
    counters = (counters_before, ctx.counters())

    result, batch = first
    outcome.attempted = rounds
    rate(len(malware), generation, outcome, "generate_pkg_per_s")
    rate(len(sample), scanning, outcome, "scan_pkg_per_s")
    quality(
        ((bool(d.matched_rules), labels[d.package]) for d in batch.detections), outcome
    )
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    ctx.log(
        "%d rounds; generation %s s calibrated (raw %s); %s"
        % (
            rounds,
            ", ".join("%.3f" % s for s in generation.calibrated_each()),
            ", ".join("%.3f" % (b - a) for a, b in generation.intervals),
            result.describe(),
        )
    )
    _check(ctx, outcome, result, batch)
    finish_layers(ctx, outcome, counters, window, rounds)
    return outcome


def _check(ctx: Context, outcome: Outcome, result, batch) -> None:
    rule_set = result.rule_set
    outcome.digests["ruleset"] = ruleset_digest(rule_set)
    outcome.digests["detections"] = detections_digest(batch.detections)
    broken = []
    for rule in rule_set.rules:
        try:
            if rule.is_yara:
                compiled = len(compile_source(rule.text).rules)
            else:
                compiled = len(compile_yaml(rule.text).rules)
        except Exception as exc:  # the check reports, never raises
            broken.append(f"{rule.name}: {type(exc).__name__}: {exc}")
            continue
        if compiled != 1:
            broken.append(f"{rule.name}: {compiled} rules from one source")
    outcome.check(
        "every accepted rule recompiles on its own from its source",
        not broken and len(rule_set.rules) > 0,
        "; ".join(broken[:3]) or f"{len(rule_set.rules)} rules",
    )
    # Rule names are not checked for uniqueness: generated sets carry
    # colliding (format, name) pairs, a fault of the generator (CHANGES.md,
    # FOUND); a check would fail every run.  The count is logged here and is
    # the per-layer metric core.duplicate_rule_names.
    ctx.log(f"{duplicate_names(rule_set)} rules repeat an earlier (format, name) of the set")
    version = result.version
    yara = len(version.yara.rules) if version is not None and version.yara else 0
    semgrep = len(version.semgrep.rules) if version is not None and version.semgrep else 0
    outcome.check(
        "published rule counts equal the ruleset's",
        version is not None
        and yara == len(rule_set.yara_rules)
        and semgrep == len(rule_set.semgrep_rules),
        f"published {yara} YARA + {semgrep} Semgrep",
    )
    published = set(version.yara.rule_names() if version.yara else []) | set(
        version.semgrep.rule_ids() if version.semgrep else []
    )
    flagged = {name for d in batch.detections for name in d.matched_rules}
    outcome.check(
        "every flagged rule exists in the published version",
        flagged <= published,
        f"{len(flagged - published)} unknown",
    )
