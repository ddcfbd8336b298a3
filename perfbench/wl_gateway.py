"""``gateway``: ``rulellm serve --store`` under two closed-loop clients.

The server runs in its own process, started through :mod:`serve` (the
program's ``rulellm serve`` plus a calibration sampler) on the vCPU the
benchmark process is not pinned to.  Two ``GatewayClient`` threads in the
benchmark process each submit a fixed seeded sequence of 4-package scan
jobs, one connection per request, and wait (long-poll) for each job's
terminal state before sending the next.  Most packages come from the
labelled corpus and are already in the tenant's result cache; every
:data:`FRESH_EVERY`-th job carries one fresh upload from ``ReplayTraffic``
(a renamed, possibly loader-wrapped malware variant or a lazily built
benign package).

Set-up starts the server and publishes ruleset A through a generation feed
(``open_generation`` / ``feed`` / ``close``); it is repeated
:data:`~common.SETUP_REPEATS` times.  A warm-up then scans the corpus once
(filling the cache for A) and publishes B (whose live re-scan fills the
cache for B) and A again.  Each timed round is :data:`PHASES_PER_ROUND`
phases of closed-loop jobs, then a generation-feed publish that swaps the
tenant between A and B: it journals a snapshot, bumps the version that keys
the cache and triggers the tenant's live re-scan.

Server-side intervals are calibrated with the kernel slices the server
processes took (see :mod:`calib`), gathered as each server stops; the
client's own sampler is paused.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.arena.traffic import ReplayTraffic, TrafficConfig
from repro.gateway.http import GatewayClient, package_to_wire
from repro.scanserve import ScanService
from repro.store import open_store

from calib import Calibrator, Stopwatch, spare_cpu
from common import (
    CORPUS_SEED,
    GENERATION_SEED,
    MODEL,
    SCAN_SCALE,
    SETUP_REPEATS,
    Context,
    Outcome,
    corpus,
    digest,
    finish_layers,
    quality,
    rate,
    record_generation,
    report_setup,
    session,
)

HERE = Path(__file__).resolve().parent
TENANT = "bench"
CLIENTS = 2
JOB_PACKAGES = 4
JOBS_PER_PHASE = 32  # per client
PHASES_PER_ROUND = 4  # closed-loop phases between two publishes
MIN_ROUNDS = 4  # at least 1,024 scan jobs per run, ten beyond the p99
FRESH_EVERY = 8
FEED_BATCH = 32
KNOWN_FAULT = "AST constructor recursion depth mismatch"


class Server:
    """One ``rulellm serve --store`` process and the slices it sampled."""

    def __init__(self, ctx: Context, name: str) -> None:
        self.store = ctx.out_dir / f"store-{name}"
        shutil.rmtree(self.store, ignore_errors=True)
        ready = ctx.out_dir / f"ready-{name}.txt"
        ready.unlink(missing_ok=True)
        self.slices = ctx.out_dir / f"slices-{name}.json"
        self.slices.unlink(missing_ok=True)
        self.log_path = ctx.out_dir / f"server-{name}.log"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ctx.root / "src"), str(HERE)]))
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, str(HERE / "serve.py"), str(self.slices), str(spare_cpu()),
                    "--port", "0",
                    "--ready-file", str(ready),
                    "--store", str(self.store),
                    "--tenant", f"{TENANT}:1000000:1000000",
                    "--model", MODEL,
                    "--seed", str(GENERATION_SEED),
                    "--workers", "2",
                ],
                cwd=ctx.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60
        while not (ready.exists() and ready.read_text().strip()):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.remove()
                raise RuntimeError(f"server did not start; see {self.log_path}")
            time.sleep(0.005)
        host, port = ready.read_text().split()
        self.url = f"http://{host}:{port}"
        self.jobs = 0  # jobs submitted to this server (scan + generate)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> dict:
        """Stop (draining in-flight jobs); returns the server's kernel slices."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if not self.slices.exists():
            raise RuntimeError(f"server left no calibration slices; see {self.log_path}")
        return json.loads(self.slices.read_text(encoding="utf-8"))

    def remove(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        shutil.rmtree(self.store, ignore_errors=True)


def publish(server: Server, packages) -> dict:
    """Feed ``packages`` through a generation feed and wait for the publish;
    returns the finished generation job."""
    client = GatewayClient(server.url, timeout=120)
    job = client.open_generation(TENANT, label="bench-feed")
    for offset in range(0, len(packages), FEED_BATCH):
        client.feed_generation(TENANT, job["id"], packages[offset : offset + FEED_BATCH])
    client.close_generation(TENANT, job["id"])
    done = client.wait_job(TENANT, job["id"], timeout=120, poll=5.0)
    server.jobs += 1
    if done["state"] != "done" or not done["result"].get("published_version"):
        raise RuntimeError(f"generation feed did not publish: {done}")
    return done


class Job:
    __slots__ = ("packages", "version", "start", "end", "submitted", "seen",
                 "record", "faults", "errors")

    def __init__(self, packages, version: int) -> None:
        self.packages = packages
        self.version = version  # active when submitted
        self.faults: list[str] = []
        self.errors: list[str] = []


def run_job(client: GatewayClient, job: Job, ctx: Context) -> None:
    """Submit, then long-poll until terminal.  A job that fails with the
    known fault (see README) is resubmitted once and its error kept."""
    job.start = time.perf_counter()
    with ctx.span():
        for _ in range(2):
            submit_start = time.perf_counter()
            with ctx.span("gateway.submit"):
                submitted = client.submit_scan(TENANT, job.packages)
            job.submitted = time.perf_counter() - submit_start
            with ctx.span("gateway.wait"):
                record = client.wait_job(TENANT, submitted["id"], timeout=120, poll=5.0)
            job.seen = time.time()
            if record["state"] == "failed" and KNOWN_FAULT in record["error"]:
                job.faults.append(record["error"])
                continue
            break
    job.end = time.perf_counter()
    job.record = record
    if record["state"] != "done":
        job.errors.append(f"{record['state']}: {record['error']}")


def _closed_loop(server: Server, plans, ctx: Context) -> None:
    """One phase: a client thread per plan, each running its jobs in turn."""

    def drive(plan) -> None:
        own = GatewayClient(server.url, timeout=120)
        for job in plan:
            run_job(own, job, ctx)

    threads = [threading.Thread(target=drive, args=(plan,)) for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    dataset = corpus(ctx.size(SCAN_SCALE, 0.02), CORPUS_SEED)
    feeds = {"A": dataset.malware[0::2], "B": dataset.malware[1::2]}
    ctx.calibrator.pause()  # the server processes sample instead
    clock = Calibrator()  # their slices, absorbed as each server stops
    builds = Stopwatch(clock)  # server start + first publish
    feeding = Stopwatch(clock)  # the first publish alone
    server = None
    try:
        # set-up: server start + first publish, repeated; the last server stays
        for rep in range(ctx.size(SETUP_REPEATS, 1)):
            if server is not None:
                clock.absorb(server.stop())
                server.remove()
            start = time.perf_counter()
            server = Server(ctx, f"{ctx.seed}-{rep}")
            fed = time.perf_counter()
            publish(server, feeds["A"])
            end = time.perf_counter()
            builds.add(start, end)
            feeding.add(fed, end)
        return _measure(ctx, outcome, server, clock, dataset, feeds, builds, feeding)
    finally:
        if server is not None:
            server.remove()
        ctx.calibrator.resume()


def _measure(ctx, outcome, server, clock, dataset, feeds, builds, feeding):
    per_phase = ctx.size(JOBS_PER_PHASE, 8)  # jobs per client and phase
    pool = list(dataset.packages)
    labels = {p.identifier: p.is_malicious for p in pool}
    client = GatewayClient(server.url, timeout=120)
    versions = {1: "A"}

    # warm-up: cache fill for A, then B (the publish re-scans the recency
    # window under B), then back to A for round 0
    warm = Stopwatch(clock)
    start = time.perf_counter()
    for offset in range(0, len(pool), JOB_PACKAGES):
        run_job(client, Job(pool[offset : offset + JOB_PACKAGES], 1), ctx)
        server.jobs += 1
    for name in ("B", "A"):
        done = publish(server, feeds[name])
        versions[done["result"]["published_version"]] = name
    warm.add(start, time.perf_counter())

    traffic = ReplayTraffic(
        dataset.malware,
        TrafficConfig(
            seed=ctx.seed,
            packages_per_round=PHASES_PER_ROUND * CLIENTS * per_phase // FRESH_EVERY,
            chunk_size=CLIENTS * per_phase // FRESH_EVERY,
            obfuscation_base=0.25,
            rename_probability=1.0,
        ),
    )
    phases = Stopwatch(clock)
    publishes = Stopwatch(clock)
    jobs: list[Job] = []
    counters_before = ctx.counters()
    window_start = time.perf_counter()
    deadline = window_start + ctx.seconds
    rounds = 0
    version = max(versions)
    while rounds < ctx.size(MIN_ROUNDS, 1) or time.perf_counter() < deadline:
        chunks = list(traffic.round_chunks(rounds))
        for phase_index in range(PHASES_PER_ROUND):
            fresh = chunks[phase_index]
            for package in fresh:
                labels[package.identifier] = package.is_malicious
            plans = []
            for client_index in range(CLIENTS):
                rng = random.Random(
                    f"gateway-{ctx.seed}-{rounds}-{phase_index}-{client_index}"
                )
                plan = []
                for j in range(per_phase):
                    packages = rng.sample(pool, JOB_PACKAGES)
                    if j % FRESH_EVERY == FRESH_EVERY - 1:
                        packages[0] = fresh[(client_index * per_phase + j) // FRESH_EVERY]
                    plan.append(Job(packages, version))
                plans.append(plan)
            start = time.perf_counter()
            _closed_loop(server, plans, ctx)
            phases.add(start, time.perf_counter())
            for plan in plans:
                jobs.extend(plan)
                server.jobs += len(plan)

        name = "B" if versions[version] == "A" else "A"
        start = time.perf_counter()
        with ctx.span(), ctx.span("gateway.publish"):
            done = publish(server, feeds[name])
        publishes.add(start, time.perf_counter())
        version = done["result"]["published_version"]
        versions[version] = name
        rounds += 1
    window = (window_start, time.perf_counter())
    counters = (counters_before, ctx.counters())
    peak = server.peak_rss_mb()
    clock.absorb(server.stop())

    # -- metrics ------------------------------------------------------------------------
    report_setup(ctx, builds, outcome, once=warm)
    rate(len(feeds["A"]), feeding, outcome, "generate_pkg_per_s")

    per_phase_jobs = CLIENTS * per_phase
    rate(per_phase_jobs * JOB_PACKAGES, phases, outcome, "scan_pkg_per_s")
    latencies = []
    for index, (start, end) in enumerate(phases.intervals):
        factor = clock.factor(start, end)
        own = jobs[index * per_phase_jobs : (index + 1) * per_phase_jobs]
        latencies.extend((job.end - job.start) * factor * 1000 for job in own)
    done_jobs = [job for job in jobs if not job.errors]
    outcome.attempted = len(jobs)
    outcome.failed = len(jobs) - len(done_jobs)
    outcome.metrics["peak_rss_mb"] = peak
    quality(
        (
            (package.identifier in job.record["result"]["flagged"], labels[package.identifier])
            for job in done_jobs
            for package in job.packages
        ),
        outcome,
    )

    phase_seconds = phases.calibrated
    factor = phase_seconds / phases.raw
    latencies.sort()
    layers = outcome.layers
    layers["gateway.scan_job_p50_ms"] = _percentile(latencies, 0.50)
    layers["gateway.scan_job_p99_ms"] = _percentile(latencies, 0.99)
    layers["gateway.scan_jobs_per_s"] = len(done_jobs) / phase_seconds
    layers["gateway.submit_ms"] = 1000 * factor * statistics.median(
        job.submitted for job in done_jobs
    )
    layers["gateway.queue_wait_ms"] = 1000 * factor * statistics.median(
        job.record["started_at"] - job.record["created_at"] for job in done_jobs
    )
    layers["gateway.run_ms"] = 1000 * factor * statistics.median(
        job.record["finished_at"] - job.record["started_at"] for job in done_jobs
    )
    layers["gateway.notify_ms"] = 1000 * factor * statistics.median(
        job.seen - job.record["finished_at"] for job in done_jobs
    )
    layers["gateway.publish_s"] = statistics.median(publishes.calibrated_each())
    layers["gateway.request_bytes_per_job"] = statistics.fmean(
        len(json.dumps({"label": "", "packages": [package_to_wire(p) for p in job.packages]}))
        for job in jobs[:per_phase_jobs]
    )
    faults = [fault for job in jobs for fault in job.faults]
    layers["gateway.known_fault_jobs"] = float(len(faults))
    journal = sum(f.stat().st_size for f in server.store.rglob("*.wal"))
    blobs = sum(f.stat().st_size for f in server.store.rglob("*.blob"))
    layers["store.journal_bytes_per_job"] = journal / max(1, server.jobs)
    layers["store.blob_bytes"] = float(blobs)

    ctx.log(
        "%d rounds, %d jobs (%d failed, %d resubmitted after the known fault), "
        "%d publishes; phases %.3fs calibrated (raw %.3fs); job p50 %.2f ms, "
        "p99 %.2f ms calibrated (raw p50 %.2f ms); %.1f jobs/s"
        % (rounds, len(jobs), outcome.failed, len(faults), len(publishes.intervals),
           phase_seconds, phases.raw, layers["gateway.scan_job_p50_ms"], layers["gateway.scan_job_p99_ms"],
           _percentile(sorted((j.end - j.start) * 1000 for j in jobs), 0.5),
           layers["gateway.scan_jobs_per_s"])
    )
    for fault in faults:
        ctx.log(f"known fault (job resubmitted): {fault}")
    for job in jobs:
        for error in job.errors:
            ctx.log(f"failed job: {error}")
    _check(ctx, outcome, server, jobs, versions, feeds, per_phase_jobs)
    # client-side spans stay raw: the client process's sampler is paused
    finish_layers(ctx, outcome, counters, window, len(jobs), calibrate=False)
    return outcome


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def _check(ctx: Context, outcome: Outcome, server: Server, jobs, versions, feeds,
           per_phase_jobs: int) -> None:
    done = [job for job in jobs if not job.errors]
    outcome.check(
        "each job reports the version active when it was submitted",
        all(job.record["result"]["ruleset_version"] == job.version for job in done),
        f"{sum(job.record['result']['ruleset_version'] != job.version for job in done)} differ",
    )
    # the expected verdicts: rules regenerated here from the same feeds with
    # the server's model and seed, scanned in-process
    services = {}
    for name, packages in feeds.items():
        service = ScanService()
        generator = session(ctx, registry=service.registry)
        generator.add_batch(packages)
        record_generation(ctx, generator.generate(label=f"check-{name}"))
        services[name] = service
    mismatched = 0
    for job in done:
        batch = services[versions[job.version]].scan_batch(job.packages)
        flagged = sorted(d.package for d in batch.detections if d.matched_rules)
        mismatched += flagged != sorted(job.record["result"]["flagged"])
    outcome.check(
        "each job's flagged list equals an in-process scan with regenerated rules",
        mismatched == 0 and bool(done),
        f"{mismatched}/{len(done)} differ",
    )
    outcome.digests["ruleset"] = digest(
        {name: service.registry.current().cache_key for name, service in services.items()}
    )
    outcome.digests["detections"] = digest(
        [[[p.identifier for p in job.packages], sorted(job.record["result"]["flagged"])]
         for job in jobs[:per_phase_jobs] if not job.errors]
    )
    # the root fsck does not descend into tenant substores, so each is
    # checked on its own (deep: every blob re-hashed)
    reports = []
    for root in [server.store, *sorted((server.store / "tenants").iterdir())]:
        store, report = open_store(root, deep=True)
        store.close()
        reports.append(report)
    outcome.check(
        "after the server stops, its store and tenant substores reopen ok",
        all(report.ok for report in reports) and len(reports) > 1,
        "; ".join(report.describe().splitlines()[0] for report in reports),
    )
