#!/usr/bin/env python3
"""Benchmark of gwpskit on the eight Gorenstein spaces of genus <= 26.

Run from the root of a checkout, which holds the gwpskit sources in src/:

    python3 perfbench/run.py --workload alpha-cold --seed 1 --seconds 20 --trace 0

One process, one thread, library defaults.  The seed only permutes the order
in which the spaces are processed; every output is checked against
src/gwpskit/data/expected_values.tsv.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 1 the metrics are the per-layer ones of perfbench/spans.py and the
spans are written to .perfbench/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import COUNT_METRICS, Tracer, census, summarize

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("wps", "lattice", "toric", "resolution", "tangent", "exactla", "cache", "cli")
WORKLOADS = ("alpha-cold", "betti-verify")
# The eight spaces of genus <= 26, in reference-table order.
SPACES = (
    (2, 3, 3, 4),
    (2, 3, 10, 15),
    (1, 3, 4, 4),
    (1, 4, 5, 10),
    (1, 6, 14, 21),
    (1, 3, 8, 12),
    (1, 2, 3, 6),
    (1, 2, 2, 5),
)
LARGEST = (1, 2, 2, 5)
CLASSIFY_BOUND = 50
SETUP_PROBES = 5
# gwpskit computes in one thread and never calls BLAS, but OpenBLAS starts a
# worker per core when numpy is imported; on a small shared host those idle
# workers made a fresh interpreter's start-up vary in 50 ms steps.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_gwpskit() -> dict:
    """Import the gwpskit modules from this checkout's src/, never from an
    installed copy."""
    pkg = SRC / "gwpskit"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no gwpskit sources in {SRC}; run from the root of a checkout")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    gw = {name: importlib.import_module(f"gwpskit.{name}") for name in MODULES}
    if Path(gw["cli"].__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"gwpskit was imported from {gw['cli'].__file__}, not {pkg}")
    return gw


def setup(gw):
    """Enumerate and order the 14 spaces, load the reference table, and return
    the benchmark's spaces with their reference rows."""
    cli, wps = gw["cli"], gw["wps"]
    order = cli.table_order(wps.enumerate_gorenstein(CLASSIFY_BOUND))
    expected = cli.load_expected()
    listed = {sp.weights for sp in order}
    missing = [w for w in SPACES if w not in listed or w not in expected]
    if missing:
        raise BenchError(f"spaces missing from the classification or reference: {missing}")
    return [wps.WeightedSpace(w) for w in SPACES], expected


def probe_setup() -> float:
    """Median wall time of fresh interpreters that import gwpskit and run setup."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child every 50 ms, and
        # the measured time comes out in 50 ms steps.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- workloads ---------------------------------------------------------------


def alpha_step(gw, expected, cache_dir: str):
    """cli.compute_alpha against one cache directory, checked against alpha_S."""
    cli = gw["cli"]

    def step(sp):
        rep = cli.compute_alpha(sp, cli.RunConfig(cache_dir=cache_dir))
        want = expected[sp.weights]["alpha_S"]
        return [] if rep.alpha_S == want else [f"alpha_S {rep.alpha_S}, reference {want}"]

    return step


def betti_step(gw, expected):
    """The sequence of `gwpskit betti --verify` for one space, checked against
    beta_1, beta_2 and the quartic verdict."""
    cli, toric, resolution = gw["cli"], gw["toric"], gw["resolution"]
    fields = cli.RunConfig().fields()

    def step(sp):
        exp = expected[sp.weights]
        generation = toric.check_degree3_generation(sp)
        b1 = toric.beta1(sp)
        b2 = resolution.beta2(sp, generation=generation)
        ideal = toric.quadric_generators(sp)
        syzygies = resolution.linear_syzygies(ideal, fields=fields)
        quartic = resolution.check_no_quartic_syzygies(ideal, syzygies, fields=fields)
        errors = []
        if not generation.connected:
            errors.append(f"cubic fiber disconnected at {generation.witness}")
        if b1 != exp["beta_1"]:
            errors.append(f"beta_1 {b1}, reference {exp['beta_1']}")
        if b2 != exp["beta_2"]:
            errors.append(f"beta_2 {b2}, reference {exp['beta_2']}")
        if not quartic.ok:
            errors.append(f"quartic syzygy at {quartic.witness}")
        return errors

    return step


# -- passes ------------------------------------------------------------------


def run_pass(step, order, pass_no: int, tracer=None) -> dict:
    """One checked pass over the spaces.  An exception or a mismatch fails the
    space; the pass continues and the space stays in the timing."""
    times = {}
    failed = []
    start = time.perf_counter()
    for sp in order:
        span = tracer.open_span("space", f"{pass_no}:{sp}") if tracer else None
        t0 = time.perf_counter()
        try:
            errors = step(sp)
        except Exception as exc:
            traceback.print_exc()
            errors = [f"{type(exc).__name__}: {exc}"]
        times[sp.weights] = time.perf_counter() - t0
        if span:
            tracer.close_span(span)
        if errors:
            failed.append(f"{sp}: {'; '.join(errors)}")
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall": wall, "times": times, "failed": failed, "rss_mb": rss_mb}


def measure(step_for, spaces, rng, seconds: float, tmp: Path, tracer=None,
            first_no: int = 1) -> list[dict]:
    """Passes, each over a fresh permutation of the spaces and with a fresh
    directory for step_for, until another pass of the median length would end
    after `seconds`.  At least one pass runs."""
    passes = []
    start = time.perf_counter()
    while True:
        order = rng.sample(spaces, len(spaces))
        pass_dir = Path(tempfile.mkdtemp(dir=tmp))
        first = len(tracer.spans) if tracer else 0
        try:
            result = run_pass(step_for(str(pass_dir)), order, first_no + len(passes), tracer)
        finally:
            shutil.rmtree(pass_dir)
        if tracer:
            result.update(first=first, last=len(tracer.spans),
                          counts=tracer.take_counts(), captured=tracer.take_captured())
        passes.append(result)
        print(f"pass {first_no + len(passes) - 1}: {result['wall']:.3f} s, "
              f"{LARGEST} {result['times'][LARGEST]:.3f} s, "
              f"{len(result['failed'])} failed" + (" (traced)" if tracer else ""), flush=True)
        for line in result["failed"]:
            print(f"  FAIL {line}", flush=True)
        typical = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


# -- context -----------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the gwpskit sources and data and the benchmark's own code;
    keys the count records."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    paths = sorted((SRC / "gwpskit").rglob("*")) + sorted(here.glob("*.py"))
    for path in paths:
        if path.is_file() and path.suffix in (".py", ".tsv"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(gw, args) -> dict:
    import numpy

    config = gw["cli"].RunConfig()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": getattr(config, "threads", None),
        "blas_threads": BLAS_THREADS,
        "primes": list(config.primes),
        "spaces": [list(w) for w in SPACES],
    }


# -- main --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def untraced_metrics(passes, setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        # Peak so far at the end of the first pass: later passes can raise it,
        # and how many fit in --seconds depends on the machine's speed.
        "peak_rss_mb": passes[0]["rss_mb"],
        "setup_s": setup_s,
    }


def check_counts(exact: list[dict], record: Path) -> list[str]:
    """Counts must be identical in every traced pass, and in every traced run
    of the same workload on the same sources, whatever the seed.  The first
    traced run writes the record that later runs compare against."""
    reference, source = exact[0], "pass 1"
    if record.is_file():
        reference, source = json.loads(record.read_text()), f"the record {record.name}"
    else:
        record.write_text(json.dumps(reference, indent=0, sort_keys=True))
    mismatches = []
    for i, values in enumerate(exact):
        diff = [f"{k} {v} != {reference.get(k)}"
                for k, v in sorted(values.items()) if v != reference.get(k)]
        if diff:
            mismatches.append(f"pass {i + 1} differs from {source}: " + ", ".join(diff))
    return mismatches


def traced_metrics(gw, tracer, setup_spans: int, untraced: dict, traced: list[dict],
                   record: Path):
    """Per-layer metrics of the traced passes: medians of times, and exact
    counts checked by check_counts.  Returns (metrics, mismatches)."""
    per_pass = []
    for p in traced:
        values = summarize(tracer.spans, p["first"], p["last"])
        values.update({name: p["counts"][name] for name in COUNT_METRICS})
        values.update(census(gw, p["captured"]))
        per_pass.append(values)
    exact = [{k: v for k, v in values.items() if not k.endswith("_s")} for values in per_pass]
    mismatches = check_counts(exact, record)
    metrics = dict(exact[0])
    for name in per_pass[0]:
        if name.endswith("_s"):
            metrics[name] = statistics.median(values[name] for values in per_pass)
    metrics["wps.enumerate_s"] = summarize(tracer.spans, 0, setup_spans)["wps.enumerate_s"]
    rows, calls = metrics["tangent.block_rows"], metrics["exactla.kernel_calls"]
    metrics["tangent.useful_row_ratio"] = metrics["tangent.block_rank"] / rows if rows else 0.0
    metrics["exactla.kernel_first_prime_ratio"] = (
        metrics["resolution.cubic_blocks"] / calls if calls else 0.0)
    metrics["largest_space_s"] = statistics.median(p["times"][LARGEST] for p in traced)
    metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    metrics["trace.untraced_wall_s"] = untraced["wall"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["wall"]
    return metrics, mismatches


def units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(import_gwpskit())
        return 0
    gw = import_gwpskit()
    setup_s = probe_setup() if not args.trace else 0.0
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(gw)
    spaces, expected = setup(gw)
    setup_spans = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.uninstall()
    ctx = context(gw, args)
    print("context " + json.dumps(ctx), flush=True)

    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.workload == "alpha-cold":
            def step_for(pass_dir):
                return alpha_step(gw, expected, pass_dir)
        else:
            step = betti_step(gw, expected)

            def step_for(pass_dir):
                return step

        if not args.trace:
            passes = measure(step_for, spaces, rng, args.seconds, tmp)
            metrics = untraced_metrics(passes, setup_s)
            mismatches = []
        else:
            # One untraced pass to compare against, then the traced passes.
            passes = measure(step_for, spaces, rng, 0, tmp)
            tracer.install(gw)
            try:
                traced = measure(step_for, spaces, rng, args.seconds, tmp, tracer, 2)
            finally:
                tracer.uninstall()
            passes += traced
            record = OUT / f"counts-{args.workload}-{ctx['source_sha256'][:16]}.json"
            metrics, mismatches = traced_metrics(gw, tracer, setup_spans, passes[0], traced,
                                                 record)
            for line in mismatches:
                print(f"COUNT MISMATCH {line}", flush=True)
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({"context": ctx, "fields": ["name", "start", "end", "parent", "trace"],
                           "spans": tracer.spans}, fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    walls = sorted(p["wall"] for p in passes)
    print(f"passes {len(walls)}: median {statistics.median(walls):.3f} s, "
          f"max {walls[-1]:.3f} s; check_fail_ratio {failed}/{attempted}", flush=True)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
