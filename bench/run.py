"""speccap benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload sweep_gauss --seed 1 --seconds 60 --trace 0

A run is split into about ``CHUNKS`` fresh worker processes
(bench/worker.py), one after another, each with one thread for speccap and
BLAS and importing speccap from the checkout's ``src``.  Each worker sets
up once and repeats the workload for its share of ``--seconds``, so set-up
is sampled across the whole run.  ``--trace 0`` prints the end-to-end
metrics that BENCHMARK.json names; ``--trace 1`` traces every other worker
and prints the per-layer metrics.  The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it show the same numbers for a reader, plus the layer metrics that
BENCHMARK.json does not list, ``failed_frac`` and provenance.  The full
report is also written to ``bench/out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
WORKLOADS = ("sweep_gauss", "tabulated_gram", "prior_opt", "alphabet_scan")
# A run is split into about this many workers; it always has at least MIN_CHUNKS.
CHUNKS = 10
MIN_CHUNKS = 3
# A run must end within 180 s; a worker is killed this long after the run starts.
DEADLINE_S = 170.0


def worker(args, env, started):
    """Run bench/worker.py to completion; return its JSON report or exit non-zero."""
    command = [sys.executable, str(ROOT / "bench" / "worker.py"), *args]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: worker did not finish within {DEADLINE_S:.0f} s of the start") from None
    if done.returncode != 0:
        raise SystemExit(f"bench: worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, q):
    """The ``q``-th percentile, interpolated between samples; 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_of(name):
    """Unit of a metric BENCHMARK.json does not list, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_bits", "bits"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def verify(chunks):
    """``(attempted, failed, problems)`` over every repetition of every worker.

    Only the first worker checks its outputs against the reference; every
    repetition must have written the same bytes as one it checked.
    """
    verdicts = chunks[0]["verdicts"]
    problems = [p for v in verdicts.values() for p in v["invalid"]]
    digests = {r["sha256"] for c in chunks for r in c["reps"]}
    if len(digests) > 1:
        problems.append(f"repetitions wrote {len(digests)} different outputs from the same inputs")
    attempted = failed = 0
    for chunk in chunks:
        for rep in chunk["reps"]:
            verdict = verdicts.get(rep["sha256"])
            if verdict is not None:
                attempted += verdict["attempted"]
                failed += verdict["failed"]
    return attempted, failed, problems


def end_to_end(chunks):
    # Times are the fastest of the run: other tenants of a shared machine only
    # ever slow work down, in bursts of seconds to minutes (bench/README.md).
    reps = [r for c in chunks if not c["traced"] for r in c["reps"]]
    samples = {
        "wall_s": ([r["wall_s"] for r in reps], "repetitions"),
        "cpu_s": ([r["cpu_s"] for r in reps], "repetitions"),
        "setup_s": ([c["setup_s"] for c in chunks], "fresh workers"),
    }
    values = {name: min(v) for name, (v, _) in samples.items()}
    values["peak_rss_mb"] = max(c["peak_rss_mb"] for c in chunks)
    notes = [
        "%s: fastest of %d %s (median %.4f, q1 %.4f, q3 %.4f)"
        % (name, len(v), what, statistics.median(v), *quartiles(v))
        for name, (v, what) in samples.items()
    ]
    notes.append("peak_rss_mb: largest peak resident set of the workers")
    return values, notes


def per_layer(chunks):
    traced = [c for c in chunks if c["traced"]]
    layers = [layer for c in traced for layer in c["layers"]]
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    for name in ("channel.compute_gram", "capacity.holevo_bound"):
        durations = [d for c in traced for d in c["durations_s"][name]]
        for q in (50, 95):
            values[f"{name}.p{q}_ms"] = percentile(durations, q) * 1e3
    shortfalls = [v["shortfall_bits"] for v in chunks[0]["verdicts"].values()]
    values["capacity.optimize_priors.shortfall_bits"] = max(shortfalls)
    walls = {
        flag: min(r["wall_s"] for c in chunks if c["traced"] == flag for r in c["reps"])
        for flag in (True, False)
    }
    values["trace.overhead_s"] = walls[True] - walls[False]
    notes = [
        f"counts and self times: median of {len(layers)} traced repetitions",
        "percentiles: over every call in the traced repetitions",
        "shortfall_bits: largest reference capacity minus reported value",
        "trace.overhead_s: fastest traced minus fastest untraced repetition",
    ]
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "speccap" / "__init__.py").is_file():
        print(f"bench: no speccap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        SPECCAP_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    chunks, chunk_s = [], 0.0
    # Start another worker only if one as long as the last still fits in --seconds.
    while len(chunks) < MIN_CHUNKS or time.perf_counter() - started + chunk_s <= args.seconds:
        begin = time.perf_counter()
        traced = bool(args.trace) and len(chunks) % 2 == 1
        chunk = worker(
            ["--workload", args.workload, "--seed", str(args.seed), "--out", str(OUT),
             "--seconds", str(args.seconds / CHUNKS), "--trace", str(int(traced)),
             *(["--check"] if not chunks else [])],
            env, started,
        )
        chunks.append({**chunk, "traced": traced})
        chunk_s = time.perf_counter() - begin

    values, notes = per_layer(chunks) if args.trace else end_to_end(chunks)
    attempted, failed, problems = verify(chunks)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in listed.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "chunks": chunks}, indent=1)
    )

    reps = sum(len(c["reps"]) for c in chunks)
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{reps} repetitions in {len(chunks)} workers, {time.perf_counter() - started:.1f} s")
    for name in sorted(values, key=lambda name: name not in listed):
        mark = "" if name in listed else "  (not in BENCHMARK.json)"
        print(f"  {name:45s} {values[name]:<14.6g} {listed.get(name, unit_of(name)):6s}{mark}")
    print(f"  {'failed_frac':45s} {failed / attempted:<14.6g} {'1':6s} {failed} of {attempted} items")
    for note in notes:
        print(f"  ({note})")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(f"  provenance {json.dumps(chunks[0]['provenance'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
