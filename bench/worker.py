"""Run one slice of a benchmark workload in this fresh process; print a JSON report.

Started by run.py with ``PYTHONPATH`` set to the checkout's ``src`` and one
thread for speccap and BLAS.  Usage::

    python bench/worker.py --workload NAME --seed N --seconds T --trace 0|1 --out DIR [--check]

Only the standard library is imported before the set-up clock starts, so
``setup_s`` includes importing speccap (and numpy with it).  The workload
then repeats until ``--seconds`` is spent, at least once; with ``--trace 1``
every repetition is traced.  With ``--check``, each distinct output is
checked against the reference after timing.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layer_metrics(tracer):
    """Per-layer counts and self times of the spans recorded in one repetition."""
    from tracer import EIGENSOLVER

    summary = tracer.summary()

    def stat(name, key):
        return summary[name][key] if name in summary else 0

    metrics = {
        f"{EIGENSOLVER}.calls": stat(EIGENSOLVER, "calls"),
        f"{EIGENSOLVER}.self_s": stat(EIGENSOLVER, "self_s"),
        f"{EIGENSOLVER}.dim_cubed_sum": stat(EIGENSOLVER, "weight"),
        "spectral.value.points": tracer.points,
        "spectral.load_tabulated.self_s": stat("spectral.load_tabulated_amplitude", "self_s")
        + stat("spectral.load_tabulated_response", "self_s"),
        "capacity.optimize_priors.eigensolves": tracer.descendants("capacity.optimize_priors", EIGENSOLVER),
    }
    for name in (
        "spectral.modulated_overlap",
        "channel.compute_gram",
        "numerics.integrate",
        "capacity.optimize_priors",
    ):
        metrics[f"{name}.calls"] = stat(name, "calls")
    for name in (
        "spectral.modulated_overlap",
        "channel.compute_gram",
        "numerics.integrate",
        "capacity.optimize_priors",
        "capacity.holevo_bound",
        "channel.output_spectrum",
        "capacity.optimal_alphabet_size",
        "cli.main",
    ):
        metrics[f"{name}.self_s"] = stat(name, "self_s")
    durations = {
        name: summary[name]["durations"].tolist() if name in summary else []
        for name in ("channel.compute_gram", "capacity.holevo_bound")
    }
    return metrics, durations


def measure(workload, inputs, workdir, seconds, trace, spans_path):
    """Repeat the workload for ``seconds``; return timings, outputs and layer data.

    With ``trace``, the spans of the last repetition go to ``spans_path``.
    """
    from tracer import Tracer

    tracer = Tracer() if trace else None
    reps, outputs, layers, durations = [], {}, [], {}
    out_dir = workdir / "out"
    out_dir.mkdir()
    begin = time.perf_counter()
    while True:
        if trace:
            tracer.reset()
        with tracer.installed() if trace else contextlib.nullcontext():
            cpu0, wall0 = time.process_time(), time.perf_counter()
            path = workload.run(inputs, out_dir)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if trace:
            metrics, calls = layer_metrics(tracer)
            layers.append(metrics)
            for name, values in calls.items():
                durations.setdefault(name, []).extend(values)
        data = Path(path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        outputs.setdefault(digest, (Path(path).name, data))
        reps.append({"wall_s": wall, "cpu_s": cpu, "sha256": digest})
        if time.perf_counter() - begin + wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        import numpy as np

        name, start, end, parent, _ = tracer.spans()
        np.savez_compressed(
            spans_path,
            names=np.array(tracer.names), name=name, start=start, end=end, parent=parent,
        )
    return reps, outputs, layers, durations, peak_rss_mb


def check(workload, inputs, outputs):
    """The reference's verdict on every distinct output, by its sha256."""
    verdicts = {}
    for digest, (_, data) in outputs.items():
        verdict = workload.check(inputs, data)
        verdicts[digest] = {
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "invalid": verdict.invalid[:20],
            "shortfall_bits": verdict.shortfall_bits,
        }
    return verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    setup_start = time.perf_counter()
    import speccap
    import workloads

    source = Path(speccap.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"speccap was imported from {source}, not from this checkout's src")
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.out))
    try:
        inputs = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - setup_start
        reps, outputs, layers, durations, peak_rss_mb = measure(
            workload, inputs, workdir, args.seconds, args.trace, args.out / f"spans-{workload.name}.npz"
        )
    finally:
        shutil.rmtree(workdir)

    import numpy as np

    report = {
        "setup_s": setup_s,
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "durations_s": durations,
        "verdicts": check(workload, inputs, outputs) if args.check else {},
        "provenance": {
            "seed": args.seed,
            "outputs": {digest: name for digest, (name, _) in outputs.items()},
            "SPECCAP_THREADS": os.environ.get("SPECCAP_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "speccap": speccap.__version__,
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
