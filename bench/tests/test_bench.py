"""Tests of the benchmark itself: workloads, references and tracer.

Run from the repository root with ``python -m pytest bench/tests``.
"""
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reference
import speccap
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "sweep_gauss": workloads.SweepGauss(n=4, delta=(0.0, 2.0, 1.0), sigma_eta=(1.0, 2.0, 1.0)),
    "tabulated_gram": workloads.TabulatedGram(letters=3, points=41),
    "prior_opt": workloads.PriorOpt(sizes=(3, 4)),
    "alphabet_scan": workloads.AlphabetScan(n_max=6),
}


def run_tiny(name, tmp_path, seed=3):
    workload = TINY[name]
    inputs = workload.setup(seed, tmp_path)
    data = workload.run(inputs, tmp_path).read_bytes()
    return workload, inputs, data


def test_tiny_sizes_cover_every_workload():
    assert TINY.keys() == workloads.WORKLOADS.keys()


@pytest.mark.parametrize("name", ["sweep_gauss", "tabulated_gram", "alphabet_scan"])
def test_tiny_workload_matches_reference(name, tmp_path):
    workload, inputs, data = run_tiny(name, tmp_path)
    verdict = workload.check(inputs, data)
    assert verdict.attempted > 0
    assert verdict.invalid == []
    assert verdict.failed == 0


def test_tiny_prior_opt_is_valid_and_reports_its_shortfall(tmp_path):
    workload, inputs, data = run_tiny("prior_opt", tmp_path)
    verdict = workload.check(inputs, data)
    assert verdict.attempted == 2
    assert verdict.invalid == []
    rows = workloads._rows(data)
    refs = workload.references(inputs)
    shortfalls = [chi - float(row["holevo_bits"]) for row, (_, chi, _) in zip(rows, refs) if row["error"] == ""]
    errors = sum(row["error"] != "" for row in rows)
    assert verdict.shortfall_bits == max(shortfalls, default=0.0)
    assert verdict.failed == errors + sum(s > workloads.OPTIMIZER_TOL for s in shortfalls)


def test_prior_opt_error_row_is_a_failed_item_not_an_incorrect_run(tmp_path):
    workload, inputs, data = run_tiny("prior_opt", tmp_path)
    for column, value in (("holevo_bits", ""), ("post_selected_bits", ""), ("priors", ""),
                          ("error", "optimizer did not converge")):
        data = _replace_cell(data, 0, column, value)
    verdict = workload.check(inputs, data)
    assert verdict.failed >= 1
    assert verdict.invalid == []


def test_seed_changes_inputs_not_problem_size(tmp_path):
    tabulated = workloads.WORKLOADS["tabulated_gram"]
    a, b, again = (tabulated.setup(seed, tmp_path) for seed in (1, 2, 1))
    assert [v.shape for v in a["letters"]] == [v.shape for v in b["letters"]]
    assert not np.array_equal(a["eta"], b["eta"])
    assert np.array_equal(a["eta"], again["eta"])
    opt = workloads.WORKLOADS["prior_opt"]
    sizes = [[len(c) for c, _ in opt.setup(seed, tmp_path)["ensembles"]] for seed in (1, 2)]
    assert sizes == [[4, 6, 8], [4, 6, 8]]


def _replace_cell(data, row, column, value):
    rows = workloads._rows(data)
    rows[row][column] = value
    lines = [",".join(rows[0].keys())] + [",".join(r.values()) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def test_check_catches_a_wrong_holevo_value(tmp_path):
    workload, inputs, data = run_tiny("sweep_gauss", tmp_path)
    rows = workloads._rows(data)
    wrong = float(rows[1]["holevo_bits"]) + 1e-7
    verdict = workload.check(inputs, _replace_cell(data, 1, "holevo_bits", repr(wrong)))
    assert verdict.failed == 1
    assert verdict.invalid


def test_check_catches_a_wrong_gram_entry(tmp_path):
    workload, inputs, data = run_tiny("tabulated_gram", tmp_path)
    rows = workloads._rows(data)
    wrong = float(rows[1]["value_re"]) + 1e-8
    verdict = workload.check(inputs, _replace_cell(data, 1, "value_re", repr(wrong)))
    assert verdict.failed == 1


def test_check_flags_a_value_above_capacity(tmp_path):
    workload, inputs, data = run_tiny("prior_opt", tmp_path)
    rows = workloads._rows(data)
    verdict = workload.check(inputs, _replace_cell(data, 0, "holevo_bits", repr(float(rows[0]["holevo_bits"]) + 1e-3)))
    assert any("exceeds the capacity bound" in problem for problem in verdict.invalid)
    verdict = workload.check(inputs, _replace_cell(data, 0, "holevo_bits", "nan"))
    assert verdict.invalid and verdict.failed >= 1


def test_gaussian_gram_matches_direct_quadrature():
    rng = np.random.default_rng(0)
    centers, widths = rng.uniform(-2, 2, 3), rng.uniform(0.5, 1.5, 3)
    omega = np.linspace(-30, 30, 200_001)
    psi = (2 * np.pi * widths[:, None] ** 2) ** -0.25 * np.exp(
        -((omega - centers[:, None]) ** 2) / (4 * widths[:, None] ** 2)
    )
    eta_sq = 0.7 * np.exp(-(omega**2) / (2 * 1.3**2))
    direct = np.trapezoid(eta_sq * psi[:, None, :] * psi[None, :, :], omega, axis=-1)
    assert np.allclose(reference.gaussian_gram(centers, widths, 0.7, 1.3), direct, atol=1e-12)


def test_blahut_arimoto_certifies_known_capacities():
    # Two orthogonal lossless letters carry exactly one bit.
    _, chi, upper = reference.blahut_arimoto(np.eye(2))
    assert chi == pytest.approx(1.0, abs=1e-12) and upper - chi <= 1e-10
    # Its optimum beats every prior tried at random, and its bound holds.
    gram = reference.gaussian_gram(np.array([-1.0, 0.0, 1.5]), np.array([0.6, 0.9, 0.5]), 0.9, 1.5)
    _, chi, upper = reference.blahut_arimoto(gram)
    rng = np.random.default_rng(1)
    for priors in rng.dirichlet(np.ones(3), size=200):
        assert reference.holevo(gram, priors)[0] <= upper + 1e-12


def test_letter_divergences_average_to_holevo():
    gram = reference.gaussian_gram(np.array([-1.0, 0.2, 1.0, 2.0]), np.full(4, 0.7), 0.8, 1.2)
    priors = np.array([0.1, 0.2, 0.3, 0.4])
    assert priors @ reference.letter_divergences(gram, priors) == pytest.approx(
        reference.holevo(gram, priors)[0], abs=1e-12
    )


def _bindings():
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "speccap" or name.startswith("speccap."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for class_name in tracing.VALUE_CLASSES:
        found[(class_name, "value")] = getattr(speccap, class_name).__dict__["value"]
    return found


def test_tracer_rebinds_every_copy_and_restores_them():
    before = _bindings()
    t = tracing.Tracer()
    with t.installed():
        assert speccap.channel.hermitian_eigenvalues is not before[("speccap.channel", "hermitian_eigenvalues")]
        assert speccap.capacity.hermitian_eigenvalues is speccap.numerics.hermitian_eigenvalues
        assert speccap.hermitian_eigenvalues is speccap.numerics.hermitian_eigenvalues
        gram = speccap.compute_gram(
            speccap.EncodingEnsemble.uniform(speccap.make_gaussian_basis(3, 1.0, 1.0)),
            speccap.GaussianPeakResponse(1.0, 2.0),
        )
        speccap.holevo_bound(gram)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    summary = t.summary()
    assert summary["numerics.hermitian_eigenvalues"]["calls"] == 1
    assert summary["spectral.modulated_overlap"]["calls"] == 6
    assert summary["numerics.hermitian_eigenvalues"]["weight"] == 27


def test_tracer_restores_bindings_when_the_workload_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("workload failed")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_value_points(tmp_path):
    t = tracing.Tracer()
    response = speccap.TabulatedResponse([-1.0, 0.0, 1.0], [0.5, 1.0, 0.5])
    with t.installed():
        response.value(np.zeros(7))
        speccap.FlatResponse(1.0).value(np.zeros(3))
    assert t.points == 10


def test_self_time_of_synthetic_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 7].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 7.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [5.0, 2.0, 1.0, 2.0]
    assert own.sum() == end[0] - start[0]


def test_self_time_adds_up_for_nested_wrapped_calls():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = t.span("inner", lambda: None)
    middle = t.span("middle", lambda: (inner(), inner()))
    outer = t.span("outer", lambda: (middle(), inner()))
    outer()
    summary = t.summary()
    _, start, end, _, _ = t.spans()
    total = sum(s["self_s"] for s in summary.values())
    assert total == end[0] - start[0]
    assert summary["inner"]["calls"] == 3
    assert summary["middle"]["self_s"] == (end[1] - start[1]) - 2.0
    assert t.descendants("middle", "inner") == 2
    assert t.descendants("outer", "inner") == 3


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_gauss", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert time.perf_counter() - started < 60


def test_run_counts_items_over_every_worker_and_flags_differing_outputs():
    import run

    verdict = {"attempted": 5, "failed": 1, "invalid": [], "shortfall_bits": 0.0}
    chunks = [
        {"verdicts": {"a": verdict}, "reps": [{"sha256": "a"}, {"sha256": "a"}]},
        {"verdicts": {}, "reps": [{"sha256": "a"}]},
    ]
    assert run.verify(chunks) == (15, 3, [])
    chunks[1]["reps"].append({"sha256": "b"})
    attempted, failed, problems = run.verify(chunks)
    assert (attempted, failed) == (15, 3)
    assert problems == ["repetitions wrote 2 different outputs from the same inputs"]
