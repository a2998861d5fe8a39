"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE nn <name>: PASS|FAIL`` line (run pytest
with ``-s`` to see them all) and then asserts, so a red criterion is visible
both in the printed summary and in the pytest report.
"""
import math
import os
import subprocess
import sys
import time

import numpy as np

from oracles import explicit_basis_spectrum
from speccap.capacity import (
    binary_capacity,
    binary_entropy,
    erasure_bounds,
    holevo_bound,
    optimal_alphabet_size,
    optimize_priors,
    two_state_exact,
    two_state_max,
)
from speccap.channel import EncodingEnsemble, compute_gram, output_spectrum
from speccap.numerics import hermitian_eigenvalues
from speccap.spectral import (
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    make_gaussian_basis,
    modulated_overlap,
    quadrature_gram,
    survival_probability,
)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    return ok


def uniform_report(n, spacing, width, response, centering="symmetric"):
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(n, spacing, width, centering))
    return holevo_bound(compute_gram(ensemble, response))


def random_ensemble(rng, n_max=6):
    n = int(rng.integers(2, n_max + 1))
    letters = [GaussianAmplitude(rng.uniform(-4.0, 4.0), rng.uniform(0.4, 2.5)) for _ in range(n)]
    priors = rng.dirichlet(np.ones(n))
    return EncodingEnsemble(letters, priors)


def test_criterion_01_perfect_flat_channel_asymptote():
    start = time.perf_counter()
    report = uniform_report(32, 10.0, 1.0, FlatResponse(1.0))
    elapsed = time.perf_counter() - start
    ok = abs(report.holevo_bits - 5.0) <= 1e-3 and elapsed < 1.0
    assert _report(1, "perfect flat channel reaches log2(N)", ok,
                   f"{report.holevo_bits:.6f} bits in {elapsed:.2f}s")


def test_criterion_02_flat_erasure_limit_from_below():
    report = uniform_report(32, 40.0, 1.0, FlatResponse(0.8))
    ok = abs(report.holevo_bits - 3.2) <= 1e-4
    detail = f"eta=0.8: {report.holevo_bits:.6f} bits"
    for eta in np.arange(0.2, 0.95, 0.1):
        eta = float(eta)
        limit = eta * eta * 5.0
        values = [uniform_report(32, spacing, 1.0, FlatResponse(eta)).holevo_bits
                  for spacing in (5.0, 10.0, 40.0)]
        ok = ok and all(v <= limit + 1e-12 for v in values)
        ok = ok and all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        ok = ok and abs(values[-1] - limit) <= 1e-6
    assert _report(2, "flat loss tends to eta^2 log2(N) from below", ok, detail)


def test_criterion_03_zero_spacing_zero_capacity():
    ok = True
    for n in (2, 8, 32):
        for response in (FlatResponse(0.7), GaussianPeakResponse(1.0, 2.0)):
            report = uniform_report(n, 0.0, 1.0, response)
            ok = ok and report.holevo_bits <= 1e-9 and report.post_selected_bits <= 1e-9
    assert _report(3, "identical letters carry zero information", ok)


def test_criterion_04_flat_channel_post_selection_equality():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        ensemble = random_ensemble(rng)
        for eta in np.arange(0.1, 0.95, 0.1):
            report = holevo_bound(compute_gram(ensemble, FlatResponse(float(eta))))
            worst = max(worst, abs(report.holevo_bits - report.post_selected_bits))
    ok = worst <= 1e-10
    assert _report(4, "flat channel: post-selection costs nothing", ok, f"worst gap {worst:.2e}")


# Post-selection costs exactly the loss-rate term.  With arrival a = 1 - L
# and mean loss L = sum p_i L_i, the post-selected bound a * S(spectrum / a)
# equals S(spectrum) + a log2 a, so from holevo_bound
#     holevo - post = h(L) - sum p_i h(L_i).
# h is strictly concave, so the cost is >= 0 and vanishes exactly when every
# letter loses photons at the same rate.  Strictness therefore holds exactly
# where loss rates differ: in the N >= 4 combs, not in the two letters placed
# at +-spacing/2 about the passband centre, whose true cost is 0.
def test_criterion_05_gaussian_channel_post_selection_strictly_lower():
    failures = []
    strict_gaps, equal_gaps, mismatches = [], [], []
    for n in (2, 4, 8, 16):
        for sigma_eta in (1.0, 2.0, 5.0):
            for spacing in (1.0, 2.0, 4.0):
                response = GaussianPeakResponse(1.0, sigma_eta)
                report = uniform_report(n, spacing, 1.0, response)
                # The same diagonal Gram entries compute_gram turns into loss rates.
                loss = np.array([1.0 - survival_probability(letter, response)
                                 for letter in make_gaussian_basis(n, spacing, 1.0)])
                gap = report.holevo_bits - report.post_selected_bits
                cost = binary_entropy(loss.mean()) - np.mean([binary_entropy(x) for x in loss])
                mismatches.append(abs(gap - cost))
                spread = float(np.ptp(loss))
                if n == 2:
                    equal_gaps.append(abs(gap))
                    cell_ok = spread <= 1e-12 and abs(gap) <= 1e-12
                else:
                    strict_gaps.append(gap)
                    cell_ok = spread > 1e-12 and gap > 1e-9
                if not (cell_ok and abs(gap - cost) <= 1e-12):
                    failures.append((n, sigma_eta, spacing, gap, cost, spread))
    ok = not failures
    detail = (f"min strict gap {min(strict_gaps):.2e}, max equal-loss |gap| {max(equal_gaps):.1e}, "
              f"worst identity mismatch {max(mismatches):.1e}")
    if failures:
        detail += f"; {len(failures)} failing cells (n, sigma_eta, spacing, gap, cost, loss spread): {failures[:3]}"
    assert _report(5, "gaussian channel: post-selection costs h(mean loss) - mean h(loss)", ok, detail)


def test_criterion_06_two_state_closed_form_matches_pipeline():
    worst = 0.0
    for delta in (0.5, 1.0, 2.0, 4.0):
        for lam in (0.5, 1.0, 2.0):
            for p_peak in (0.5, 1.0):
                letters = make_gaussian_basis(2, delta, lam, "symmetric")
                response = GaussianPeakResponse(p_peak, 1.0)
                q0 = survival_probability(letters[0], response)
                q1 = survival_probability(letters[1], response)
                cross = abs(modulated_overlap(letters[0], letters[1], response))
                c = cross / math.sqrt(q0 * q1)
                pipeline = q0 * binary_capacity(0.5 * (1.0 - math.sqrt(1.0 - c * c)))
                worst = max(worst, abs(two_state_exact(delta, lam, p_peak) - pipeline))
    ok = worst <= 1e-8
    assert _report(6, "two-letter closed form equals pipeline value", ok, f"worst {worst:.2e}")


def test_criterion_07_survival_closed_form_and_best_case():
    worst = 0.0
    for d in range(-3, 4):
        for sigma_psi in (0.5, 1.0, 2.0):
            for sigma_eta in (0.5, 1.0, 5.0):
                for p_peak in (0.3, 1.0):
                    amp = GaussianAmplitude(float(d), sigma_psi)
                    response = GaussianPeakResponse(p_peak, sigma_eta)
                    closed = survival_probability(amp, response)
                    quad = quadrature_gram((amp,), response)[0, 0].real
                    worst = max(worst, abs(closed - quad))
    ok = worst <= 1e-9
    detail = f"closed vs quadrature worst {worst:.2e}"

    worst_qmax = 0.0
    centers = np.linspace(-3.0, 3.0, 6001)
    for sigma_psi in (0.5, 1.0, 2.0):
        for sigma_eta in (0.5, 1.0, 5.0):
            for p_peak in (0.3, 1.0):
                response = GaussianPeakResponse(p_peak, sigma_eta)
                best = max(
                    survival_probability(GaussianAmplitude(float(c), sigma_psi), response)
                    for c in centers
                )
                bound = erasure_bounds(sigma_psi, sigma_eta, p_peak, 2).q_max
                worst_qmax = max(worst_qmax, abs(best - bound))
    ok = ok and worst_qmax <= 1e-6
    assert _report(7, "survival closed form and best-case survival", ok,
                   detail + f", q_max worst {worst_qmax:.2e}")


def test_criterion_08_gram_reduction_matches_explicit_basis():
    rng = np.random.default_rng(55)
    worst = 0.0
    cases = []
    for n in (2, 3, 4, 5, 6):
        letters = [GaussianAmplitude(rng.uniform(-3, 3), rng.uniform(0.5, 2.0)) for _ in range(n)]
        priors = rng.dirichlet(np.ones(n))
        response = GaussianPeakResponse(rng.uniform(0.4, 1.0), rng.uniform(0.5, 3.0))
        cases.append((letters, priors, response))
    cases.append((make_gaussian_basis(3, 1.0, 1.0, "zero-start"), np.full(3, 1 / 3), GaussianPeakResponse(1.0, 2.0)))
    # degenerate pair: duplicated letter gives a rank-deficient mixture
    dup = GaussianAmplitude(0.5, 1.0)
    cases.append(([dup, dup, GaussianAmplitude(-1.0, 1.0)], np.full(3, 1 / 3), GaussianPeakResponse(0.9, 1.5)))
    for letters, priors, response in cases:
        spectrum, _ = output_spectrum(compute_gram(EncodingEnsemble(letters, priors), response))
        reference = explicit_basis_spectrum(list(letters), priors, response)
        worst = max(worst, float(np.max(np.abs(spectrum - reference))))
    ok = worst <= 1e-10
    assert _report(8, "Gram reduction equals explicit orthogonal basis", ok, f"worst {worst:.2e}")


def test_criterion_09_finite_optimal_alphabet():
    best_n, best_bits, curve = optimal_alphabet_size(
        GaussianPeakResponse(1.0, 2.0), 1.0, 2.0, "symmetric", n_max=64
    )
    bits = [b for _, b in curve]
    ok = best_bits > bits[63]
    tail = bits[best_n - 1 : best_n + 5]
    ok = ok and all(b2 < b1 for b1, b2 in zip(tail, tail[1:])) and len(tail) == 6
    assert _report(9, "finite optimal alphabet size", ok,
                   f"N*={best_n}, {best_bits:.4f} bits vs {bits[63]:.4f} at N=64")


def _dense_grid_two_state_max(lam, p_peak=1.0, points=1024):
    grid = np.linspace(1e-6, 50.0, points)
    values = [two_state_exact(float(d), lam, p_peak) for d in grid]
    i = int(np.argmax(values))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)], points)
    return max(two_state_exact(float(d), lam, p_peak) for d in fine)


def test_criterion_10_two_state_maximum_curve_shape():
    lams = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    maxima = []
    worst = 0.0
    for lam in lams:
        best, _ = two_state_max(lam, 1.0)
        maxima.append(best)
        worst = max(worst, abs(best - _dense_grid_two_state_max(lam)))
    ok = worst <= 1e-6
    ok = ok and maxima[0] > 0.9 and maxima[-1] < 0.05
    ok = ok and all(b <= a + 1e-9 for a, b in zip(maxima, maxima[1:]))
    assert _report(10, "two-letter maximum capacity curve shape", ok,
                   f"C(0.05)={maxima[0]:.4f}, C(5)={maxima[-1]:.4f}, grid gap {worst:.2e}")


def test_criterion_11_conservation_and_ranges():
    ok = True
    worst_sum = 0.0
    for n in (1, 2, 4, 8, 16, 32):
        for response in (FlatResponse(0.3), FlatResponse(1.0),
                         GaussianPeakResponse(1.0, 1.0), GaussianPeakResponse(0.7, 2.5)):
            for spacing in (0.0, 1.0, 3.0):
                ensemble = EncodingEnsemble.uniform(make_gaussian_basis(n, spacing, 1.0))
                data = compute_gram(ensemble, response)
                raw = hermitian_eigenvalues(data.weighted)
                ok = ok and raw.min() >= -1e-10
                report = holevo_bound(data)
                total = report.spectrum.sum() + report.mean_loss
                worst_sum = max(worst_sum, abs(total - 1.0))
                limit = math.log2(n) if n > 1 else 0.0
                ok = ok and -1e-12 <= report.holevo_bits <= limit + 1e-12
                ok = ok and -1e-12 <= report.post_selected_bits <= limit + 1e-12
    ok = ok and worst_sum <= 1e-10
    assert _report(11, "conservation and range invariants", ok, f"worst sum gap {worst_sum:.2e}")


def test_criterion_12_sweep_output_independent_of_threads(tmp_path):
    args = [
        sys.executable, "-m", "speccap", "sweep", "--mode", "gaussian",
        "--n", "4,8", "--delta-omega", "0:3:1", "--sigma-eta", "1,2",
    ]
    # The child imports speccap from this checkout's src, with or without PYTHONPATH set.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "8"):
        out = tmp_path / f"threads_{threads}.csv"
        env = dict(os.environ, SPECCAP_THREADS=threads, PYTHONPATH=path)
        result = subprocess.run(args + ["--out", str(out)], env=env, capture_output=True)
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    assert _report(12, "sweep output independent of thread count", ok,
                   f"{len(outputs[0])} bytes each")


def test_criterion_13_prior_optimization():
    ok = True
    for spacing in (1.0, 2.0, 4.0):
        ensemble = EncodingEnsemble.uniform(make_gaussian_basis(2, spacing, 1.0, "symmetric"))
        priors, _ = optimize_priors(ensemble, GaussianPeakResponse(1.0, 1.0))
        ok = ok and np.max(np.abs(priors - 0.5)) <= 1e-6

    rng = np.random.default_rng(202)
    for _ in range(20):
        ensemble = random_ensemble(rng)
        response = GaussianPeakResponse(rng.uniform(0.4, 1.0), rng.uniform(0.5, 3.0))
        ensemble_uniform = EncodingEnsemble.uniform(ensemble.letters)
        uniform_bits = holevo_bound(compute_gram(ensemble_uniform, response)).holevo_bits
        _, report = optimize_priors(ensemble_uniform, response)
        ok = ok and report.holevo_bits >= uniform_bits - 1e-12
    assert _report(13, "prior optimization respects symmetry and uniform floor", ok)
