"""The four benchmark workloads.

Each workload has three steps:

- ``setup(seed, workdir)`` makes the seeded inputs (counted in ``setup_s``);
- ``run(inputs, out_dir)`` is the timed part: the first call into speccap
  until its last output file is written; it returns that file's path;
- ``check(inputs, csv_bytes)`` compares one output with the independent
  answers in ``reference.py`` and returns a ``Verdict``.

A seed changes parameters (peak transmission, letter shapes, ensembles),
never the number or size of problems.  On every workload but ``prior_opt``
every seed asks for the same work.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import speccap
from speccap import cli

# Agreement required between speccap and the reference, per output cell.
BITS_TOL = 1e-9
GRAM_TOL = 1e-10
# optimize_priors' own default tolerance, in bits.
OPTIMIZER_TOL = 1e-9


@dataclass
class Verdict:
    """Outcome of checking one output against the reference.

    ``failed`` counts items that raised, carry an error, or miss the
    reference by more than the tolerance.  ``invalid`` lists outputs that
    cannot be right whatever the tolerance (a wrong shape, a value above a
    certified upper bound, a value that disagrees with the priors it was
    reported with); any entry makes the run incorrect.
    """

    attempted: int
    failed: int = 0
    invalid: list = field(default_factory=list)
    shortfall_bits: float = 0.0


def _fmt(value):
    return format(float(value), ".12g")


def _rows(csv_bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))


def _grid(lo, hi, step):
    count = int(round((hi - lo) / step))
    return [lo + k * step for k in range(count + 1)]


def _close(cell, expected, tol):
    return cell != "" and abs(float(cell) - expected) <= tol


def _rng(seed, name):
    return np.random.default_rng([seed, sum(map(ord, name))])


class SweepGauss:
    """README sweep: N=32 Gaussian letters over a 21 x 15 spacing/width grid."""

    name = "sweep_gauss"

    def __init__(self, n=32, delta=(0.0, 10.0, 0.5), sigma_eta=(1.0, 8.0, 0.5)):
        self.n, self.delta, self.sigma_eta = n, delta, sigma_eta

    def setup(self, seed, workdir):
        return {"p_peak": _fmt(_rng(seed, self.name).uniform(0.6, 1.0))}

    def run(self, inputs, out_dir):
        out = Path(out_dir) / "sweep.csv"
        argv = [
            "sweep", "--mode", "gaussian", "--n", str(self.n),
            "--delta-omega", ":".join(map(str, self.delta)),
            "--sigma-eta", ":".join(map(str, self.sigma_eta)),
            "--p-peak", inputs["p_peak"],
            "--out", str(out),
        ]
        if cli.main(argv) != 0:
            raise RuntimeError(f"speccap {' '.join(argv)} failed")
        return out

    def check(self, inputs, csv_bytes):
        p_peak = float(inputs["p_peak"])
        points = [(d, s) for d in _grid(*self.delta) for s in _grid(*self.sigma_eta)]
        centers = np.array([reference.symmetric_comb(self.n, d) for d, _ in points])
        gram = reference.gaussian_gram(
            centers, np.ones_like(centers), p_peak, np.array([s for _, s in points])
        )
        chi, post, mean_loss = reference.holevo(gram)
        rows = _rows(csv_bytes)
        verdict = Verdict(attempted=len(points))
        if len(rows) != len(points):
            verdict.invalid.append(f"{len(rows)} sweep rows, expected {len(points)}")
            verdict.failed = verdict.attempted
            return verdict
        for row, (d, s), c, p, e in zip(rows, points, chi, post, mean_loss):
            key = (row["n"], row["delta_omega"], row["sigma_eta"], row["p_peak"])
            ok = (
                key == (str(self.n), _fmt(d), _fmt(s), _fmt(p_peak))
                and row["error"] == ""
                and _close(row["holevo_bits"], c, BITS_TOL)
                and _close(row["post_selected_bits"], p, BITS_TOL)
                and _close(row["eps_bar"], e, BITS_TOL)
            )
            if not ok:
                verdict.failed += 1
                verdict.invalid.append(f"sweep row {key} disagrees with the reference")
        return verdict


class TabulatedGram:
    """gram-dump of 8 tabulated letters through a tabulated channel on one grid."""

    name = "tabulated_gram"

    def __init__(self, letters=8, points=401):
        self.letters, self.points = letters, points

    def setup(self, seed, workdir):
        rng = _rng(seed, self.name)
        grid = np.linspace(-20.0, 20.0, self.points)
        letters = []
        for _ in range(self.letters):
            c1, c2 = rng.uniform(-8.0, 8.0, 2)
            w1, w2 = rng.uniform(0.8, 2.5, 2)
            second, chirp = rng.uniform(0.2, 1.0), rng.uniform(-0.2, 0.2)
            envelope = np.exp(-((grid - c1) ** 2) / (4 * w1**2)) + second * np.exp(
                -((grid - c2) ** 2) / (4 * w2**2)
            )
            letters.append(envelope * np.exp(1j * chirp * (grid - c1) ** 2))
        peak, ripple = rng.uniform(0.7, 0.95), rng.uniform(0.0, 0.2)
        period, phase, width = rng.uniform(1.0, 4.0), rng.uniform(0, 2 * np.pi), rng.uniform(5.0, 9.0)
        eta = (
            peak
            * (1.0 - ripple * np.cos(2 * np.pi * grid / period + phase))
            / (1.0 + ripple)
            * np.exp(-(grid**2) / (4 * width**2))
        )
        workdir = Path(workdir)
        letter_files = []
        for k, values in enumerate(letters):
            path = workdir / f"letter{k}.csv"
            path.write_text(
                "".join(f"{w:.17g},{v.real:.17g},{v.imag:.17g}\n" for w, v in zip(grid, values))
            )
            letter_files.append(str(path))
        channel_file = workdir / "channel.csv"
        channel_file.write_text("".join(f"{w:.17g},{v:.17g}\n" for w, v in zip(grid, eta)))
        return {
            "grid": grid,
            "letters": letters,
            "eta": eta,
            "letter_files": letter_files,
            "channel_file": str(channel_file),
        }

    def run(self, inputs, out_dir):
        out = Path(out_dir) / "gram.csv"
        argv = ["gram-dump"]
        for path in inputs["letter_files"]:
            argv += ["--letters", path]
        argv += ["--channel-file", inputs["channel_file"], "--out", str(out)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"speccap {' '.join(argv)} failed")
        return out

    def check(self, inputs, csv_bytes):
        gram = reference.tabulated_gram(inputs["grid"], inputs["letters"], inputs["eta"])
        n = gram.shape[0]
        survival = np.real(np.diag(gram))
        spectrum = np.sort(np.linalg.eigvalsh(gram / n))[::-1]
        expected = [("gram", i, j, gram[i, j]) for i in range(n) for j in range(n)]
        expected += [("survival", i, "", v) for i, v in enumerate(survival)]
        expected += [("loss", i, "", 1.0 - v) for i, v in enumerate(survival)]
        expected += [("eigenvalue", i, "", v) for i, v in enumerate(spectrum)]
        rows = _rows(csv_bytes)
        verdict = Verdict(attempted=len(expected))
        if len(rows) != len(expected):
            verdict.invalid.append(f"{len(rows)} gram-dump rows, expected {len(expected)}")
            verdict.failed = verdict.attempted
            return verdict
        for row, (record, i, j, value) in zip(rows, expected):
            key = (row["record"], row["i"], row["j"])
            ok = (
                key == (record, str(i), str(j))
                and _close(row["value_re"], np.real(value), GRAM_TOL)
                and (row["value_im"] == "" if j == "" else _close(row["value_im"], np.imag(value), GRAM_TOL))
            )
            if not ok:
                verdict.failed += 1
                verdict.invalid.append(f"gram-dump row {key} disagrees with the reference")
        return verdict


class PriorOpt:
    """optimize_priors on one random Gaussian ensemble of each of 4, 6 and 8 letters.

    Centers are drawn from [-3, 3] and widths from [0.5, 1.5].  Many such
    ensembles have an optimum that gives some letter zero weight, which
    today's optimizer can fail on; such a raise is a failed item, not an
    incorrect run.  The optimizer's iteration count, and so the time of a
    repetition, varies up to about 2.5-fold between seeds.
    """

    name = "prior_opt"
    response = (0.9, 1.5)

    def __init__(self, sizes=(4, 6, 8)):
        self.sizes = sizes

    def setup(self, seed, workdir):
        rng = _rng(seed, self.name)
        ensembles = [(rng.uniform(-3.0, 3.0, n), rng.uniform(0.5, 1.5, n)) for n in self.sizes]
        letters = [
            speccap.EncodingEnsemble.uniform(
                [speccap.GaussianAmplitude(float(c), float(w)) for c, w in zip(centers, widths)]
            )
            for centers, widths in ensembles
        ]
        return {"ensembles": ensembles, "speccap_ensembles": letters}

    def run(self, inputs, out_dir):
        response = speccap.GaussianPeakResponse(*self.response)
        rows = []
        for k, ensemble in enumerate(inputs["speccap_ensembles"]):
            try:
                priors, report = speccap.optimize_priors(ensemble, response)
            except (speccap.ValidationError, speccap.ComputationError) as exc:
                rows.append([k, ensemble.n, "", "", "", str(exc)])
                continue
            rows.append([
                k, ensemble.n, _fmt(report.holevo_bits), _fmt(report.post_selected_bits),
                ";".join(_fmt(p) for p in priors), "",
            ])
        out = Path(out_dir) / "priors.csv"
        with open(out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["ensemble", "n", "holevo_bits", "post_selected_bits", "priors", "error"])
            writer.writerows(rows)
        return out

    def references(self, inputs):
        """``(gram, chi, upper)`` per ensemble: the capacity lies in ``[chi, upper]``."""
        refs = []
        for centers, widths in inputs["ensembles"]:
            gram = reference.gaussian_gram(centers, widths, *self.response)
            _, chi, upper = reference.blahut_arimoto(gram)
            refs.append((gram, chi, upper))
        return refs

    def check(self, inputs, csv_bytes):
        rows = _rows(csv_bytes)
        verdict = Verdict(attempted=len(inputs["ensembles"]))
        if len(rows) != verdict.attempted:
            verdict.invalid.append(f"{len(rows)} optimizer rows, expected {verdict.attempted}")
            verdict.failed = verdict.attempted
            return verdict
        shortfalls = []
        for row, (gram, chi, upper) in zip(rows, self.references(inputs)):
            if row["error"] != "":
                verdict.failed += 1
                continue
            reported = float(row["holevo_bits"])
            priors = np.array([float(p) for p in row["priors"].split(";")])
            at_priors = float(reference.holevo(gram, priors)[0])
            # Comparisons are written so that a NaN fails them.
            if not (abs(priors.sum() - 1.0) <= 1e-9 and priors.min() >= 0.0):
                verdict.invalid.append(f"ensemble {row['ensemble']}: priors off the simplex")
            if not abs(at_priors - reported) <= BITS_TOL:
                verdict.invalid.append(
                    f"ensemble {row['ensemble']}: reported {reported!r} bits, priors give {at_priors!r}"
                )
            if not reported <= upper + BITS_TOL:
                verdict.invalid.append(
                    f"ensemble {row['ensemble']}: {reported!r} bits exceeds the capacity bound {upper!r}"
                )
            shortfalls.append(chi - reported)
            if not chi - reported <= OPTIMIZER_TOL:
                verdict.failed += 1
        verdict.shortfall_bits = max(shortfalls, default=0.0)
        return verdict


class AlphabetScan:
    """optimal-n: one uniform-prior Holevo bound per alphabet size 1..128."""

    name = "alphabet_scan"
    sigma_eta, sigma_psi, delta = 2.0, 1.0, 2.0

    def __init__(self, n_max=128):
        self.n_max = n_max

    def setup(self, seed, workdir):
        return {"p_peak": _fmt(_rng(seed, self.name).uniform(0.6, 1.0))}

    def run(self, inputs, out_dir):
        out = Path(out_dir) / "optimal.csv"
        argv = [
            "optimal-n", "--sigma-eta", _fmt(self.sigma_eta), "--sigma-psi", _fmt(self.sigma_psi),
            "--delta-omega", _fmt(self.delta), "--n-max", str(self.n_max),
            "--p-peak", inputs["p_peak"], "--out", str(out),
        ]
        if cli.main(argv) != 0:
            raise RuntimeError(f"speccap {' '.join(argv)} failed")
        return out

    def check(self, inputs, csv_bytes):
        p_peak = float(inputs["p_peak"])
        bits = np.array([
            float(reference.holevo(reference.gaussian_gram(
                reference.symmetric_comb(n, self.delta), np.full(n, self.sigma_psi), p_peak, self.sigma_eta
            ))[0])
            for n in range(1, self.n_max + 1)
        ])
        rows = _rows(csv_bytes)
        verdict = Verdict(attempted=self.n_max + 1)
        if len(rows) != verdict.attempted:
            verdict.invalid.append(f"{len(rows)} optimal-n rows, expected {verdict.attempted}")
            verdict.failed = verdict.attempted
            return verdict
        for n, row in enumerate(rows[:-1], start=1):
            if (row["kind"], row["n"]) != ("curve", str(n)) or not _close(row["bits"], bits[n - 1], BITS_TOL):
                verdict.failed += 1
                verdict.invalid.append(f"optimal-n curve row n={n} disagrees with the reference")
        best = rows[-1]
        chosen = int(best["n"]) if best["n"].isdigit() and 1 <= int(best["n"]) <= self.n_max else None
        # The chosen size must be a reference maximum; ties within BITS_TOL are a roundoff call.
        if (
            best["kind"] != "optimal"
            or chosen is None
            or bits[chosen - 1] < bits.max() - BITS_TOL
            or not _close(best["bits"], bits[chosen - 1], BITS_TOL)
        ):
            verdict.failed += 1
            verdict.invalid.append(f"optimal-n chose {best['n']}, reference maximum at {int(bits.argmax()) + 1}")
        return verdict


WORKLOADS = {w.name: w for w in (SweepGauss(), TabulatedGram(), PriorOpt(), AlphabetScan())}
