"""Spectral amplitudes, channel responses, and their overlap integrals.

Frequencies are dimensionless offsets from a carrier; amplitudes are
unit-normalized (``integral |psi|^2 = 1``) and channels are amplitude
transmissions in [0, 1].  Overlaps of Gaussian amplitudes through flat or
Gaussian-passband channels have closed forms.  Everything else goes through
one quadrature node rule for a whole set of letters: Gauss-Kronrod panels on
the segments between the merged grid points of the tabulated factors and
the centre and tails of every factor, bisected where the Kronrod and Gauss
matrices disagree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ValidationError
from .numerics import DEFAULT_QUADRATURE, weighted_gram


@dataclass(frozen=True)
class GaussianAmplitude:
    """Real Gaussian amplitude: peak at ``center``, intensity std ``width``.

    Keeps the closed-form constants ``_a = 1/(4 width^2)`` and ``_acc = _a
    center^2`` (as the responses keep ``_power_k``) in plain attributes, not
    fields, so they take no part in equality, hashing or ``repr``.
    """

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValidationError("amplitude center must be finite")
        if not 0 < self.width < math.inf:
            raise ValidationError("amplitude width must be positive and finite")
        a = 0.25 / (self.width * self.width)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_acc", a * self.center * self.center)

    def value(self, omega):
        norm = (2.0 * math.pi * self.width**2) ** -0.25
        return norm * np.exp(-((omega - self.center) ** 2) / (4.0 * self.width**2))

    def _extent(self):
        return self.center, self.width


@dataclass(frozen=True)
class TabulatedAmplitude:
    """Complex amplitude sampled on an ascending grid, zero outside it.

    Linear interpolation between samples; renormalized at construction so
    the interpolant carries unit probability.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        values = np.array(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("tabulated grid needs at least 2 points")
        if values.shape != grid.shape:
            raise ValidationError("grid and values must have equal length")
        _require_finite(grid, values)
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("tabulated grid must be strictly ascending")
        norm_sq = _interp_norm_squared(grid, values)
        if norm_sq <= 0.0:
            raise ValidationError("tabulated amplitude is identically zero")
        values = values / math.sqrt(norm_sq)
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def value(self, omega):
        return np.interp(omega, self.grid, self.values, left=0.0, right=0.0)

    def _extent(self):
        lo, hi = float(self.grid[0]), float(self.grid[-1])
        return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _require_finite(grid, values):
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise ValidationError("tabulated grid and values must be finite")


def _interp_norm_squared(grid, values):
    """Exact integral of |linear interpolant|^2 (quadratic per segment)."""
    steps = np.diff(grid)
    left = values[:-1]
    delta = np.diff(values)
    seg = np.abs(left) ** 2 + np.real(np.conj(left) * delta) + np.abs(delta) ** 2 / 3.0
    return float(np.sum(steps * seg))


@dataclass(frozen=True)
class FlatResponse:
    """Frequency-independent amplitude transmission; closed-form ``_power_k = (transmission^2, 0)``."""

    transmission: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValidationError("flat transmission must lie in [0, 1]")
        object.__setattr__(self, "_power_k", (self.transmission**2, 0.0))

    def value(self, omega):
        return self.transmission + 0.0 * np.asarray(omega, dtype=float)

    def _extent(self):
        return None


@dataclass(frozen=True)
class GaussianPeakResponse:
    """Gaussian passband centred at zero with peak transmission probability.

    For the closed form it keeps ``_power_k = (peak_probability, 1/(2
    width^2))``, the peak power and exponent rate of ``eta^2``.
    """

    peak_probability: float
    width: float

    def __post_init__(self):
        if not 0.0 <= self.peak_probability <= 1.0:
            raise ValidationError("peak transmission probability must lie in [0, 1]")
        if not self.width > 0:
            raise ValidationError("channel width must be positive")
        object.__setattr__(self, "_power_k", (self.peak_probability, 0.5 / self.width**2))

    def value(self, omega):
        omega = np.asarray(omega, dtype=float)
        return math.sqrt(self.peak_probability) * np.exp(
            -(omega**2) / (4.0 * self.width**2)
        )

    def _extent(self):
        return 0.0, self.width


@dataclass(frozen=True)
class TabulatedResponse:
    """Amplitude transmission sampled on an ascending grid, zero outside."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        values = np.array(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("tabulated grid needs at least 2 points")
        if values.shape != grid.shape:
            raise ValidationError("grid and values must have equal length")
        _require_finite(grid, values)
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("tabulated grid must be strictly ascending")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValidationError("channel transmission values must lie in [0, 1]")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def value(self, omega):
        return np.interp(omega, self.grid, self.values, left=0.0, right=0.0)

    def _extent(self):
        lo, hi = float(self.grid[0]), float(self.grid[-1])
        return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _integration_window(extents, truncation_sigmas):
    """Enclosing ``(lo, hi)`` that covers every ``(c, w)`` extent to ``truncation_sigmas`` widths."""
    centers, widths = zip(*extents)
    lo = min(centers) - truncation_sigmas * max(widths)
    hi = max(centers) + truncation_sigmas * max(widths)
    return lo, hi


# Channels whose overlaps with Gaussian letters have the closed form.
_CLOSED_FORM_RESPONSES = (FlatResponse, GaussianPeakResponse)


def closed_form_applies(letters, response):
    """Whether every overlap of ``letters`` through ``response`` has the Gaussian closed form."""
    # modulated_overlap tests the same rule inline for its two letters, so a
    # new closed-form letter type goes in both places.
    return isinstance(response, _CLOSED_FORM_RESPONSES) and all(
        isinstance(letter, GaussianAmplitude) for letter in letters
    )


def quadrature_gram(letters, response, spec=DEFAULT_QUADRATURE):
    """All overlaps ``integral eta^2 conj(psi_i) psi_j`` of ``letters`` by one node rule.

    The window covers every letter and the channel to ``truncation_sigmas``
    widths.  Tabulated factors kink the integrand at their grid points, so
    the merged grid points inside the window split it into segments on
    which the Gauss-Kronrod panels see a smooth integrand.  Every factor
    with an extent ``(c, w)`` also puts breakpoints at ``c +-
    truncation_sigmas * w``, because the Kronrod and Gauss rules share their
    nodes: a narrow letter that fell between all of a wide panel's nodes
    would read as converged.  A breakpoint at ``c`` puts each flank of a
    peak in panels of its own.
    """
    parts = (*letters, response)
    extents = [extent for extent in (part._extent() for part in parts) if extent is not None]
    lo, hi = _integration_window(extents, spec.truncation_sigmas)
    grids = [part.grid for part in parts if isinstance(part, (TabulatedAmplitude, TabulatedResponse))]
    reach = spec.truncation_sigmas
    seeds = [(c - reach * w, c, c + reach * w) for c, w in extents]
    points = np.sort(np.concatenate([[lo, hi], np.ravel(seeds), *grids]))
    points = points[(points >= lo) & (points <= hi)]
    edges = points[np.concatenate([[True], np.diff(points) > 0])]

    def sample(omega):
        eta = response.value(omega)
        return np.stack([letter.value(omega) for letter in letters], axis=-1), eta * eta

    return weighted_gram(sample, edges, spec)


def modulated_overlap(amp_a, amp_b, response, spec=DEFAULT_QUADRATURE, method="auto"):
    """Inner product of two channel-modulated amplitudes.

    Computes ``integral eta(w)^2 conj(psi_a(w)) psi_b(w) dw``.  With
    ``method="auto"`` the Gaussian closed form is used whenever both
    amplitudes are Gaussian and the channel is flat or a Gaussian peak;
    ``"analytic"`` and ``"quadrature"`` force one route (mainly for
    cross-validation).  Quadrature is the one- or two-letter case of
    :func:`quadrature_gram`.

    The closed form: with ``a = 1/(4 w_a^2)``, ``b = 1/(4 w_b^2)`` and
    ``k = 1/(2 w^2)`` for a channel of width ``w`` (0 when flat), completing
    the square gives ``C * sqrt(pi/A) * exp(-E)`` with ``A = a + b + k`` and
    ``E = (a b (c_a - c_b)^2 + k (a c_a^2 + b c_b^2)) / A``, a sum of
    non-negative terms that cannot cancel.  Each letter carries its ``a``
    and ``a c^2`` and the response its ``(power, k)``, computed once at
    construction, so a pair costs only this arithmetic.  A flat channel
    (``k = 0``) adds no ``k`` term at all, so a letter whose ``a c^2``
    overflows to inf (``|c|`` beyond about 1e154) gives no ``0 * inf``; a
    square ``(c_a - c_b)^2`` that overflows is inf, so the pair is orthogonal.
    """
    analytic_ok = (
        isinstance(amp_a, GaussianAmplitude)
        and isinstance(amp_b, GaussianAmplitude)
        and isinstance(response, _CLOSED_FORM_RESPONSES)
    )
    if analytic_ok and method in ("auto", "analytic"):
        ca, cb = amp_a.center, amp_b.center
        a, b = amp_a._a, amp_b._a
        power, k = response._power_k
        quad = a + b + k
        try:
            square = (ca - cb) ** 2  # libm pow; a product would round differently
        except OverflowError:
            square = math.inf
        exponent = (a * b * square + (k and k * (amp_a._acc + amp_b._acc))) / quad
        # C = power / sqrt(2 pi w_a w_b), so C * sqrt(pi/A) = power * sqrt(1 / (2 w_a w_b A)).
        return complex(power * math.sqrt(0.5 / (amp_a.width * amp_b.width * quad)) * math.exp(-exponent))
    if method not in ("auto", "analytic", "quadrature"):
        raise ValidationError(f"unknown overlap method {method!r}")
    if method == "analytic":
        raise ValidationError("analytic overlap requires Gaussian amplitudes and a flat or Gaussian channel")
    letters = (amp_a,) if amp_a is amp_b else (amp_a, amp_b)
    return complex(quadrature_gram(letters, response, spec)[0, -1])


def survival_probability(amp, response, spec=DEFAULT_QUADRATURE, method="auto"):
    """Probability that the photon is transmitted rather than absorbed."""
    q = modulated_overlap(amp, amp, response, spec=spec, method=method).real
    if q < -1e-10 or q > 1.0 + 1e-10:
        raise ValidationError(f"survival probability {q!r} outside [0, 1]")
    return min(max(q, 0.0), 1.0)


def make_gaussian_basis(n, spacing, width, centering="symmetric"):
    """Equally spaced identical Gaussian letters.

    ``zero-start`` puts the first letter at 0; ``symmetric`` shifts the comb
    so its mean sits at 0 (two letters end up at -spacing/2, +spacing/2).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError("letter count must be a positive integer")
    if spacing < 0:
        raise ValidationError("letter spacing must be non-negative")
    if not width > 0:
        raise ValidationError("letter width must be positive")
    if centering == "zero-start":
        offset = 0.0
    elif centering == "symmetric":
        offset = -0.5 * (n - 1) * spacing
    else:
        raise ValidationError(f"unknown centering {centering!r}")
    return [GaussianAmplitude(offset + j * spacing, width) for j in range(n)]


def _parse_table(path, columns):
    """Rows of ``columns`` comma-separated floats; blank and ``#`` lines are skipped.

    A file that is not UTF-8 text raises ValidationError naming it.  Every
    field is converted in one pass; only a file that holds a ``#`` pays a
    per-line comment check.  A file that fails that pass is converted again
    line by line, which names its first bad line (and accepts fields padded
    with characters that ``str.strip`` removes but ``float`` rejects, such as
    U+001C).  Lines are counted at newline characters only, as iterating the
    file does.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not valid UTF-8 text") from None
    lines = list(map(str.strip, text.split("\n")))
    data = list(filter(None, lines))
    if "#" in text:
        data = [line for line in data if not line.startswith("#")]
    try:
        if set(map(str.count, data, repeat(","))) != {columns - 1}:
            raise ValueError("wrong column count")
        values = list(map(float, ",".join(data).split(",")))
    except ValueError:
        values = _parse_lines(path, lines, columns)
    if len(data) < 2:
        raise ValidationError(f"{path}: needs at least 2 data rows")
    return np.array(values, dtype=float).reshape(len(data), columns)


def _parse_lines(path, lines, columns):
    """Fields of the data lines in order, converted one line at a time."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != columns:
            raise ValidationError(
                f"{path}:{lineno}: expected {columns} comma-separated values, got {len(fields)}"
            )
        try:
            values += [float(field) for field in fields]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return values


def load_tabulated_amplitude(path):
    """Read ``omega,re,im`` lines (``#`` comments allowed) into an amplitude."""
    table = _parse_table(path, 3)
    with np.errstate(invalid="ignore"):  # 1j * inf is NaN, which the amplitude rejects
        values = table[:, 1] + 1j * table[:, 2]
    try:
        return TabulatedAmplitude(table[:, 0], values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_tabulated_response(path):
    """Read ``omega,eta`` lines (``#`` comments allowed) into a channel response."""
    table = _parse_table(path, 2)
    try:
        return TabulatedResponse(table[:, 0], table[:, 1])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
