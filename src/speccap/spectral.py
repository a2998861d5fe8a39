"""Spectral amplitudes, channel responses, and their overlap integrals.

Frequencies are dimensionless offsets from a carrier; amplitudes are
unit-normalized (``integral |psi|^2 = 1``) and channels are amplitude
transmissions in [0, 1].  :func:`gram_matrix` is the entry point from a set
of letters to their Gram matrix.  Overlaps of Gaussian amplitudes
through flat or Gaussian-passband channels have closed forms, and all-tabulated
inputs an exact 3-point Gauss-Legendre rule between their merged grid points.
Everything else goes through one fixed 10-point Gauss-Legendre rule for a whole
set of letters, on the segments between those grid points and a breakpoint at
every width of each Gaussian factor, out to ``TRUNCATION_SIGMAS`` widths.
:func:`comb_grams` builds the closed-form matrices of Gaussian letters given as two
arrays, centres and widths, through many channels as one stack, in one numpy
broadcast (:func:`comb_overlaps`) over the pairs of one upper triangle, mirrored by
:func:`numerics.mirror_upper`; of a symmetric comb, :func:`comb_overlaps` builds
only the distinct pairs of :func:`numerics.mirror_quarter`.  :func:`gram_matrix`
still builds its closed form pair by pair, because the benchmark's tracer test
counts those :func:`modulated_overlap` calls; once it no longer does (ROADMAP
item 2), one matrix becomes a one-member stack and the pair loop goes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ComputationError, ValidationError
from . import numerics
from .numerics import mirror_upper

# Every Gaussian factor of a quadrature integrand puts a breakpoint at each width out to this many from its centre.
TRUNCATION_SIGMAS = 10.0

# Most letters a comb may have, checked before any of its arrays is built.  It keeps one sweep
# block (16 points) within a budget of 512 MB traced by tracemalloc, on either route: the peak
# grows as the square of the letter count, and at 1024 letters is 306 MB through whole matrices
# and 223 MB through their distinct entries, so 2048 would take about 1.2 GB.  1024 is the
# largest power of two within the budget, 8 times the N = 128 the performance target names.
MAX_LETTERS = 1024

# (2 pi)^(-1/4): a Gaussian amplitude of width w peaks at this over sqrt(w).
_GAUSSIAN_NORM = (2.0 * math.pi) ** -0.25


@dataclass(frozen=True)
class GaussianAmplitude:
    """Real Gaussian amplitude: peak at ``center``, intensity std ``width``.

    Keeps the closed-form constants ``_a = 1/(4 width^2)`` and ``_acc = _a
    center^2`` (as the responses keep ``_power_k``), and the sample norm
    ``_norm = (2 pi)^(-1/4) width^(-1/2)``, in plain attributes, not fields,
    so they take no part in equality, hashing or ``repr``.  A width
    whose square is not a positive finite float, or whose ``_a`` squared
    overflows (below about 4.3e-78 or above about 1.3e154), raises
    ValidationError: the closed form would divide by zero or meet ``inf * 0``.
    Both parameters are stored as Python floats, so these limits hold for
    numpy scalars too.
    """

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValidationError("amplitude center must be finite")
        if not 0 < self.width < math.inf:
            raise ValidationError("amplitude width must be positive and finite")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "width", float(self.width))
        square = self.width * self.width
        if not (0.0 < square < math.inf and (0.25 / square) * (0.25 / square) < math.inf):
            raise ValidationError(f"amplitude width {self.width!r} is outside the closed form's range")
        a = 0.25 / square
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_acc", a * self.center * self.center)
        object.__setattr__(self, "_norm", _GAUSSIAN_NORM / math.sqrt(self.width))

    def value(self, omega):
        # Scaled before squaring and normed by sqrt(width), so no accepted width
        # overflows.  A square past the largest float (far from the centre) is
        # inf, and exp(-inf) is 0; numpy warns of it unless told not to.
        return self._norm * np.exp(-np.square((omega - self.center) / (2.0 * self.width)))

    def _extent(self):
        return self.center, self.width


@dataclass(frozen=True)
class _Tabulated:
    """Finite samples on a strictly ascending grid of at least 2 points and finite span, stored read-only.

    A subclass sets the ``_dtype`` of ``values`` and checks them in ``_checked``.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        values = np.array(self.values, dtype=self._dtype)
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("tabulated grid needs at least 2 points")
        if values.shape != grid.shape:
            raise ValidationError("grid and values must have equal length")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValidationError("tabulated grid and values must be finite")
        if not (np.all(grid[1:] > grid[:-1]) and math.isfinite(float(grid[-1]) - float(grid[0]))):
            raise ValidationError("tabulated grid must be strictly ascending and span a finite width")
        values = self._checked(grid, values)
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TabulatedAmplitude(_Tabulated):
    """Complex amplitude sampled on an ascending grid, zero outside it.

    Linear interpolation between samples; renormalized at construction so
    the interpolant carries unit probability.
    """

    _dtype = complex

    def _checked(self, grid, values):
        # Scaled exactly, by a power of 2 that brings the largest part into [0.25, 0.5),
        # so that squaring samples near the float limits neither overflows nor underflows,
        # and the norm, at most half the span, stays finite on the widest finite grid.
        parts = values.view(float)  # real and imaginary parts, interleaved
        _, exponent = math.frexp(float(np.abs(parts).max()))
        values = np.ldexp(parts, -exponent - 1).view(complex)
        nodes, weights = _segment_rule(grid)  # exact for the quadratic |interpolant|^2
        norm_sq = float(weights @ np.abs(np.interp(nodes, grid, values)) ** 2)
        if norm_sq <= 0.0:
            raise ValidationError("tabulated amplitude is identically zero")
        return values / math.sqrt(norm_sq)

    def value(self, omega):
        return np.interp(omega, self.grid, self.values, left=0.0, right=0.0)


def _segment_rule(grid):
    """Nodes and weights of the 3-point Gauss-Legendre rule, exact up to degree 5, on every segment of ``grid``."""
    steps = np.diff(grid)[:, None]
    nodes = grid[:-1, None] + steps * (0.5 + 0.5 * np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0]))
    # The weights (steps [5, 8, 5]) / 18 as 8 (steps [5/8, 1, 5/8]) / 18: the same floats
    # for steps above 6.5e-307, and no product exceeds the step, so a step near the
    # largest float gives finite weights.
    return nodes.ravel(), (steps * np.array([0.625, 1.0, 0.625]) / 18.0 * 8.0).ravel()


# The 10-point Gauss-Legendre rule on [-1, 1], exact up to degree 19: the nodes
# +-x_k, ascending, and their weights (the Gauss half of QUADPACK's dqk21,
# Piessens et al., 1983).
_GAUSS_X = np.array([
    0.148874338981631210884826001129720, 0.433395394129247190799265943165784,
    0.679409568299024406234327365114874, 0.865063366688984510732096688423493,
    0.973906528517171720077964012084452,
])
_GAUSS_W = np.array([
    0.295524224714752870173892994651338, 0.269266719309996355091226921569469,
    0.219086362515982043995534934228163, 0.149451349150580593145776339657697,
    0.066671344308688137593568809893332,
])
_GAUSS_NODES = np.concatenate([-_GAUSS_X[::-1], _GAUSS_X])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_W[::-1], _GAUSS_W])


def _gauss_rule(edges):
    """Nodes and weights of the 10-point Gauss-Legendre rule on every segment between ``edges``."""
    half = 0.5 * np.diff(edges)[:, None]
    middle = 0.5 * edges[:-1, None] + 0.5 * edges[1:, None]  # no sum past the largest float
    return (middle + half * _GAUSS_NODES).ravel(), (half * _GAUSS_WEIGHTS).ravel()


@dataclass(frozen=True)
class FlatResponse:
    """Frequency-independent amplitude transmission; closed-form ``_power_k = (transmission^2, 0)``."""

    transmission: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValidationError("flat transmission must lie in [0, 1]")
        object.__setattr__(self, "transmission", float(self.transmission))
        object.__setattr__(self, "_power_k", (self.transmission**2, 0.0))

    def value(self, omega):
        return self.transmission + 0.0 * np.asarray(omega, dtype=float)


@dataclass(frozen=True)
class GaussianPeakResponse:
    """Gaussian passband centred at zero with peak transmission probability.

    For the closed form it keeps ``_power_k = (peak_probability, 1/(2
    width^2))``, the peak power and exponent rate of ``eta^2``.  As for a
    letter's ``_a``, a width whose rate is not a positive finite float, or
    whose rate squared overflows (below about 6.1e-78 or above about
    1.3e154), raises ValidationError; ``FlatResponse`` is the channel of
    infinite width.  Both parameters are stored as Python floats, as a
    letter's are.
    """

    peak_probability: float
    width: float

    def __post_init__(self):
        if not 0.0 <= self.peak_probability <= 1.0:
            raise ValidationError("peak transmission probability must lie in [0, 1]")
        if not self.width > 0:
            raise ValidationError("channel width must be positive")
        object.__setattr__(self, "peak_probability", float(self.peak_probability))
        object.__setattr__(self, "width", float(self.width))
        try:
            rate = 0.5 / self.width**2
        except (OverflowError, ZeroDivisionError):
            rate = 0.0
        if not (0.0 < rate < math.inf and rate * rate < math.inf):
            raise ValidationError(f"channel width {self.width!r} is outside the closed form's range")
        object.__setattr__(self, "_power_k", (self.peak_probability, rate))

    def value(self, omega):
        # Scaled before squaring, as for GaussianAmplitude.
        scaled = np.square(np.asarray(omega, dtype=float) / (2.0 * self.width))
        return math.sqrt(self.peak_probability) * np.exp(-scaled)

    def _extent(self):
        return 0.0, self.width


@dataclass(frozen=True)
class TabulatedResponse(_Tabulated):
    """Amplitude transmission sampled on an ascending grid, zero outside."""

    _dtype = float

    def _checked(self, grid, values):
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValidationError("channel transmission values must lie in [0, 1]")
        return values

    def value(self, omega):
        return np.interp(omega, self.grid, self.values, left=0.0, right=0.0)


def _has_closed_form(letters, response):
    """The closed form's route rule: all ``letters`` are Gaussian, and ``response`` is flat or a Gaussian peak."""
    if not isinstance(response, (FlatResponse, GaussianPeakResponse)):
        return False
    for letter in letters:
        if not isinstance(letter, GaussianAmplitude):
            return False
    return True


def gram_matrix(letters, response):
    """The exactly Hermitian matrix of all overlaps ``integral eta^2 conj(psi_i) psi_j`` of ``letters``.

    Gaussian letters through a flat or Gaussian channel take the closed form
    of :func:`modulated_overlap` pair by pair, in one pass over the upper
    triangle.  Every other set of letters goes through :func:`quadrature_gram`,
    exact for all-tabulated inputs and a fixed rule otherwise.  All three routes
    end in :func:`numerics.mirror_upper`, which mirrors their packed upper
    triangle.
    """
    if not _has_closed_form(letters, response):
        return quadrature_gram(letters, response)
    upper = [modulated_overlap(a, b, response) for a, b in combinations_with_replacement(letters, 2)]
    return mirror_upper(np.array(upper, dtype=complex))


def comb_grams(comb, responses):
    """The real ``(B, N, N)`` stack of Gram matrices of the Gaussian letters of ``comb`` through each of ``responses``.

    ``comb`` is the letters' ``center`` and ``width`` as two float arrays, as
    :func:`gaussian_comb` returns them, and the responses are flat or Gaussian
    peaks.  :func:`comb_overlaps` evaluates the ``N (N + 1) / 2`` pairs ``i <= j``
    of :func:`numerics.upper_triangle`, and :func:`numerics.mirror_upper` writes
    each pair's value to both ``(i, j)`` and ``(j, i)``, so every member is
    exactly symmetric and float64.  Member ``b`` equals ``gram_matrix(letters,
    responses[b])`` but where numpy's ``exp`` and libm's round 1 ulp apart.  A
    symmetric comb's matrices are also exactly centrosymmetric; the sweep builds
    only their distinct entries, ``comb_overlaps(comb, responses,
    numerics.mirror_quarter(N))``, and never this whole stack.
    """
    return mirror_upper(comb_overlaps(comb, responses, numerics.upper_triangle(len(comb[0]))))


def comb_overlaps(comb, responses, pairs):
    """The real ``(B, P)`` overlaps of the letter pairs ``(rows, cols) = pairs`` of ``comb`` through each response.

    ``comb`` is as :func:`comb_grams` takes it.  Each letter's ``a = 1/(4 width^2)``
    and ``a center^2`` take the float operations of ``GaussianAmplitude``'s ``_a``
    and ``_acc``.  One numpy broadcast of :func:`modulated_overlap`'s closed form
    over the ``P`` pairs ``(rows[p], cols[p])``, in its operand order and with its
    float-limit rules, so a pair's value does not depend on which other pairs are
    asked for; only the responses' ``(power, k)`` vary along the stack.
    """
    center, width = comb
    rows, cols = pairs
    power, k = np.reshape([response._power_k for response in responses], (-1, 2, 1)).swapaxes(0, 1)
    with np.errstate(over="ignore"):
        a = 0.25 / (width * width)
        acc = a * center * center  # inf past |center| of about 1e154, as a letter's _acc
        # float_power is libm pow, as ** on a float; np.power and np.square round some squares otherwise.
        square = np.float_power(center[rows] - center[cols], 2)
        # A pair whose square is inf, even where a b underflows to 0, gets an inf exponent: it is orthogonal.
        spread = np.multiply(a[rows] * a[cols], square, out=np.full_like(square, np.inf), where=square < np.inf)
        # The negated exponent: (-k) s - spread is exactly -(k s + spread).  A flat
        # channel (k = 0) adds no k term, so an inf a c^2 meets no 0 * inf.
        exponent = np.multiply(-k, acc[rows] + acc[cols], out=np.zeros((len(power), rows.size)), where=k > 0)
        exponent -= spread
        gram = a[rows] + a[cols] + k  # quad = a_i + a_j + k; in place, then the prefactor and the entries
        exponent /= gram
        # exp of anything below about -745.13 is +0.0; those lanes, a quarter of a README
        # comb's, skip exp, which is many times slower on them.  A NaN lane still takes it.
        exponent = np.exp(exponent, out=np.zeros_like(exponent), where=~(exponent < -745.2))
        gram *= width[rows] * width[cols]
        np.sqrt(np.divide(0.5, gram, out=gram), out=gram)
        gram *= power
        gram *= exponent
    return gram


def quadrature_gram(letters, response):
    """All overlaps ``integral eta^2 conj(psi_i) psi_j`` of ``letters`` by one node rule.

    The matrix is one ``X^H diag(w eta^2) X`` over the nodes of one rule on
    every segment between breakpoints, mirrored.  The breakpoints are the merged
    grid points of the tabulated factors, where they kink the integrand, and
    ``c + k w`` for ``k = -TRUNCATION_SIGMAS ... TRUNCATION_SIGMAS`` of every
    Gaussian factor (letter or channel) of centre ``c`` and width ``w``.
    Without a Gaussian factor the integrand is a polynomial of degree at most 4
    on every segment, which :func:`_segment_rule` integrates exactly; otherwise
    :func:`_gauss_rule` puts 10 nodes on every segment.

    The fixed rule's error is bounded a priori.  On a segment of length ``h``
    the 10-point rule errs by ``h^21 (10!)^4 / (21 (20!)^3) f^(20)(xi)``, about
    5.7e-31 ``h^21 f^(20)``.  Where ``h`` is no longer than the narrowest
    Gaussian factor, the integrand is a polynomial ``p`` of degree at most 3
    (the tabulated factors) times one Gaussian of standard deviation at least
    ``h / sqrt(2)`` and peak ``G``; the Hermite-function bound ``|He_m(t)
    exp(-t^2 / 2)| <= 1.09 sqrt(m!)`` and Markov's inequality for ``p`` bound
    the error by 3e-15 ``h G max |p|``.  Past ``TRUNCATION_SIGMAS`` widths a
    letter's amplitude is below ``exp(-25)``, 1.4e-11 of its peak, and the
    channel's ``eta^2`` below ``exp(-50)``; a segment there may be longer than
    the factor is wide, and the rule may miss that Gaussian tail, as it misses
    what lies past the outermost breakpoint.  For Gaussian letters ``i`` and
    ``j``, ``w_i <= w_j``, through a channel with ``eta <= 1``, the entry is
    thus within 3e-14 from the rule and 1e-11 ``sqrt(w_i / w_j)`` from the
    tails, plus the node rounding below.

    Abscissae near a Gaussian letter's centre ``c`` are rounded by up to
    ``eps |c| / 2``, over which a Gaussian of width ``w`` changes by a relative
    ``eps |c| / (2 w)``.  A letter narrower than ``eps |c| / 2e-10``, about
    1.1e-6 ``|c|``, where that passes 1e-10, raises ValidationError naming its
    centre and width, as do breakpoints that span more than the largest float.
    """
    resolution = np.finfo(float).eps / 2e-10
    for letter in letters:
        if isinstance(letter, GaussianAmplitude) and letter.width < resolution * abs(letter.center):
            raise ValidationError(
                f"letter centred at {letter.center!r} with width {letter.width!r} is narrower than "
                f"quadrature resolves there ({resolution:.3g} of the centre's magnitude)"
            )
    parts = (*letters, response)
    gaussians = [part._extent() for part in parts if isinstance(part, (GaussianAmplitude, GaussianPeakResponse))]
    grids = [part.grid for part in parts if isinstance(part, _Tabulated)]
    steps = np.arange(-TRUNCATION_SIGMAS, TRUNCATION_SIGMAS + 1.0)
    edges = np.unique(np.concatenate([*(center + width * steps for center, width in gaussians), *grids]))
    if not math.isfinite(float(edges[-1]) - float(edges[0])):
        raise ValidationError(f"quadrature breakpoints {edges[0]:g} to {edges[-1]:g} span more than the largest float")
    nodes, weights = _gauss_rule(edges) if gaussians else _segment_rule(edges)
    # A Gaussian factor far from its centre, next to a much wider one, squares
    # past the largest float: its sample is exp(-inf) = 0, as it should be.
    with np.errstate(over="ignore"):
        eta = response.value(nodes)
        columns = np.stack([letter.value(nodes) for letter in letters], axis=-1)
    gram = (columns.conj().T * (weights * (eta * eta))) @ columns
    return mirror_upper(gram[numerics.upper_triangle(len(letters))])


def modulated_overlap(amp_a, amp_b, response):
    """Inner product of two channel-modulated amplitudes.

    Computes ``integral eta(w)^2 conj(psi_a(w)) psi_b(w) dw``: by the
    Gaussian closed form when both amplitudes are Gaussian and the channel
    is flat or a Gaussian peak, otherwise as the one- or two-letter case of
    :func:`quadrature_gram`.

    The closed form: with ``a = 1/(4 w_a^2)``, ``b = 1/(4 w_b^2)`` and
    ``k = 1/(2 w^2)`` for a channel of width ``w`` (0 when flat), completing
    the square gives ``C * sqrt(pi/A) * exp(-E)`` with ``A = a + b + k`` and
    ``E = (a b (c_a - c_b)^2 + k (a c_a^2 + b c_b^2)) / A``, a sum of
    non-negative terms that cannot cancel.  Each letter carries its ``a``
    and ``a c^2`` and the response its ``(power, k)``, computed once at
    construction, so a pair costs only this arithmetic.  A flat channel
    (``k = 0``) adds no ``k`` term at all, so a letter whose ``a c^2``
    overflows to inf (``|c|`` beyond about 1e154) gives no ``0 * inf``.  A
    pair whose square ``(c_a - c_b)^2`` overflows, or whose gap itself is
    inf, is orthogonal: its overlap is 0, where ``a b`` may underflow to 0
    and meet the inf square.
    """
    if _has_closed_form((amp_a, amp_b), response):
        ca, cb = amp_a.center, amp_b.center
        a, b = amp_a._a, amp_b._a
        power, k = response._power_k
        quad = a + b + k
        try:
            square = (ca - cb) ** 2  # libm pow; a product would round differently
        except OverflowError:
            return 0j
        if square == math.inf:
            return 0j
        exponent = (a * b * square + (k and k * (amp_a._acc + amp_b._acc))) / quad
        # C = power / sqrt(2 pi w_a w_b), so C * sqrt(pi/A) = power * sqrt(1 / (2 w_a w_b A)).
        return complex(power * math.sqrt(0.5 / (amp_a.width * amp_b.width * quad)) * math.exp(-exponent))
    letters = (amp_a,) if amp_a is amp_b else (amp_a, amp_b)
    return complex(quadrature_gram(letters, response)[0, -1])


def survival_window(overlaps):
    """Self-overlaps clipped to [0, 1], read-only; NaN, or 1e-10 past an end, raises ComputationError."""
    if not np.all((overlaps >= -1e-10) & (overlaps <= 1.0 + 1e-10)):  # NaN fails too
        raise ComputationError(f"survival probabilities outside [0, 1]: {overlaps!r}")
    survival = np.clip(overlaps, 0.0, 1.0)
    survival.setflags(write=False)
    return survival


def survival_probability(amp, response):
    """Probability that the photon is transmitted rather than absorbed, checked by :func:`survival_window`."""
    return float(survival_window(modulated_overlap(amp, amp, response).real))


def gaussian_comb(n, spacing, width, centering="symmetric"):
    """Equally spaced identical Gaussian letters as the two arrays of :func:`comb_grams`: ``center, width``.

    Letter ``j`` sits at ``spacing * (j - shift)``, shift 0 for ``zero-start`` (first letter at 0) and
    ``(n - 1) / 2`` for ``symmetric`` (two letters at -spacing/2, +spacing/2); ``j - shift`` is exact, so a
    symmetric comb is an exact mirror, ``center == -center[::-1]``.  The centres ascend and share one width,
    so the first and last letter, built here, make every check of all N letters and raise the first error
    those would.  A letter count above ``MAX_LETTERS`` raises ValidationError before any array is built,
    after the checks of the other arguments.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError("letter count must be a positive integer")
    if not spacing >= 0:  # NaN fails too
        raise ValidationError("letter spacing must be non-negative")
    if not width > 0:
        raise ValidationError("letter width must be positive")
    if centering == "zero-start":
        shift = 0.0
    elif centering == "symmetric":
        shift = (n - 1) / 2
    else:
        raise ValidationError(f"unknown centering {centering!r}")
    if n > MAX_LETTERS:
        raise ValidationError(f"letter count {n} is more than {MAX_LETTERS}, the most a comb may have")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN centre, as a letter's
        center = spacing * (np.arange(n) - shift)
    first, _ = GaussianAmplitude(center[0], width), GaussianAmplitude(center[-1], width)
    return center, np.full(n, first.width)


def make_gaussian_basis(n, spacing, width, centering="symmetric"):
    """The N letters of :func:`gaussian_comb`'s comb, one at each of its centres."""
    return [GaussianAmplitude(center, width) for center in gaussian_comb(n, spacing, width, centering)[0].tolist()]


def _parse_table(path, columns):
    """Rows of ``columns`` comma-separated floats; blank and ``#`` lines are skipped.

    A file that is not UTF-8 text raises ValidationError naming it.  Lines
    are counted at newline characters only, as iterating the file does, and
    stripped.  The data lines (neither blank nor ``#`` comments) go to one
    ``np.loadtxt`` call, whose C parser rounds each field correctly, as
    ``float`` does, and accepts no field that :func:`_parse_lines` rejects.
    A file it rejects, whose table is not ``columns`` wide, or that has fewer
    than 2 data rows (loadtxt warns on empty input) is parsed again by
    :func:`_parse_lines`, which names its first bad line before the row
    count is checked, and accepts fields that only ``float`` takes, such as
    ``1_000`` or Arabic-Indic digits.
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
    if len(data) >= 2:
        try:
            table = np.loadtxt(data, delimiter=",", dtype=float, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if table.shape == (len(data), columns):
                return table
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
