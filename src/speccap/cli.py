"""Command-line front end: parameter sweeps, curves, and plots as flat files.

Exit codes: 0 success, 1 usage or validation, 2 computation failure, 3 I/O.
A sweep builds each comb once, as arrays, and the Gram matrices of up to 16
consecutive points of it in one closed-form broadcast; it solves them as one
stacked eigensolve, point by point where that stack fails, and emits its rows
in grid order.  Its Gram data comes from ``channel.comb_gram_data``, which
``optimal-n``'s alphabet-size scan shares: of a symmetric comb, whose Gram
matrices are centrosymmetric, only their distinct entries are built and
solved as even and odd half-size blocks, and the whole matrices are never
formed; any other comb's whole matrices are solved whole.  ``sweep``
and ``two-state`` reject a SPECCAP_THREADS that is set but not a positive
integer (exit 1); a valid value schedules nothing, so output never depends
on it.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys

import numpy as np

from . import svgplot
from .capacity import holevo_bound, optimal_alphabet_size, optimize_priors, two_state_exact, two_state_max
from .channel import EncodingEnsemble, comb_gram_data, compute_gram, output_spectrum
from .errors import ComputationError, ValidationError
from .spectral import (
    FlatResponse,
    GaussianPeakResponse,
    gaussian_comb,
    load_tabulated_amplitude,
    load_tabulated_response,
    make_gaussian_basis,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_IO = 3

# Most points a range, or a product of grids, may have; checked before building it.
MAX_GRID_POINTS = 10**6

# Most sweep points built and solved as one stack: 16 N^2 float64 entries, 2.1 MB at
# N = 128, whose build peaks at 4.4 MB traced (tracemalloc).
_BLOCK_POINTS = 16


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value):
    return format(float(value), ".12g")


def parse_grid(text):
    """Grid syntax: single value, comma list, or ``min:max:step`` inclusive (at most MAX_GRID_POINTS)."""
    text = text.strip()
    try:
        if ":" in text:
            pieces = text.split(":")
            if len(pieces) != 3:
                raise ValueError("expected min:max:step")
            lo, hi, step = (float(p) for p in pieces)
            if not all(np.isfinite([lo, hi, step])):
                raise ValueError("min, max and step must be finite")
            if step <= 0 or hi < lo:
                raise ValueError("need step > 0 and max >= min")
            # Count as the list is built: the rounded number of steps, plus the first point unless the last
            # lies past max.  Floats, so a span past the largest float counts as inf points.
            last = round((hi - lo) / step, 0)
            count = last + (lo + last * step <= hi + 1e-9 * step)
            if count > MAX_GRID_POINTS:
                raise ValueError(f"{count:.7g} points, more than {MAX_GRID_POINTS}")
            return [lo + k * step for k in range(int(count))]
        return [float(piece) for piece in text.split(",")]
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None


def _grid_points(*grids):
    """Every combination of one point per grid, last grid fastest, made as it is read; at most MAX_GRID_POINTS."""
    count = math.prod(map(len, grids))
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid of {count} points is larger than {MAX_GRID_POINTS}")
    return itertools.product(*grids)


def parse_int_list(text):
    try:
        return [int(piece) for piece in text.strip().split(",")]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}: {exc}") from None


def _check_thread_env():
    """Reject a SPECCAP_THREADS that is set but not a positive integer."""
    raw = os.environ.get("SPECCAP_THREADS", "").strip()
    if not raw:
        return
    try:
        count = int(raw)
    except ValueError:
        raise UsageError(f"SPECCAP_THREADS must be an integer, got {raw!r}") from None
    if count < 1:
        raise UsageError("SPECCAP_THREADS must be at least 1")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _report_cells(report):
    """The bound cells and empty error cell of each point of ``report``; one row for one matrix's report."""
    bits = np.stack([report.holevo_bits, report.post_selected_bits, report.mean_loss], axis=-1)
    return [[*map(_fmt, row), ""] for row in bits.reshape(-1, 3).tolist()]


def _stack_cells(stack, gram_data):
    """The bound and error cells of each member of ``stack``, solved as ``gram_data(stack)``.

    ``stack`` and ``gram_data`` are as :func:`comb_gram_data` returns them.
    The stack is solved as one :func:`holevo_bound`.  If that raises, each
    member is solved again on its own, so an error fills only its own
    point's error cell, with the message a solve of that point alone gives.
    """
    try:
        return _report_cells(holevo_bound(gram_data(stack)))
    except (ValidationError, ComputationError):
        pass
    cells = []
    for member in stack:
        try:
            cells += _report_cells(holevo_bound(gram_data(member)))
        except (ValidationError, ComputationError) as exc:
            cells.append(["", "", "", str(exc)])
    return cells


def cmd_sweep(args):
    """One CSV row per grid point, in grid order; each ``(n, spacing)`` comb is built at most once, before its rows.

    Each channel value's cells, and its response or validation message, are
    built once per sweep and shared by every comb; no comb is built when no
    channel value is valid.  Uniform-prior points take the comb's
    :func:`gaussian_comb` arrays, in blocks of up to ``_BLOCK_POINTS``
    consecutive points: one closed-form build by :func:`comb_gram_data` (of
    a symmetric comb, only the distinct entries of its centrosymmetric Gram
    matrices), one check of the priors and one stacked eigensolve each.
    """
    n_list = parse_int_list(args.n)
    delta_grid = parse_grid(args.delta_omega)
    if args.mode == "flat":
        channel, make_response, peak = "eta", FlatResponse, {}
    else:
        channel, make_response = "sigma_eta", functools.partial(GaussianPeakResponse, args.p_peak)
        peak = {"p_peak": _fmt(args.p_peak)}
    if getattr(args, channel) is None:
        raise UsageError(f"{args.mode} mode requires --{channel.replace('_', '-')}")
    header = ["n", "delta_omega", channel, *peak, "post_select"]
    header += ["holevo_bits", "post_selected_bits", "eps_bar", "error"]
    channels = []  # each channel value's cells after the key, and its response or its message
    for value in parse_grid(getattr(args, channel)):
        cells = [_fmt(value), *peak.values(), int(args.post_select)]
        try:
            channels.append((cells, make_response(value), None))
        except (ValidationError, ComputationError) as exc:
            channels.append((cells, None, str(exc)))
    _grid_points(n_list, delta_grid, channels)  # only to reject a grid over the point limit
    any_valid = any(response is not None for _, response, _ in channels)

    _check_thread_env()
    rows = []
    for n, delta in itertools.product(n_list, delta_grid):
        key = [n, _fmt(delta)]
        optimize = args.priors == "optimized" and n >= 2
        comb, comb_error = None, None  # its arrays, or its letters' ensemble when optimizing
        if any_valid:
            shape = (n, delta, args.sigma_psi, args.centering)
            try:
                comb = EncodingEnsemble.uniform(make_gaussian_basis(*shape)) if optimize else gaussian_comb(*shape)
            except (ValidationError, ComputationError) as exc:
                comb_error = str(exc)
        for start in range(0, len(channels), _BLOCK_POINTS):
            pending, responses = [], []  # rows and channels of the block's points that await its stacked solve
            for cells, response, message in channels[start : start + _BLOCK_POINTS]:
                row = [*key, *cells]
                rows.append(row)
                message = comb_error if message is None else message
                if message is None and optimize:
                    try:
                        row += _report_cells(optimize_priors(comb, response)[1])[0]
                    except (ValidationError, ComputationError) as exc:
                        message = str(exc)
                elif message is None:
                    responses.append(response)
                    pending.append(row)
                if message is not None:
                    row += ["", "", "", message]
            if responses:
                for row, cells in zip(pending, _stack_cells(*comb_gram_data(comb, responses))):
                    row += cells
    _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_optimal_n(args):
    response = GaussianPeakResponse(args.p_peak, args.sigma_eta)
    best_n, best_bits, curve = optimal_alphabet_size(
        response,
        sigma_psi=args.sigma_psi,
        spacing=args.delta_omega,
        centering=args.centering,
        n_max=args.n_max,
        post_select=args.post_select,
    )
    rows = [["curve", n, _fmt(bits)] for n, bits in curve]
    rows.append(["optimal", best_n, _fmt(best_bits)])
    _write_csv(args.out, ["kind", "n", "bits"], rows)
    return EXIT_OK


def cmd_two_state(args):
    lam_grid = parse_grid(getattr(args, "lambda"))
    if any(lam <= 0 for lam in lam_grid):
        raise UsageError("--lambda values must be positive")
    if not all(np.isfinite(lam_grid)):
        raise UsageError("--lambda values must be finite")

    if args.emit == "exact-curve":
        header = ["lambda", "delta", "capacity_bits", "error"]
        points = _grid_points(lam_grid, parse_grid(args.delta))

        def solve(lam, delta):
            return [two_state_exact(delta, lam, args.p_peak)]

    else:
        header = ["lambda", "c_max_bits", "delta_star", "error"]
        points = zip(lam_grid)
        solve = functools.partial(two_state_max, p_peak=args.p_peak)

    _check_thread_env()
    rows = []
    for point in points:  # the point's cells, then its result cells or as many empty ones and its message
        row = [*map(_fmt, point)]
        try:
            row += [*map(_fmt, solve(*point)), ""]
        except (ValidationError, ComputationError) as exc:
            row += [""] * (len(header) - len(row) - 1) + [str(exc)]
        rows.append(row)
    _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_gram_dump(args):
    if args.letters:
        if args.n is not None or args.delta_omega is not None:
            raise UsageError("give either --letters files or gaussian basis parameters, not both")
        letters = [load_tabulated_amplitude(path) for path in args.letters]
    else:
        if args.n is None or args.delta_omega is None:
            raise UsageError("need --letters files or both --n and --delta-omega")
        letters = make_gaussian_basis(args.n, args.delta_omega, args.sigma_psi, args.centering)

    channel_flags = [args.eta is not None, args.sigma_eta is not None, args.channel_file is not None]
    if sum(channel_flags) != 1:
        raise UsageError("choose exactly one channel: --eta, --sigma-eta, or --channel-file")
    if args.eta is not None:
        response = FlatResponse(args.eta)
    elif args.sigma_eta is not None:
        response = GaussianPeakResponse(args.p_peak, args.sigma_eta)
    else:
        response = load_tabulated_response(args.channel_file)

    ensemble = EncodingEnsemble.uniform(letters)
    data = compute_gram(ensemble, response)
    spectrum, _ = output_spectrum(data)

    rows = []
    records = {"gram": data.gram, "survival": data.survival, "loss": data.loss, "eigenvalue": spectrum}
    for record, values in records.items():
        for index, value in np.ndenumerate(values):  # row-major; only a gram entry has a column and an imaginary part
            j, imag = (index[1], _fmt(value.imag)) if len(index) == 2 else ("", "")
            rows.append([record, index[0], j, _fmt(value.real), imag])
    _write_csv(args.out, ["record", "i", "j", "value_re", "value_im"], rows)
    return EXIT_OK


def _read_csv_columns(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            rows = [row for row in reader if row]
        except StopIteration:
            raise UsageError(f"{path}: empty CSV") from None
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not valid UTF-8 text") from None
    return header, rows


def _column(header, rows, name):
    if name not in header:
        raise UsageError(f"unknown column {name!r}; available: {', '.join(header)}")
    index = header.index(name)
    values = []
    for row in rows:
        cell = row[index] if index < len(row) else ""
        if cell == "":
            values.append(None)
        else:
            try:
                value = float(cell)
            except ValueError:
                raise UsageError(f"column {name!r} has non-numeric cell {cell!r}") from None
            if not math.isfinite(value):
                raise UsageError(f"column {name!r} has non-finite cell {cell!r}")
            values.append(value)
    return values


def cmd_plot(args):
    header, rows = _read_csv_columns(args.input)
    xs = _column(header, rows, args.x)
    ys = _column(header, rows, args.y)
    if args.kind == "line":
        points = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
        if not points:
            raise UsageError("no plottable rows")
        document = svgplot.render_line(points, args.x, args.y)
    else:
        if args.value is None:
            raise UsageError("heatmap requires --value")
        vals = _column(header, rows, args.value)
        cells = [
            (x, y, v)
            for x, y, v in zip(xs, ys, vals)
            if x is not None and y is not None and v is not None
        ]
        if not cells:
            raise UsageError("no plottable rows")
        document = svgplot.render_heatmap(cells, args.x, args.y, args.value)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(document)
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="speccap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="capacity bounds over a parameter grid")
    sweep.add_argument("--mode", choices=["flat", "gaussian"], required=True)
    sweep.add_argument("--n", required=True, help="alphabet sizes, e.g. 32 or 2,4,8")
    sweep.add_argument("--delta-omega", required=True, help="letter spacing grid (min:max:step, list, or value)")
    sweep.add_argument("--eta", help="flat transmission grid (flat mode)")
    sweep.add_argument("--sigma-eta", help="channel width grid (gaussian mode)")
    sweep.add_argument("--sigma-psi", type=float, default=1.0)
    sweep.add_argument("--p-peak", type=float, default=1.0)
    sweep.add_argument("--post-select", action="store_true")
    sweep.add_argument("--centering", choices=["zero-start", "symmetric"], default="symmetric")
    sweep.add_argument("--priors", choices=["uniform", "optimized"], default="uniform")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    optimal = sub.add_parser("optimal-n", help="best alphabet size for a gaussian channel")
    optimal.add_argument("--sigma-eta", type=float, required=True)
    optimal.add_argument("--p-peak", type=float, default=1.0)
    optimal.add_argument("--sigma-psi", type=float, default=1.0)
    optimal.add_argument("--delta-omega", type=float, required=True)
    optimal.add_argument("--n-max", type=int, required=True)
    optimal.add_argument("--post-select", action="store_true")
    optimal.add_argument("--centering", choices=["zero-start", "symmetric"], default="symmetric")
    optimal.add_argument("--out", required=True)
    optimal.set_defaults(func=cmd_optimal_n)

    two = sub.add_parser("two-state", help="exact two-letter capacity curves")
    two.add_argument("--lambda", required=True, help="width-ratio grid")
    two.add_argument("--p-peak", type=float, default=1.0)
    two.add_argument("--emit", choices=["exact-curve", "max-curve"], required=True)
    two.add_argument("--delta", default="0:10:0.1", help="separation grid for exact-curve")
    two.add_argument("--out", required=True)
    two.set_defaults(func=cmd_two_state)

    gram = sub.add_parser("gram-dump", help="inspect the modulated Gram matrix")
    gram.add_argument("--letters", action="append", help="tabulated amplitude file (repeatable)")
    gram.add_argument("--n", type=int)
    gram.add_argument("--delta-omega", type=float)
    gram.add_argument("--sigma-psi", type=float, default=1.0)
    gram.add_argument("--centering", choices=["zero-start", "symmetric"], default="symmetric")
    gram.add_argument("--eta", type=float, help="flat channel transmission")
    gram.add_argument("--sigma-eta", type=float, help="gaussian channel width")
    gram.add_argument("--p-peak", type=float, default=1.0)
    gram.add_argument("--channel-file", help="tabulated channel response file")
    gram.add_argument("--out", required=True)
    gram.set_defaults(func=cmd_gram_dump)

    plot = sub.add_parser("plot", help="render a CSV produced by this tool to SVG")
    plot.add_argument("--in", dest="input", required=True)
    plot.add_argument("--kind", choices=["line", "heatmap"], required=True)
    plot.add_argument("--x", required=True)
    plot.add_argument("--y", required=True)
    plot.add_argument("--value", help="cell value column (heatmap)")
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"speccap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"speccap: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ComputationError as exc:
        print(f"speccap: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except OSError as exc:
        print(f"speccap: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
