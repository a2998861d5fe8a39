import csv
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import speccap
from speccap.cli import (
    EXIT_COMPUTATION,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_POINTS,
    UsageError,
    _fmt,
    _grid_points,
    build_parser,
    main,
    parse_grid,
    parse_int_list,
)
from speccap.spectral import MAX_LETTERS, gaussian_comb, make_gaussian_basis
from speccap.svgplot import render_heatmap, render_line

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


def child_env(env=None):
    """``os.environ`` with ``env`` and with ``src`` first on ``PYTHONPATH``, so a child process imports this speccap."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **(env or {}), "PYTHONPATH": path}


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "speccap", *args], capture_output=True, text=True, env=child_env(env))


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_parse_grid_forms():
    assert parse_grid("2") == [2.0]
    assert parse_grid("1,2.5,4") == [1.0, 2.5, 4.0]
    assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    assert parse_grid("0:1:0.6") == [0.0, 0.6]  # the rounded count's last point, past max, is dropped
    assert len(parse_grid("0:10:0.5")) == 21
    assert len(parse_grid("0:1:0.1")) == 11
    for text in ("0:inf:1", "nan:1:0.5", "0:1:inf", "-1e308:1e308:1"):
        with pytest.raises(UsageError, match="bad grid"):
            parse_grid(text)


# Numbers as a user might type them, and pieces that are not numbers at all.
grid_pieces = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats().map(repr),
    st.integers(-100, 100).map(str),
    st.text(alphabet="0123456789.-+e _", max_size=5),
)


@given(
    st.one_of(
        st.tuples(grid_pieces, grid_pieces, grid_pieces).map(":".join),
        st.lists(grid_pieces, min_size=1, max_size=4).map(",".join),
    ),
    st.lists(st.one_of(st.integers().map(str), st.text(alphabet="0123456789-+ _", max_size=4)), min_size=1, max_size=4),
)
def test_parsed_grids_and_integer_lists_are_never_empty(grid, integers):
    # cmd_sweep relies on this: every grid it parses has a point, or the parse raised UsageError.
    try:
        points = parse_grid(grid)
    except UsageError:
        pass
    else:
        assert points and all(isinstance(point, float) for point in points)
    try:
        values = parse_int_list(",".join(integers))
    except UsageError:
        pass
    else:
        assert values and all(isinstance(value, int) for value in values)


def test_parse_grid_rejects_a_range_over_the_point_limit_before_building_it():
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
    # The limit counts the points the range has: 0 to 999999 here, the last step rounded down.
    assert parse_grid(f"0:{MAX_GRID_POINTS - 0.6}:1")[-1] == MAX_GRID_POINTS - 1
    tracemalloc.start()
    try:
        for text, count in (("0:1e9:1", "1e\\+09"), (f"0:{MAX_GRID_POINTS}:1", str(MAX_GRID_POINTS + 1))):
            with pytest.raises(UsageError, match=f"bad grid .*: {count} points, more than {MAX_GRID_POINTS}"):
                parse_grid(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize(
    "args, count",
    [
        (["sweep", "--mode", "flat", "--n", "2,3", "--delta-omega", "0:999:1", "--eta", "0:0.999:0.001"], 2_000_000),
        (["two-state", "--emit", "exact-curve", "--lambda", "1:1001:1", "--delta", "0:999:1"], 1_001_000),
    ],
)
def test_grid_products_over_the_point_limit_exit_1(tmp_path, capsys, args, count):
    out = tmp_path / "big.csv"
    assert main(args + ["--out", str(out)]) == EXIT_USAGE
    assert f"grid of {count} points is larger than {MAX_GRID_POINTS}" in capsys.readouterr().err
    assert not out.exists()


def test_grid_points_are_counted_first_and_made_as_they_are_read(tmp_path, capsys, monkeypatch):
    # A million-point grid holds no list of point tuples.
    grids = (list(range(1000)), list(range(1000)))
    tracemalloc.start()
    try:
        points = _grid_points(*grids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert next(points) == (0, 0) and sum(1 for _ in points) == MAX_GRID_POINTS - 1
    # The count is checked before SPECCAP_THREADS is read, so a bad value does not hide it.
    monkeypatch.setenv("SPECCAP_THREADS", "0")
    args = ["sweep", "--mode", "flat", "--n", "2,3", "--delta-omega", "0:999:1", "--eta", "0:0.999:0.001"]
    assert main([*args, "--out", str(tmp_path / "big.csv")]) == EXIT_USAGE
    assert f"grid of 2000000 points is larger than {MAX_GRID_POINTS}" in capsys.readouterr().err


def test_a_comb_over_the_letter_cap_fills_its_error_cells_and_builds_nothing(tmp_path, monkeypatch, capsys):
    # A comb of 10^9 letters would take 8 GB per array; the sweep gives its valid points the cap's
    # message and goes on, and gram-dump and optimal-n exit 1 with it, before building anything.
    arange = np.arange

    def guarded(n, *args, **kwargs):
        assert n <= MAX_LETTERS, f"arange({n})"
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    cap = f"letter count 1000000000 is more than {MAX_LETTERS}, the most a comb may have"
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "gaussian", "--n", "1000000000,2", "--delta-omega", "1,1e308", "--sigma-eta", "1,2,-1"]
    tracemalloc.start()
    try:
        assert main([*args, "--out", str(out)]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**7
    bad_channel = "channel width must be positive"
    assert [row["error"] for row in read_rows(out)] == [cap, cap, bad_channel] * 2 + ["", "", bad_channel] * 2
    for command in (
        ["gram-dump", "--n", "1000000000", "--delta-omega", "1", "--sigma-eta", "1"],
        ["optimal-n", "--n-max", "1000000000", "--delta-omega", "1", "--sigma-eta", "1"],
    ):
        assert main([*command, "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"speccap: invalid input: {cap}\n"


def test_sweep_flat_row_count_and_values(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--mode",
            "flat",
            "--n",
            "32",
            "--delta-omega",
            "10",
            "--eta",
            "0.5,1.0",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 2
    assert rows[0]["n"] == "32"
    assert rows[0]["error"] == ""
    perfect = [r for r in rows if r["eta"] == "1"][0]
    assert float(perfect["holevo_bits"]) == pytest.approx(5.0, abs=1e-3)
    assert float(perfect["eps_bar"]) == pytest.approx(0.0, abs=1e-12)


def test_sweep_row_count_is_grid_product(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--mode",
            "gaussian",
            "--n",
            "2,3",
            "--delta-omega",
            "0:2:1",
            "--sigma-eta",
            "1,2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 2 * 3 * 2
    header = list(rows[0])
    assert header == [
        "n",
        "delta_omega",
        "sigma_eta",
        "p_peak",
        "post_select",
        "holevo_bits",
        "post_selected_bits",
        "eps_bar",
        "error",
    ]


def test_sweep_gaussian_post_selection_never_higher(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "sweep",
                "--mode",
                "gaussian",
                "--n",
                "4",
                "--delta-omega",
                "1:3:1",
                "--sigma-eta",
                "1,2",
                "--out",
                str(out),
            ]
        )
        == EXIT_OK
    )
    for row in read_rows(out):
        assert float(row["post_selected_bits"]) <= float(row["holevo_bits"]) + 1e-10


def test_sweep_opaque_channel_gives_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        main(
            ["sweep", "--mode", "flat", "--n", "4", "--delta-omega", "0:2:1", "--eta", "0", "--out", str(out)]
        )
        == EXIT_OK
    )
    for row in read_rows(out):
        assert float(row["holevo_bits"]) == 0.0
        assert float(row["post_selected_bits"]) == 0.0


def test_sweep_optimized_priors(tmp_path):
    out_u = tmp_path / "uniform.csv"
    out_o = tmp_path / "optimized.csv"
    base = ["sweep", "--mode", "gaussian", "--n", "3", "--delta-omega", "2", "--sigma-eta", "1"]
    assert main(base + ["--out", str(out_u)]) == EXIT_OK
    assert main(base + ["--priors", "optimized", "--out", str(out_o)]) == EXIT_OK
    uniform = float(read_rows(out_u)[0]["holevo_bits"])
    optimized = float(read_rows(out_o)[0]["holevo_bits"])
    assert optimized >= uniform - 1e-12


OPTIMIZED_CELLS = ("holevo_bits", "post_selected_bits", "eps_bar", "error")


@pytest.mark.parametrize("centering", ["symmetric", "zero-start"])
def test_an_optimized_sweep_gives_each_point_its_own_optimizer_s_cells(tmp_path, centering):
    # Spacing nan is a bad comb and channel width -1 an invalid channel value; where both are, the channel's
    # message wins.  Every other cell is, to the digit, the optimizer's on the point's own letters.
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "gaussian", "--n", "2,3", "--delta-omega", "0.5,2,nan", "--sigma-eta=-1,1,3"]
    assert main([*args, "--centering", centering, "--priors", "optimized", "--out", str(out)]) == EXIT_OK
    rows = read_rows(out)
    points = [(n, delta, width) for n in (2, 3) for delta in (0.5, 2.0, math.nan) for width in (-1.0, 1.0, 3.0)]
    assert len(rows) == len(points)
    messages = set()
    for row, (n, delta, width) in zip(rows, points):
        try:
            response = speccap.GaussianPeakResponse(1.0, width)
            letters = make_gaussian_basis(n, delta, 1.0, centering)
            _, report = speccap.optimize_priors(speccap.EncodingEnsemble.uniform(letters), response)
        except (speccap.ValidationError, speccap.ComputationError) as exc:
            want = ["", "", "", str(exc)]
            messages.add(str(exc))
        else:
            want = [*map(_fmt, (report.holevo_bits, report.post_selected_bits, report.mean_loss)), ""]
        assert [row[column] for column in OPTIMIZED_CELLS] == want, (n, delta, width)
    assert messages == {"channel width must be positive", "letter spacing must be non-negative"}


def test_an_optimized_sweep_s_one_letter_rows_are_its_uniform_rows(tmp_path):
    # One letter has no priors to optimize: its rows take the uniform solver's cells, not the optimizer's error.
    args = ["sweep", "--mode", "gaussian", "--n", "1,2", "--delta-omega", "0,1", "--sigma-eta", "0.5,2"]
    rows = {}
    for priors in ("uniform", "optimized"):
        out = tmp_path / f"{priors}.csv"
        assert main([*args, "--centering", "zero-start", "--priors", priors, "--out", str(out)]) == EXIT_OK
        rows[priors] = read_rows(out)
    one_letter = [row for row in rows["optimized"] if row["n"] == "1"]
    assert len(one_letter) == 4 and all(row["error"] == "" for row in one_letter)
    assert one_letter == [row for row in rows["uniform"] if row["n"] == "1"]
    assert rows["optimized"][4:] != rows["uniform"][4:]  # two zero-start letters do gain from their priors


@pytest.mark.parametrize("bad", [6, 17])
def test_an_optimizer_failure_errors_only_its_own_point(tmp_path, monkeypatch, bad):
    # 19 channel values: blocks of 16 and 3 points of one comb.  The optimizer fails at one of them only.
    args = ["sweep", "--mode", "gaussian", "--n", "3", "--delta-omega", "1", "--sigma-eta", "1:10:0.5"]
    args += ["--centering", "zero-start", "--priors", "optimized"]
    clean = tmp_path / "clean.csv"
    assert main([*args, "--out", str(clean)]) == EXIT_OK
    bad_width = 1.0 + 0.5 * bad
    message = f"no convergence at channel width {bad_width:g}"
    optimize = speccap.cli.optimize_priors

    def failing(ensemble, response):
        if response.width == bad_width:
            raise speccap.ConvergenceError(message, error_estimate=0.5)
        return optimize(ensemble, response)

    monkeypatch.setattr("speccap.cli.optimize_priors", failing)
    out = tmp_path / "sweep.csv"
    assert main([*args, "--out", str(out)]) == EXIT_OK
    got, want = read_rows(out), read_rows(clean)
    assert len(got) == len(want) == 19 and all(row["error"] == "" for row in want)
    assert [got[bad][column] for column in OPTIMIZED_CELLS] == ["", "", "", message]
    assert got[bad]["sigma_eta"] == want[bad]["sigma_eta"]
    assert got[:bad] + got[bad + 1 :] == want[:bad] + want[bad + 1 :]


def test_sweep_requires_channel_grid():
    assert main(["sweep", "--mode", "flat", "--n", "4", "--delta-omega", "1", "--out", "x.csv"]) == EXIT_USAGE


def test_sweep_bad_parameter_is_usage_error(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--mode", "flat", "--n", "4", "--delta-omega", "1", "--eta", "1.5", "--out", str(out)]
    )
    assert code == EXIT_OK  # the bad grid point is recorded per-row, not fatal
    rows = read_rows(out)
    assert rows[0]["error"] != ""
    assert rows[0]["holevo_bits"] == ""


def test_sweep_letters_further_apart_than_1e154_are_orthogonal(tmp_path):
    # (c_a - c_b) ** 2 overflows there; the pair must still be computed.
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "flat", "--n", "2", "--delta-omega", "1e150,1e160", "--eta", "1", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert [(row["holevo_bits"], row["error"]) for row in read_rows(out)] == [("1", ""), ("1", "")]


@pytest.mark.parametrize("width", ["1e200", "1e-200"])
def test_sweep_reports_a_letter_width_outside_the_closed_form_range_in_its_error_cells(tmp_path, width):
    out = tmp_path / "sweep.csv"
    args = ["--n", "2", "--delta-omega", "1", "--eta", "0.5,1", "--sigma-psi", width, "--out", str(out)]
    result = run_cli("sweep", "--mode", "flat", *args)
    assert result.returncode == EXIT_OK and "Traceback" not in result.stderr
    message = f"amplitude width {float(width)!r} is outside the closed form's range"
    assert [(row["holevo_bits"], row["error"]) for row in read_rows(out)] == [("", message)] * 2


def test_sweep_reports_a_channel_width_outside_the_closed_form_range_in_its_error_cells(tmp_path):
    # 0.5 / width**2 divides by zero at 1e-320 and 1e-200, is inf at 1e-160,
    # overflows at 1e200 and is 0 at inf; the infinite-width channel is --mode flat.
    out = tmp_path / "sweep.csv"
    widths = ["1e-320", "1e-200", "1e-160", "1e200", "inf"]
    args = ["sweep", "--mode", "gaussian", "--n", "2", "--delta-omega", "1", "--sigma-eta", ",".join(widths)]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    expected = [("", f"channel width {float(w)!r} is outside the closed form's range") for w in widths]
    assert [(row["holevo_bits"], row["error"]) for row in read_rows(out)] == expected


def test_two_state_reports_a_width_ratio_outside_the_closed_form_range_in_its_error_cells(tmp_path):
    out = tmp_path / "two.csv"
    lambdas = ["1e-320", "1e-200", "1e-160", "1e200"]
    for emit, column in (("max-curve", "c_max_bits"), ("exact-curve", "capacity_bits")):
        args = ["two-state", "--emit", emit, "--lambda", ",".join(lambdas), "--delta", "1"]
        assert main([*args, "--out", str(out)]) == EXIT_OK
        expected = [("", f"width ratio {float(lam)!r} is outside the closed form's range") for lam in lambdas]
        assert [(row[column], row["error"]) for row in read_rows(out)] == expected


def test_sweep_letters_whose_a_b_underflows_further_apart_than_1e154_are_orthogonal(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "flat", "--n", "2", "--delta-omega", "1e155", "--eta", "1", "--sigma-psi", "1e100"]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    assert [(row["holevo_bits"], row["error"]) for row in read_rows(out)] == [("1", "")]


def test_gram_dump_of_tabulated_letters_through_an_infinitely_wide_gaussian_channel_is_invalid_input(tmp_path, capsys):
    letter = tmp_path / "letter.csv"
    letter.write_text("-3,0,0\n0,1,0\n3,0,0\n", encoding="utf-8")
    args = ["gram-dump", "--letters", str(letter), "--sigma-eta", "inf", "--out", str(tmp_path / "g.csv")]
    assert main(args) == EXIT_USAGE
    assert "invalid input: channel width inf is outside the closed form's range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, channels, builds, error",
    [
        ("2,3", "1,2,3,4", [(n, spacing) for n in (2, 3) for spacing in (0.0, 1.0, 2.0)], ""),
        # A bad comb is attempted once, however many of its rows have a valid channel.
        ("0", "1,2,3,4", [(0, spacing) for spacing in (0.0, 1.0, 2.0)], "letter count must be a positive integer"),
        # No comb is built when no channel is valid, so an alphabet too large to build is never attempted.
        ("1000000000", "-1,nan,0,-0.0", [], "channel width must be positive"),
    ],
    ids=["valid", "bad-comb", "no-valid-channel"],
)
def test_sweep_builds_each_comb_once(tmp_path, monkeypatch, n, channels, builds, error):
    calls = []

    def counted(n, spacing, *rest):
        calls.append((n, spacing))
        assert n < 10**6, "the comb is too large to build here"  # fail the test rather than exhaust memory
        return gaussian_comb(n, spacing, *rest)

    monkeypatch.setattr("speccap.cli.gaussian_comb", counted)
    out = tmp_path / "sweep.csv"
    grid = ["--n", n, "--delta-omega", "0,1,2", f"--sigma-eta={channels}"]
    assert main(["sweep", "--mode", "gaussian", *grid, "--out", str(out)]) == EXIT_OK
    assert calls == builds
    rows = read_rows(out)
    assert [(row["n"], row["delta_omega"], row["sigma_eta"]) for row in rows] == [
        (m, d, s) for m in n.split(",") for d in "012" for s in map(_fmt, parse_grid(channels))
    ]
    assert all(row["error"] == error for row in rows)


def test_sweep_rows_with_a_bad_comb_or_channel_keep_grid_order_and_their_messages(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "flat", "--n", "0,2", "--delta-omega", "1", "--eta", "0.5,2", "--out", str(out)]
    assert main(args) == EXIT_OK
    bad_comb, bad_channel = "letter count must be a positive integer", "flat transmission must lie in [0, 1]"
    # Where both are bad, the channel is checked first.
    assert [(row["n"], row["eta"], row["holevo_bits"], row["error"]) for row in read_rows(out)] == [
        ("0", "0.5", "", bad_comb),
        ("0", "2", "", bad_channel),
        ("2", "0.5", "0.0806172421369", ""),
        ("2", "2", "", bad_channel),
    ]


# The two README sweeps.  Their CSVs in tests/data were written before the
# sweep loop and the Gram build were reworked for speed; a change since may
# move a cell only by roundoff.
README_SWEEPS = {
    "readme_gaussian_sweep.csv": ["--mode", "gaussian", "--sigma-eta", "1:8:0.5"],
    "readme_flat_sweep.csv": ["--mode", "flat", "--eta", "0:1:0.1"],
}


def test_readme_two_state_max_curve_matches_its_golden_csv(tmp_path):
    out = tmp_path / "two_state.csv"
    assert main(["two-state", "--lambda", "0.1:5:0.1", "--emit", "max-curve", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / "readme_two_state_max.csv").read_bytes()


def assert_sweep_matches_golden(path, name):
    """The sweep CSV at ``path`` equals ``tests/data/<name>`` to 12 significant digits in its bound cells."""
    with open(DATA / name, newline="", encoding="utf-8") as handle:
        expected = list(csv.reader(handle))
    with open(path, newline="", encoding="utf-8") as handle:
        got = list(csv.reader(handle))
    assert got[0] == expected[0] and len(got) == len(expected)
    numeric = {expected[0].index(column) for column in ("holevo_bits", "post_selected_bits", "eps_bar")}
    for want, have in zip(expected[1:], got[1:]):
        assert len(have) == len(want)
        for column, (cell, value) in enumerate(zip(want, have)):
            if column in numeric and cell:
                # Equal to 12 significant digits; eigensolver roundoff below 1e-12 is exempt.
                e, g = float(cell), float(value)
                assert abs(g - e) <= 1e-11 * abs(e) or max(abs(e), abs(g)) < 1e-12, (want, have)
            else:
                assert value == cell, (want, have)


@pytest.mark.parametrize("name", sorted(README_SWEEPS))
def test_readme_sweep_matches_its_golden_csv(tmp_path, name):
    out = tmp_path / name
    args = ["sweep", "--n", "32", "--delta-omega", "0:10:0.5", *README_SWEEPS[name], "--out", str(out)]
    assert main(args) == EXIT_OK
    assert_sweep_matches_golden(out, name)


def test_blocked_gaussian_sweep_matches_its_golden_csv(tmp_path):
    # 39 points per comb: the golden file was written when every point was
    # solved on its own, and the sweep now solves them in blocks of 16, 16 and 7.
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "gaussian", "--n", "2,8,32", "--delta-omega", "0,1.5", "--sigma-eta", "1:20:0.5"]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / "blocked_gaussian_sweep.csv").read_bytes()


def test_zero_start_gaussian_sweep_matches_its_golden_csv(tmp_path):
    # Spacings in steps of 0.1 put letters at centres that are not binary
    # fractions, which the README grids (steps of 0.5) never do.
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "gaussian", "--n", "5,32", "--delta-omega", "0:3:0.1", "--sigma-eta", "0.7:3.1:0.3"]
    assert main([*args, "--centering", "zero-start", "--post-select", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / "zero_start_gaussian_sweep.csv").read_bytes()


def test_a_nan_spacing_errs_as_a_bad_spacing(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--mode", "gaussian", "--n", "1,4", "--delta-omega", "nan,1", "--sigma-eta", "2", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert [(row["n"], row["delta_omega"], row["error"]) for row in read_rows(out)] == [
        ("1", "nan", "letter spacing must be non-negative"),
        ("1", "1", ""),
        ("4", "nan", "letter spacing must be non-negative"),
        ("4", "1", ""),
    ]


@pytest.mark.parametrize("centering", ["symmetric", "zero-start"])
@pytest.mark.parametrize("bad", [0, 6, 14])
@pytest.mark.parametrize(
    "place, value, error", [(0, 1.5, speccap.ComputationError), (1, np.nan, speccap.ValidationError)]
)
def test_a_failure_inside_a_block_errors_only_its_own_point(tmp_path, monkeypatch, centering, bad, place, value, error):
    # One comb of 15 points: one block.  channel.comb_gram_data gives a symmetric comb's block the distinct
    # entries of its Gram matrices (comb_overlaps, MirrorGramData), a zero-start comb's the whole matrices
    # (comb_grams, GramData).  The patched point's entry (0, 0) is 1.5, a survival above 1, or its entry (0, 1) is
    # NaN; a symmetric comb's also carries it to the places that mirror it.  Its message must be the
    # one the whole matrix gives on its own.
    args = ["sweep", "--mode", "gaussian", "--n", "4", "--delta-omega", "1", "--sigma-eta", "1:8:0.5"]
    args += ["--centering", centering]
    clean = tmp_path / "clean.csv"
    assert main([*args, "--out", str(clean)]) == EXIT_OK
    bad_width = 1.0 + 0.5 * bad
    rows, cols = speccap.numerics.mirror_quarter(4)
    i, j = rows[place], cols[place]
    broken = []

    def spoil(whole):
        whole[i, j] = whole[j, i] = value
        if centering == "symmetric":
            whole[3 - i, 3 - j] = whole[3 - j, 3 - i] = value

    if centering == "symmetric":
        comb_overlaps = speccap.channel.comb_overlaps

        def patched(comb, responses, pairs):
            stack = comb_overlaps(comb, responses, pairs)
            for entries, response in zip(stack, responses):
                if response.width == bad_width:
                    entries[place] = value
                    whole = speccap.spectral.comb_grams(comb, [response])[0]
                    spoil(whole)
                    assert np.array_equal(whole[rows, cols], entries, equal_nan=True)
                    broken.append(whole)
            return stack

        monkeypatch.setattr("speccap.channel.comb_overlaps", patched)
    else:
        comb_grams = speccap.channel.comb_grams

        def patched(comb, responses):
            stack = comb_grams(comb, responses)
            for entries, response in zip(stack, responses):
                if response.width == bad_width:
                    spoil(entries)
                    broken.append(entries.copy())
            return stack

        monkeypatch.setattr("speccap.channel.comb_grams", patched)
    out = tmp_path / "sweep.csv"
    assert main([*args, "--out", str(out)]) == EXIT_OK
    [whole] = broken
    with pytest.raises(error, match="survival" if place == 0 else "finite") as alone:
        speccap.holevo_bound(speccap.GramData(whole, np.full(4, 0.25)))
    got, want = out.read_text().splitlines(), clean.read_text().splitlines()
    assert len(got) == len(want) == 16
    row = ["4", "1", format(bad_width, "g"), "1", "0", "", "", "", str(alone.value)]
    assert next(csv.reader([got[1 + bad]])) == row
    assert got[: 1 + bad] + got[2 + bad :] == want[: 1 + bad] + want[2 + bad :]


@pytest.mark.parametrize("name", sorted(README_SWEEPS))
def test_a_sweep_solves_its_real_gram_stacks_as_real(tmp_path, monkeypatch, name):
    solve = np.linalg.eigvalsh
    dtypes = []

    def recorded(matrix):
        dtypes.append((matrix.dtype, matrix.ndim))
        return solve(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    args = ["sweep", "--n", "1,8", "--delta-omega", "0,1.5", *README_SWEEPS[name], "--out", str(tmp_path / name)]
    assert main(args) == EXIT_OK
    assert dtypes and set(dtypes) == {(np.dtype(np.float64), 3)}


EDGE_DELTAS = "0,1e155,1e200,1e300"  # gaps whose squares overflow, and centres whose a c^2 does
EDGE_WIDTHS = "1e-70,1,1e70,1e150"  # channel rates k from 5e139 down to 5e-301


@pytest.mark.parametrize(
    "args",
    [
        ["--mode", "flat", "--delta-omega", EDGE_DELTAS, "--eta", "0,0.5,1"],
        ["--mode", "gaussian", "--delta-omega", EDGE_DELTAS, "--sigma-eta", EDGE_WIDTHS],
        ["--mode", "gaussian", "--delta-omega", EDGE_DELTAS, "--sigma-eta", EDGE_WIDTHS, "--sigma-psi", "1e-70", "--p-peak", "0"],
        ["--mode", "gaussian", "--delta-omega", "0,1", "--sigma-eta=-1,0,1,2,nan"],
        # Repeated, nan and signed-zero channel values, shared by every comb.
        ["--mode", "gaussian", "--delta-omega", "0,0.5,1e200", "--sigma-eta=1,1,nan,nan,-0.0,0"],
        ["--mode", "flat", "--delta-omega", "0,0.5,1e200", "--eta=-0.0,0,0.5,0.5"],
    ],
)
def test_a_stacked_sweep_gives_each_point_s_own_bounds(tmp_path, args):
    # Each block's Gram matrices come from one broadcast; every point must
    # read as holevo_bound(compute_gram(...)) of that point alone, to 12
    # significant digits, under its own key cells, and an invalid channel
    # errs in its own row only.
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--n", "2,8", *args, "--out", str(out)]) == EXIT_OK
    parsed = build_parser().parse_args(["sweep", "--n", "2,8", *args, "--out", str(out)])
    rows = read_rows(out)
    channels = parse_grid(parsed.eta or parsed.sigma_eta)
    points = [(n, delta, value) for n in (2, 8) for delta in parse_grid(parsed.delta_omega) for value in channels]
    assert len(rows) == len(points)
    for row, (n, delta, value) in zip(rows, points):
        key = [row["n"], row["delta_omega"], row.get("eta") or row["sigma_eta"]]
        assert key == [str(n), format(delta, ".12g"), format(value, ".12g")]
        try:
            if parsed.mode == "flat":
                response = speccap.FlatResponse(value)
            else:
                response = speccap.GaussianPeakResponse(parsed.p_peak, value)
            letters = make_gaussian_basis(n, delta, parsed.sigma_psi)
            report = speccap.holevo_bound(speccap.compute_gram(speccap.EncodingEnsemble.uniform(letters), response))
        except (speccap.ValidationError, speccap.ComputationError) as exc:
            assert (row["holevo_bits"], row["error"]) == ("", str(exc))
            continue
        assert row["error"] == ""
        wants = (report.holevo_bits, report.post_selected_bits, report.mean_loss)
        for column, want in zip(("holevo_bits", "post_selected_bits", "eps_bar"), wants):
            have = float(row[column])
            assert abs(have - want) <= 1e-11 * abs(want) or max(abs(have), abs(want)) < 1e-12, (row, column, want)


@pytest.mark.parametrize("name, block", [("readme_flat_sweep.csv", 11), ("readme_gaussian_sweep.csv", 15)])
def test_readme_sweeps_solve_one_stack_per_comb(tmp_path, monkeypatch, lapack_shapes, name, block):
    # 21 spacings, each a mirror comb of `block` points: 21 stacked solves of the 272
    # distinct entries of its 32 x 32 Gram matrices, each one even and one odd
    # 16 x 16 stack; not one solve per point, and no whole matrix.
    quarters, whole = [], []
    solve_blocks = speccap.channel.centrosymmetric_eigenvalues
    solve_whole = speccap.numerics.hermitian_eigenvalues

    def counted(quarter, n):
        quarters.append(np.shape(quarter))
        return solve_blocks(quarter, n)

    def refused(matrix, **kwargs):
        whole.append(np.shape(matrix))
        return solve_whole(matrix, **kwargs)

    monkeypatch.setattr("speccap.channel.centrosymmetric_eigenvalues", counted)
    for module in (speccap, speccap.numerics, speccap.channel, speccap.capacity):
        monkeypatch.setattr(module, "hermitian_eigenvalues", refused)
    # A uniform-prior sweep builds its combs as arrays, never as letter objects: it never reaches the
    # ensemble of letters that an optimized point's solver builds, as the last sweep here does.
    ensembles = []
    uniform = speccap.EncodingEnsemble.uniform
    recorded = types.SimpleNamespace(uniform=lambda letters: ensembles.append(letters) or uniform(letters))
    monkeypatch.setattr("speccap.cli.EncodingEnsemble", recorded)
    args = ["sweep", "--n", "32", "--delta-omega", "0:10:0.5", *README_SWEEPS[name], "--out", str(tmp_path / name)]
    assert main(args) == EXIT_OK
    assert quarters == [(block, 272)] * 21
    assert lapack_shapes == [(block, 16, 16), (block, 16, 16)] * 21
    assert whole == []
    assert ensembles == []
    args = ["sweep", "--n", "2", "--delta-omega", "1", *README_SWEEPS[name][:3], "0.5", "--priors", "optimized"]
    assert main([*args, "--out", str(tmp_path / "optimized.csv")]) == EXIT_OK
    assert len(ensembles) == 1


def write_tabulated_inputs(directory, seed, letters=8, points=401):
    """Seeded letter files and a channel file in the benchmark's shape: two-peak chirped letters, rippled channel."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(-20.0, 20.0, points)
    paths = []
    for k in range(letters):
        (c1, c2), (w1, w2) = rng.uniform(-8.0, 8.0, 2), rng.uniform(0.8, 2.5, 2)
        second, chirp = rng.uniform(0.2, 1.0), rng.uniform(-0.2, 0.2)
        envelope = np.exp(-((grid - c1) ** 2) / (4 * w1**2)) + second * np.exp(-((grid - c2) ** 2) / (4 * w2**2))
        values = envelope * np.exp(1j * chirp * (grid - c1) ** 2)
        paths.append(directory / f"letter{k}.csv")
        paths[-1].write_text("".join(f"{w:.17g},{v.real:.17g},{v.imag:.17g}\n" for w, v in zip(grid, values)))
    peak, ripple = rng.uniform(0.7, 0.95), rng.uniform(0.0, 0.2)
    period, width = rng.uniform(1.0, 4.0), rng.uniform(5.0, 9.0)
    eta = peak * (1.0 - ripple * np.cos(2 * np.pi * grid / period)) / (1.0 + ripple) * np.exp(-(grid**2) / (4 * width**2))
    channel = directory / "channel.csv"
    channel.write_text("".join(f"{w:.17g},{v:.17g}\n" for w, v in zip(grid, eta)))
    return paths, channel


@pytest.mark.parametrize("name, block", [("readme_flat_sweep.csv", 11), ("readme_gaussian_sweep.csv", 15)])
def test_readme_stacks_reach_lapack_as_even_and_odd_halves(tmp_path, lapack_shapes, name, block):
    # A symmetric comb through an even channel gives exactly centrosymmetric
    # Gram matrices, each solved as two 16 x 16 halves.
    args = ["sweep", "--n", "32", "--delta-omega", "0:10:0.5", *README_SWEEPS[name], "--out", str(tmp_path / name)]
    assert main(args) == EXIT_OK
    assert lapack_shapes == [(block, 16, 16)] * 42


def test_symmetric_combs_at_non_dyadic_spacings_reach_lapack_as_even_and_odd_halves(tmp_path, lapack_shapes):
    # Spacings in steps of 0.1 are not binary fractions, yet every symmetric
    # comb is an exact mirror: 31 spacings each for N = 5 and 32, one block
    # of 9 points per comb, no matrix solved whole.
    args = ["sweep", "--mode", "gaussian", "--n", "5,32", "--delta-omega", "0:3:0.1", "--sigma-eta", "0.7:3.1:0.3"]
    assert main([*args, "--out", str(tmp_path / "sweep.csv")]) == EXIT_OK
    assert lapack_shapes == [(9, 3, 3), (9, 2, 2)] * 31 + [(9, 16, 16)] * 62


def test_a_tabulated_gram_reaches_lapack_whole(tmp_path, lapack_shapes):
    # Tabulated letters have no mirror symmetry: one dense 8 x 8 solve.
    paths, channel = write_tabulated_inputs(tmp_path, seed=7)
    args = ["gram-dump", *(arg for path in paths for arg in ("--letters", str(path)))]
    assert main([*args, "--channel-file", str(channel), "--out", str(tmp_path / "gram.csv")]) == EXIT_OK
    assert lapack_shapes == [(8, 8)]


def test_tabulated_gram_dump_matches_its_golden_csv(tmp_path):
    # The golden file was written before tabulated inputs left adaptive quadrature.
    paths, channel = write_tabulated_inputs(tmp_path, seed=7)
    out = tmp_path / "gram.csv"
    args = ["gram-dump", *(arg for path in paths for arg in ("--letters", str(path)))]
    assert main([*args, "--channel-file", str(channel), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / "tabulated_gram_dump.csv").read_bytes()


# The two mixed routes of the fixed 10-point rule: Gaussian letters through a
# tabulated channel, and tabulated letters through a Gaussian channel.
MIXED_GRAM_DUMPS = {
    "gaussian_letters_tabulated_channel.csv": ["--n", "8", "--delta-omega", "1", "--channel-file", "three_point.csv"],
    "tabulated_letters_gaussian_channel.csv": [
        *(arg for k in range(8) for arg in ("--letters", f"letter{k}.csv")),
        "--p-peak",
        "0.9",
        "--sigma-eta",
        "3",
    ],
}


@pytest.mark.parametrize("name", sorted(MIXED_GRAM_DUMPS))
def test_mixed_gram_dump_matches_its_golden_csv(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "three_point.csv").write_text("-12,0.2\n0,0.95\n12,0.2\n", encoding="utf-8")
    write_tabulated_inputs(tmp_path, seed=7)
    assert main(["gram-dump", *MIXED_GRAM_DUMPS[name], "--out", "gram.csv"]) == EXIT_OK
    assert (tmp_path / "gram.csv").read_bytes() == (DATA / name).read_bytes()


# Grid points near the largest float: a single grid, or two grids merged, may
# span more than it.  Each probe once met overflow warnings.
SPAN_PROBES = {
    "huge-channel": (["--n", "1", "--delta-omega", "0", "--channel-file", "huge.csv"], EXIT_USAGE, "huge.csv: "),
    "disjoint-grids": (["--letters", "left.csv", "--channel-file", "right.csv"], EXIT_USAGE, "span more than"),
    "far-letter": (["--letters", "left.csv", "--eta", "1"], EXIT_OK, ""),
}


@pytest.mark.parametrize("probe", sorted(SPAN_PROBES))
def test_gram_dump_of_grids_near_the_largest_float_exits_without_a_warning(tmp_path, monkeypatch, capsys, probe):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.csv").write_text("-1e308,1\n1e308,1\n", encoding="utf-8")
    (tmp_path / "left.csv").write_text("-1e308,1,0\n-9e307,1,0\n", encoding="utf-8")
    (tmp_path / "right.csv").write_text("9e307,1\n1e308,1\n", encoding="utf-8")
    args, code, message = SPAN_PROBES[probe]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["gram-dump", *args, "--out", "gram.csv"]) == code
    assert message in capsys.readouterr().err
    if code == EXIT_OK:
        assert [row["value_re"] for row in read_rows(tmp_path / "gram.csv") if row["record"] == "survival"] == ["1"]


# Squared unscaled, samples of 1e200 overflowed to a zero letter and 1e-170 read
# as identically zero; on a grid 1e308 wide the weights and the norm overflowed.
LETTERS_NEAR_THE_FLOAT_LIMITS = {
    "1e200": "0,1e200,0\n1,1e200,0\n",
    "1e-170": "0,1e-170,0\n1,1e-170,0\n",
    "5e-324": "0,5e-324,0\n1,5e-324,0\n",
    "1e308-wide": "-5e307,0.99,0.99\n5e307,0.99,0.99\n",
}


@pytest.mark.parametrize("sample", sorted(LETTERS_NEAR_THE_FLOAT_LIMITS))
def test_gram_dump_of_a_letter_sampled_near_the_float_limits_is_normalized(tmp_path, sample):
    letter = tmp_path / "letter.csv"
    letter.write_text(LETTERS_NEAR_THE_FLOAT_LIMITS[sample], encoding="utf-8")
    out = tmp_path / "gram.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["gram-dump", "--letters", str(letter), "--eta", "1", "--out", str(out)]) == EXIT_OK
    assert [row["value_re"] for row in read_rows(out) if row["record"] == "survival"] == ["1"]


def test_optimal_n_curve_and_summary(tmp_path):
    out = tmp_path / "optimal.csv"
    code = main(
        [
            "optimal-n",
            "--sigma-eta",
            "5",
            "--sigma-psi",
            "1",
            "--delta-omega",
            "1",
            "--n-max",
            "12",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    curve = [r for r in rows if r["kind"] == "curve"]
    summary = [r for r in rows if r["kind"] == "optimal"]
    assert len(curve) == 12 and len(summary) == 1
    best = float(summary[0]["bits"])
    assert all(best >= float(r["bits"]) for r in curve)


def test_optimal_n_single_letter(tmp_path):
    out = tmp_path / "optimal.csv"
    assert (
        main(["optimal-n", "--sigma-eta", "2", "--delta-omega", "1", "--n-max", "1", "--out", str(out)])
        == EXIT_OK
    )
    rows = read_rows(out)
    assert [r["kind"] for r in rows] == ["curve", "optimal"]
    assert float(rows[0]["bits"]) == 0.0


def test_optimal_n_rejects_flat_channel_flags():
    result = run_cli(
        "optimal-n", "--sigma-eta", "2", "--delta-omega", "1", "--n-max", "2", "--eta", "0.5", "--out", "x.csv"
    )
    assert result.returncode == EXIT_USAGE


def test_two_state_exact_curve(tmp_path):
    out = tmp_path / "two.csv"
    code = main(
        ["two-state", "--lambda", "0.5,1", "--emit", "exact-curve", "--delta", "0:4:1", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 2 * 5
    at_zero = [r for r in rows if r["delta"] == "0"]
    assert all(float(r["capacity_bits"]) == 0.0 for r in at_zero)


def test_two_state_max_curve_halves_with_peak(tmp_path):
    out_full = tmp_path / "full.csv"
    out_half = tmp_path / "half.csv"
    base = ["two-state", "--lambda", "0.5,1,2", "--emit", "max-curve"]
    assert main(base + ["--out", str(out_full)]) == EXIT_OK
    assert main(base + ["--p-peak", "0.5", "--out", str(out_half)]) == EXIT_OK
    for full, half in zip(read_rows(out_full), read_rows(out_half)):
        # halving is exact in memory; the CSV carries 12 significant digits
        assert float(half["c_max_bits"]) == pytest.approx(0.5 * float(full["c_max_bits"]), abs=1e-12)


def test_two_state_rejects_nonpositive_lambda():
    assert main(["two-state", "--lambda", "0", "--emit", "max-curve", "--out", "x.csv"]) == EXIT_USAGE
    assert main(["two-state", "--lambda", "inf", "--emit", "max-curve", "--out", "x.csv"]) == EXIT_USAGE


def test_gram_dump_single_letter(tmp_path):
    out = tmp_path / "gram.csv"
    code = main(["gram-dump", "--n", "1", "--delta-omega", "0", "--eta", "1", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    gram = [r for r in rows if r["record"] == "gram"]
    assert len(gram) == 1
    assert float(gram[0]["value_re"]) == pytest.approx(1.0, abs=1e-12)


def test_gram_dump_symmetric_pair_diagonal(tmp_path):
    out = tmp_path / "gram.csv"
    code = main(
        ["gram-dump", "--n", "2", "--delta-omega", "2", "--sigma-eta", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    survival = [float(r["value_re"]) for r in rows if r["record"] == "survival"]
    # both letters sit one channel-width from the passband centre
    import math

    expected = math.exp(-0.25) / math.sqrt(2.0)
    assert survival == pytest.approx([expected, expected], abs=1e-12)
    eigen = [float(r["value_re"]) for r in rows if r["record"] == "eigenvalue"]
    assert len(eigen) == 2 and eigen[0] >= eigen[1]


def test_gram_dump_tabulated_letters(tmp_path):
    letter_a = tmp_path / "a.csv"
    letter_b = tmp_path / "b.csv"
    letter_a.write_text("-6,0.1,0\n0,1,0\n6,0.1,0\n", encoding="utf-8")
    letter_b.write_text("-6,0.1,0\n1,1,0\n6,0.1,0\n", encoding="utf-8")
    out = tmp_path / "gram.csv"
    code = main(
        [
            "gram-dump",
            "--letters",
            str(letter_a),
            "--letters",
            str(letter_b),
            "--eta",
            "0.9",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    survival = [float(r["value_re"]) for r in rows if r["record"] == "survival"]
    assert survival == pytest.approx([0.81, 0.81], abs=1e-8)


def test_gram_dump_malformed_letter_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,0\nbroken\n", encoding="utf-8")
    result = run_cli("gram-dump", "--letters", str(bad), "--eta", "1", "--out", str(tmp_path / "g.csv"))
    assert result.returncode == EXIT_USAGE
    assert "bad.csv:2" in result.stderr


def test_gram_dump_requires_exactly_one_channel(tmp_path):
    code = main(
        ["gram-dump", "--n", "2", "--delta-omega", "1", "--eta", "0.5", "--sigma-eta", "1", "--out", "x.csv"]
    )
    assert code == EXIT_USAGE


def test_plot_line_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["two-state", "--lambda", "0.5:2:0.5", "--emit", "max-curve", "--out", str(data)]) == EXIT_OK
    first = tmp_path / "first.svg"
    second = tmp_path / "second.svg"
    args = ["plot", "--in", str(data), "--kind", "line", "--x", "lambda", "--y", "c_max_bits"]
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text(encoding="utf-8")
    assert "<svg" in text and "c_max_bits" in text


def test_plot_heatmap(tmp_path):
    data = tmp_path / "sweep.csv"
    assert (
        main(
            ["sweep", "--mode", "flat", "--n", "4", "--delta-omega", "0:4:1", "--eta", "0:1:0.25", "--out", str(data)]
        )
        == EXIT_OK
    )
    out = tmp_path / "heat.svg"
    code = main(
        ["plot", "--in", str(data), "--kind", "heatmap", "--x", "delta_omega", "--y", "eta", "--value", "holevo_bits", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8").count("<rect") == 5 * 5 + 2
    # Cells are placed by index, so ticks sit at cell centres and name grid
    # values: of x = 0, 1, 10, the last is the third of three 230-pixel cells.
    svg = render_heatmap([(x, 0.0, x) for x in (0.0, 1.0, 10.0)], "x", "y", "v")
    assert '<text x="655.00" y="560" font-size="12" text-anchor="middle">10</text>' in svg
    # Of 7 grid values at most 5 are ticked, the first and last included.
    svg = render_heatmap([(0.0, y, y) for y in range(7)], "x", "y", "v")
    assert re.findall(r'text-anchor="end">(\d+)</text>', svg) == ["0", "2", "3", "4", "6"]


def test_plot_labels_are_xml_escaped():
    svg = render_line([(0.0, 0.0), (1.0, 1.0)], "a<b&c>d", 'say "x"')
    assert ">a&lt;b&amp;c&gt;d</text>" in svg
    assert '>say "x"</text>' in svg  # quotes stay as they are in element text


def test_importing_the_cli_loads_no_network_modules():
    heavy = ["urllib.request", "http.client", "email", "ssl", "socket"]
    code = f"import sys, speccap.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env())
    assert result.stdout.strip() == "[]"


def test_star_import_exports_exactly_the_public_names():
    # A name left in __all__ after its object is gone breaks `import *`.
    namespace = {}
    exec("from speccap import *", namespace)
    assert all(namespace[name] is getattr(speccap, name) for name in speccap.__all__)
    public = {
        name
        for name, value in vars(speccap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(speccap.__all__)


def test_plot_unknown_column_lists_available(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["two-state", "--lambda", "1", "--emit", "max-curve", "--out", str(data)]) == EXIT_OK
    code = main(["plot", "--in", str(data), "--kind", "line", "--x", "nope", "--y", "c_max_bits", "--out", "x.svg"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "lambda" in captured.err and "c_max_bits" in captured.err


def test_sweep_opaque_channel_writes_positive_zero(tmp_path):
    out = tmp_path / "opaque.csv"
    code = main(["sweep", "--mode", "flat", "--n", "4", "--delta-omega", "0:2:1", "--eta", "0", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 3
    assert all(r["holevo_bits"] == "0" and r["post_selected_bits"] == "0" for r in rows)


def test_unwritable_output_is_io_error(tmp_path):
    code = main(["sweep", "--mode", "flat", "--n", "2", "--delta-omega", "1", "--eta", "1", "--out", str(tmp_path / "missing" / "out.csv")])
    assert code == EXIT_IO


def test_missing_letters_file_is_io_error(tmp_path):
    code = main(
        ["gram-dump", "--letters", str(tmp_path / "nope.csv"), "--eta", "1", "--out", str(tmp_path / "g.csv")]
    )
    assert code == EXIT_IO


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


# Input files for CLI_BRANCHES, and one branch of main or a command each.
BRANCH_FILES = {
    "empty.csv": "",
    "text.csv": "a,b\n1,x\n",
    "nan.csv": "a,b\n1,nan\n2,inf\n",
    "blank.csv": "a,b,c\n1,,3\n",
    "data.csv": "a,b,c\n1,2,3\n",
    "channel.csv": "-12,0.2\n0,0.95\n12,0.2\n",
}
TWO_STATE = ["two-state", "--emit", "max-curve", "--lambda"]
SWEEP = ["sweep", "--n", "2", "--delta-omega", "1", "--mode"]
LINE_PLOT = ["plot", "--kind", "line", "--x", "a", "--y", "b", "--in"]
CLI_BRANCHES = {
    "grid-pieces": ([*TWO_STATE, "0:1"], EXIT_USAGE, "bad grid '0:1': expected min:max:step"),
    "grid-step": ([*TWO_STATE, "1:2:0"], EXIT_USAGE, "need step > 0"),
    "n-list": ([*SWEEP, "flat", "--eta", "1", "--n", "2,x"], EXIT_USAGE, "bad integer list '2,x'"),
    "gaussian-sweep": ([*SWEEP, "gaussian"], EXIT_USAGE, "gaussian mode requires --sigma-eta"),
    "letters-and-n": (["gram-dump", "--letters", "a.csv", "--n", "2", "--eta", "1"], EXIT_USAGE, "not both"),
    "no-letters": (["gram-dump", "--eta", "1"], EXIT_USAGE, "need --letters files or both --n and --delta-omega"),
    "heatmap-value": (
        ["plot", "--in", "data.csv", "--kind", "heatmap", "--x", "a", "--y", "b"],
        EXIT_USAGE,
        "heatmap requires --value",
    ),
    "empty-csv": ([*LINE_PLOT, "empty.csv"], EXIT_USAGE, "empty.csv: empty CSV"),
    "text-cell": ([*LINE_PLOT, "text.csv"], EXIT_USAGE, "column 'b' has non-numeric cell 'x'"),
    "nan-cell": ([*LINE_PLOT, "nan.csv"], EXIT_USAGE, "column 'b' has non-finite cell 'nan'"),
    "no-line-rows": ([*LINE_PLOT, "blank.csv"], EXIT_USAGE, "no plottable rows"),
    "no-heatmap-rows": (
        ["plot", "--in", "blank.csv", "--kind", "heatmap", "--x", "a", "--y", "c", "--value", "b"],
        EXIT_USAGE,
        "no plottable rows",
    ),
    "computation": (
        ["gram-dump", "--n", "2", "--delta-omega", "1", "--channel-file", "channel.csv"],
        EXIT_COMPUTATION,
        "speccap: computation failed: Hermitian eigensolve failed",
    ),
}


@pytest.mark.parametrize("branch", sorted(CLI_BRANCHES))
def test_cli_branch_exit_code_and_message(tmp_path, monkeypatch, capsys, branch):
    monkeypatch.chdir(tmp_path)
    for name, text in BRANCH_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    # LAPACK fails; only the gram-dump reaches an eigensolve.
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    args, code, message = CLI_BRANCHES[branch]
    assert main([*args, "--out", "out.csv"]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_thread_env_var_validation(tmp_path):
    for value in ("zero", "0"):
        result = run_cli(
            "sweep", "--mode", "flat", "--n", "2", "--delta-omega", "1", "--eta", "1",
            "--out", str(tmp_path / "o.csv"), env={"SPECCAP_THREADS": value},
        )
        assert result.returncode == EXIT_USAGE
        assert "SPECCAP_THREADS" in result.stderr


def test_gram_dump_non_finite_letter_is_invalid_input(tmp_path):
    letter = tmp_path / "nan.csv"
    letter.write_text("0,1,0\n1,nan,0\n2,1,0\n", encoding="utf-8")
    result = run_cli(
        "gram-dump", "--letters", str(letter), "--eta", "1", "--out", str(tmp_path / "g.csv"),
        env={"PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    assert result.returncode == EXIT_USAGE
    assert "invalid input" in result.stderr and "nan.csv" in result.stderr and "finite" in result.stderr


def test_gram_dump_non_utf8_letter_file_is_invalid_input(tmp_path):
    letter = tmp_path / "latin1.csv"
    letter.write_bytes(b"0,1,0\n# caf\xe9\n1,\xff,0\n")
    result = run_cli("gram-dump", "--letters", str(letter), "--eta", "1", "--out", str(tmp_path / "g.csv"))
    assert result.returncode == EXIT_USAGE
    assert "invalid input" in result.stderr and "latin1.csv" in result.stderr and "UTF-8" in result.stderr
    assert "Traceback" not in result.stderr


def test_plot_non_utf8_input_is_invalid_input(tmp_path):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"lambda,c_max_bits\n0.5,0.5\n1,\xff\n")
    result = run_cli("plot", "--in", str(data), "--kind", "line", "--x", "lambda", "--y", "c_max_bits", "--out", str(tmp_path / "p.svg"))
    assert result.returncode == EXIT_USAGE
    assert "invalid input" in result.stderr and "latin1.csv" in result.stderr and "UTF-8" in result.stderr
    assert "Traceback" not in result.stderr


def write_letter(path, center):
    path.write_text(f"-6,0.1,0\n{center},1,0\n6,0.1,0\n", encoding="utf-8")
    return str(path)


def test_consecutive_calls_do_not_share_letters(tmp_path):
    a = write_letter(tmp_path / "a.csv", 0)
    b = write_letter(tmp_path / "b.csv", 1)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["gram-dump", "--letters", a, "--letters", b, "--eta", "1", "--out", str(first)]) == EXIT_OK
    assert main(["gram-dump", "--letters", b, "--eta", "1", "--out", str(second)]) == EXIT_OK
    assert len([r for r in read_rows(first) if r["record"] == "gram"]) == 4
    assert len([r for r in read_rows(second) if r["record"] == "gram"]) == 1
    fresh = tmp_path / "fresh.csv"
    assert run_cli("gram-dump", "--letters", b, "--eta", "1", "--out", str(fresh)).returncode == EXIT_OK
    assert second.read_bytes() == fresh.read_bytes()


def test_option_given_once_falls_back_to_its_default_next_call(tmp_path):
    sweep = ["sweep", "--mode", "gaussian", "--n", "2", "--delta-omega", "1", "--sigma-eta", "2"]
    assert main(sweep + ["--p-peak", "0.5", "--out", str(tmp_path / "half.csv")]) == EXIT_OK
    assert main(sweep + ["--out", str(tmp_path / "default.csv")]) == EXIT_OK
    assert [r["p_peak"] for r in read_rows(tmp_path / "half.csv")] == ["0.5"]
    assert [r["p_peak"] for r in read_rows(tmp_path / "default.csv")] == ["1"]


def test_usage_error_leaves_the_next_call_as_in_a_fresh_process(tmp_path):
    args = ["sweep", "--mode", "flat", "--n", "2,4", "--delta-omega", "0:2:1", "--eta", "0.5,1"]
    assert main(args + ["--frobnicate", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert main(["sweep", "--mode", "flat", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    reused, fresh = tmp_path / "reused.csv", tmp_path / "fresh.csv"
    assert main(args + ["--post-select", "--out", str(reused)]) == EXIT_OK
    assert run_cli(*args, "--post-select", "--out", str(fresh)).returncode == EXIT_OK
    assert reused.read_bytes() == fresh.read_bytes()
    assert not (tmp_path / "x.csv").exists()


# Each command's width, spacing, probability and lambda options with ordinary
# values; the robustness grid sets one of them at a time to each extreme value.
EXTREME_VALUES = ("1e-320", "1e-200", "1e-160", "1e200", "inf", "nan")
ROBUSTNESS_COMMANDS = {
    "sweep-flat": (["sweep", "--mode", "flat", "--n", "2"], {"--delta-omega": "1", "--eta": "0.5", "--sigma-psi": "1"}),
    "sweep-gaussian": (
        ["sweep", "--mode", "gaussian", "--n", "2"],
        {"--delta-omega": "1", "--sigma-eta": "1", "--sigma-psi": "1", "--p-peak": "0.9"},
    ),
    "sweep-optimized": (
        ["sweep", "--mode", "gaussian", "--n", "3", "--priors", "optimized"],
        {"--delta-omega": "1", "--sigma-eta": "1", "--sigma-psi": "1", "--p-peak": "0.9"},
    ),
    "optimal-n": (
        ["optimal-n", "--n-max", "4"],
        {"--delta-omega": "2", "--sigma-eta": "2", "--sigma-psi": "1", "--p-peak": "0.9"},
    ),
    "two-state-exact": (["two-state", "--emit", "exact-curve"], {"--lambda": "0.5", "--delta": "1", "--p-peak": "0.9"}),
    "two-state-max": (["two-state", "--emit", "max-curve"], {"--lambda": "0.5", "--p-peak": "0.9"}),
    "gram-dump-gaussian": (
        ["gram-dump", "--n", "3"],
        {"--delta-omega": "1", "--sigma-eta": "1", "--sigma-psi": "1", "--p-peak": "0.9"},
    ),
    "gram-dump-flat": (["gram-dump", "--n", "3"], {"--delta-omega": "1", "--eta": "0.5", "--sigma-psi": "1"}),
    "gram-dump-tabulated": (["gram-dump", "--letters", "letter.csv"], {"--sigma-eta": "1", "--p-peak": "0.9"}),
}


@pytest.mark.parametrize("value", EXTREME_VALUES)
@pytest.mark.parametrize(
    "command,option", [(command, option) for command, (_, options) in ROBUSTNESS_COMMANDS.items() for option in options]
)
def test_every_command_turns_an_extreme_option_value_into_an_exit_code(tmp_path, monkeypatch, command, option, value):
    # A traceback, or a RuntimeWarning (an error under pytest), escapes main.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "letter.csv").write_text("-3,0,0\n-1,0.5,0.1\n0,1,0\n2,0.3,-0.2\n3,0,0\n", encoding="utf-8")
    fixed, options = ROBUSTNESS_COMMANDS[command]
    argv = [*fixed, "--out", "out.csv"]
    for name, ordinary in options.items():
        argv += [name, value if name == option else ordinary]
    assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_COMPUTATION)


def _gram_dump_values(tmp_path, *args):
    out = tmp_path / "gram.csv"
    assert main(["gram-dump", *args, "--out", str(out)]) == EXIT_OK
    return {(row["record"], row["i"], row["j"]): complex(float(row["value_re"]), float(row["value_im"] or 0.0))
            for row in read_rows(out)}


def test_gram_dump_through_a_gaussian_channel_at_the_top_of_its_width_range_matches_a_flat_one(tmp_path):
    # The channel is sampled across +-10 widths, where (omega / w)^2 / 4 once overflowed.
    letter = tmp_path / "letter.csv"
    letter.write_text("-2,0,0\n0,1,0\n2,0,0\n", encoding="utf-8")
    wide = _gram_dump_values(tmp_path, "--letters", str(letter), "--sigma-eta", "1.3e154")
    flat = _gram_dump_values(tmp_path, "--letters", str(letter), "--eta", "1")
    assert wide.keys() == flat.keys()
    for key, value in flat.items():
        assert abs(wide[key] - value) <= 1e-10, key


def test_gram_dump_of_a_letter_at_the_top_of_its_width_range_through_a_tabulated_channel(tmp_path):
    # Across the channel's grid the letter's intensity is flat at 1 / (sqrt(2 pi) w),
    # and the piecewise-linear eta^2 integrates to 2 * 3 * (0.25 + 0.25 + 0.25 / 3) = 3.5.
    channel = tmp_path / "channel.csv"
    channel.write_text("-3,0.5\n0,1\n3,0.5\n", encoding="utf-8")
    width = 1.3e154
    values = _gram_dump_values(
        tmp_path, "--n", "1", "--delta-omega", "1", "--sigma-psi", str(width), "--channel-file", str(channel)
    )
    expected = 3.5 / (math.sqrt(2.0 * math.pi) * width)
    assert values[("survival", "0", "")].real == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert values[("gram", "0", "0")] == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("lam", ["1e8", "1e76"])
def test_two_state_max_curve_of_very_wide_letters_has_a_maximum(tmp_path, lam):
    # Both once reported an error: the capacity near zero separation cancelled to 0.
    out = tmp_path / "max.csv"
    assert main(["two-state", "--emit", "max-curve", "--lambda", lam, "--out", str(out)]) == EXIT_OK
    (row,) = read_rows(out)
    assert row["error"] == ""
    assert float(row["delta_star"]) / float(lam) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
