import csv
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import speccap
from speccap.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, MAX_GRID_POINTS, UsageError, main, parse_grid
from speccap.spectral import make_gaussian_basis
from speccap.svgplot import render_line

DATA = Path(__file__).parent / "data"


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "speccap", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_parse_grid_forms():
    assert parse_grid("2") == [2.0]
    assert parse_grid("1,2.5,4") == [1.0, 2.5, 4.0]
    assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    assert len(parse_grid("0:10:0.5")) == 21
    assert len(parse_grid("0:1:0.1")) == 11
    for text in ("0:inf:1", "nan:1:0.5", "0:1:inf", "-1e308:1e308:1"):
        with pytest.raises(UsageError, match="bad grid"):
            parse_grid(text)


def test_parse_grid_rejects_a_range_over_the_point_limit_before_building_it():
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
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


def test_sweep_builds_each_comb_once(tmp_path, monkeypatch):
    calls = []

    def counted(n, spacing, *rest):
        calls.append((n, spacing))
        return make_gaussian_basis(n, spacing, *rest)

    monkeypatch.setattr("speccap.cli.make_gaussian_basis", counted)
    out = tmp_path / "sweep.csv"
    grid = ["--n", "2,3", "--delta-omega", "0,1,2", "--sigma-eta", "1,2,3,4"]
    assert main(["sweep", "--mode", "gaussian", *grid, "--out", str(out)]) == EXIT_OK
    assert calls == [(n, spacing) for n in (2, 3) for spacing in (0.0, 1.0, 2.0)]
    rows = read_rows(out)
    assert [(row["n"], row["delta_omega"], row["sigma_eta"]) for row in rows] == [
        (n, d, s) for n in "23" for d in "012" for s in "1234"
    ]
    assert all(row["error"] == "" for row in rows)


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


@pytest.mark.parametrize("name", sorted(README_SWEEPS))
def test_readme_sweep_matches_its_golden_csv(tmp_path, name):
    out = tmp_path / name
    args = ["sweep", "--n", "32", "--delta-omega", "0:10:0.5", *README_SWEEPS[name], "--out", str(out)]
    assert main(args) == EXIT_OK
    with open(DATA / name, newline="", encoding="utf-8") as handle:
        expected = list(csv.reader(handle))
    with open(out, newline="", encoding="utf-8") as handle:
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


def test_plot_labels_are_xml_escaped():
    svg = render_line([(0.0, 0.0), (1.0, 1.0)], "a<b&c>d", 'say "x"')
    assert ">a&lt;b&amp;c&gt;d</text>" in svg
    assert '>say "x"</text>' in svg  # quotes stay as they are in element text


def test_importing_the_cli_loads_no_network_modules():
    heavy = ["urllib.request", "http.client", "email", "ssl", "socket"]
    code = f"import sys, speccap.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
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
