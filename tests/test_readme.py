"""README's ``## Library`` and ``## CLI`` blocks, run as a reader would paste them, with the results they show."""
import ast
import re
import shlex
from pathlib import Path

from speccap.cli import EXIT_OK, main
from test_cli import DATA, assert_sweep_matches_golden

README = Path(__file__).parents[1] / "README.md"


def readme_block(section, language):
    """The first ``language`` block of README's ``## <section>`` section."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.DOTALL).group(1)


def shown_numbers(comment):
    """The numbers after ``# ->`` in ``comment``, each with its count of decimals."""
    return [(float(text), len(text.split(".")[1])) for text in re.findall(r"\d+\.\d+", comment.split("# ->", 1)[1])]


def test_the_readme_library_block_gives_the_numbers_its_comments_show():
    source = readme_block("Library", "python")
    lines = source.splitlines()
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        line = lines[statement.lineno - 1]
        if "# ->" not in line:
            continue
        values = value if isinstance(value, tuple) else (value,)
        shown = shown_numbers(line)
        assert len(values) == len(shown), line
        for got, (number, decimals) in zip(values, shown):
            assert round(got, decimals) == number, (line, got)
        checked.append(shown)
    assert checked == [[(5.0, 3)], [(0.5588, 4), (1.809, 3)]]


def test_the_readme_cli_block_runs_as_pasted_and_writes_the_golden_csvs(tmp_path, monkeypatch):
    # In order, in one directory, so the plots read the CSVs the sweep and two-state commands wrote.
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in readme_block("CLI", "sh").splitlines() if line.startswith("speccap ")]
    assert [command[1] for command in commands] == ["sweep", "sweep", "optimal-n", "two-state", "gram-dump", "plot", "plot"]
    for command in commands:
        out = tmp_path / command[command.index("--out") + 1]
        assert main(command[1:]) == EXIT_OK, command
        assert out.stat().st_size > 0, command
    assert (tmp_path / "two_state.csv").read_bytes() == (DATA / "readme_two_state_max.csv").read_bytes()
    assert_sweep_matches_golden(tmp_path / "flat.csv", "readme_flat_sweep.csv")
    assert_sweep_matches_golden(tmp_path / "gauss.csv", "readme_gaussian_sweep.csv")
