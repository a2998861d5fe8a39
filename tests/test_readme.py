"""README's ``## Library`` block, run as a reader would paste it, with the numbers its comments show."""
import ast
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_block():
    """The Python block that opens README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def shown_numbers(comment):
    """The numbers after ``# ->`` in ``comment``, each with its count of decimals."""
    return [(float(text), len(text.split(".")[1])) for text in re.findall(r"\d+\.\d+", comment.split("# ->", 1)[1])]


def test_the_readme_library_block_gives_the_numbers_its_comments_show():
    source = library_block()
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
