"""What the repository says about its code holds.

README's library quick start runs as written, and every ``thintail`` line in its
bash blocks parses with the command-line parser, so README cannot drift from the
code unseen.  Every module parses at the Python floor that pyproject's
``requires-python`` names, the version CI's oldest leg runs.  No module
passes ``where=`` to a ``scipy.special`` function.
"""

import ast
import re
import shlex
from pathlib import Path

from thintail import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _fenced(language: str, text: str = README) -> list[str]:
    """The fenced ``language`` code blocks of ``text``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def _section(title: str) -> str:
    """README's text under the level-2 heading ``title``, up to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : None if end < 0 else end]


def test_library_quick_start_runs():
    (code,) = _fenced("python", _section("Quick start (library)"))
    exec(compile(code, "README.md", "exec"), {})


def test_every_cli_line_parses():
    lines = [line.strip() for block in _fenced("bash") for line in block.replace("\\\n", " ").splitlines()]
    argvs = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("thintail ")]
    for argv in argvs:
        assert cli._build_parser(argv).parse_args(argv).command == argv[0]
    assert sorted(argv[0] for argv in argvs) == ["capital", "compare", "curve", "density", "fit"]


def test_modules_parse_at_the_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, flags=re.M).groups()))
    sources = sorted((ROOT / "src" / "thintail").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def _special_calls(tree: ast.Module) -> list[ast.Call]:
    """The calls in ``tree`` of a ``scipy.special`` function: a name imported from it, under any alias, or an
    attribute of the module imported under any name."""
    functions, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            functions |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "special"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names if alias.name == "scipy.special" and alias.asname}
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in functions
        or isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
        and node.func.value.id in modules)]


def test_no_scipy_special_call_passes_where():
    # On scipy 1.17.1, gammainc(a, u, out=out, where=mask) corrupted the heap and aborted the
    # process in 5 of 5 runs; a masked evaluation indexes its inputs instead.
    sources = sorted((ROOT / "src" / "thintail").glob("*.py"))
    calls = {path.name: _special_calls(ast.parse(path.read_text(encoding="utf-8"))) for path in sources}
    assert calls["dist.py"]  # the check sees the CDF and quantile kernels' calls
    offending = [f"{name}:{call.lineno}" for name, found in calls.items() for call in found
                 if any(keyword.arg == "where" for keyword in call.keywords)]
    assert offending == []
