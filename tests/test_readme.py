"""README's python examples run, in order, as one script; its `whirlcurves`
command lines run and pass; and its module table names every public
function and class of each library module, with the parameters of each
signature it writes out."""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from whirlcurves import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = sorted(p for p in (ROOT / "src" / "whirlcurves").glob("*.py")
                 if p.stem not in ("__init__", "cli"))   # the CLI's row names the command


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    # the examples write their files into the working directory
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "whirl.csv").is_file()


def test_readme_command_lines_pass(tmp_path, monkeypatch, capsys):
    # so a renamed flag or subcommand fails the suite, not just the docs
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("whirlcurves ")]
    assert [argv[1] for argv in lines] == ["synth", "rect", "extend", "verify", "figure1"]
    monkeypatch.chdir(tmp_path)   # the lines write into out/ and fig1/
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr())


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_the_module_table_names_every_public_function_and_class(module):
    rows = [line for line in README.read_text().splitlines()
            if line.startswith(f"| `whirlcurves.{module.stem}`")]
    assert len(rows) == 1
    public = [node.name for node in ast.parse(module.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    # a name is named as `name` or as a call, `name(...)`
    assert [n for n in public if not re.search(rf"`{n}[`(]", rows[0])] == []


def _parameter_names(fn):
    """The parameter names of ``fn`` as a signature writes them, with ``*``
    before the first keyword-only one."""
    names = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(p.name)
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_the_module_table_writes_each_signature_as_the_code_has_it(module):
    row, = [line for line in README.read_text().splitlines()
            if line.startswith(f"| `whirlcurves.{module.stem}`")]
    lib = importlib.import_module(f"whirlcurves.{module.stem}")
    for name, params in re.findall(r"`(\w+)\(([^`()]*)\)`", row):
        written = [p.split("=")[0].strip() for p in params.split(",") if p.strip()]
        assert written == _parameter_names(getattr(lib, name)), name
