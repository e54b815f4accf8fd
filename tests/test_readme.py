"""The README names the functions that check each fixed limit, its quick start and
command-line examples run, and the scenario-format examples are the catalog
scenarios they name."""

import importlib
import re
import shlex
from dataclasses import replace
from pathlib import Path

import weakmeas
from weakmeas import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SCENARIO_FORMAT = README.parent / "docs" / "scenario_format.md"


def fixed_limit_checks():
    """Backticked dotted names in the "checked by" column, per "Fixed limits" row."""
    section = README.read_text(encoding="utf-8").split("## Fixed limits", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    assert rows[0].split("|")[3].strip() == "checked by"
    return {row: re.findall(r"`(\w+\.\w+)`", row.split(" | ")[-1]) for row in rows[1:]}


def resolve(name):
    """``module.name`` under the package, or ``Class.attr`` of a package export."""
    owner, attr = name.split(".")
    try:
        scope = importlib.import_module(f"weakmeas.{owner}")
    except ModuleNotFoundError:
        scope = getattr(weakmeas, owner)
    return getattr(scope, attr)


def test_every_fixed_limit_names_a_check_that_resolves():
    checks = fixed_limit_checks()
    assert checks
    for row, names in checks.items():
        assert names, f"no check named in {row}"
        for name in names:
            resolve(name)  # AttributeError names the missing attribute


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[2].endswith(" True")


def test_command_line_examples_run(monkeypatch, tmp_path):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "weakmeas" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)


def test_scenario_format_examples_match_the_catalog():
    blocks = re.findall(r"```json\n(.*?)```", SCENARIO_FORMAT.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    for block in blocks:
        example = weakmeas.load_scenario(block)
        shipped = weakmeas.resolve_scenario(example.name)
        assert replace(example, description=None) == replace(shipped, description=None), (
            example.name
        )
