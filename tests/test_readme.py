"""README's library quickstart against the package's top level, and its CLI
section against the parser, the config loader and the exit codes of
``driftbench.cli``."""

import argparse
import importlib
import pathlib
import pkgutil
import re
import types

import driftbench
from driftbench import cli
from driftbench.harness import ExperimentConfig, load_config

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
QUICKSTART = README.partition("## Library quickstart")[2].partition("\n## ")[0]


def test_quickstart_runs_as_written(capsys):
    code = re.search(r"```python\n(.*?)```", QUICKSTART, re.DOTALL).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(len(line.split()) == 2 for line in lines)


def test_top_level_names_are_the_ones_listed():
    listed = QUICKSTART.partition("The package's top level is")[2].partition("Everything else")[0]
    public = {n for n, v in vars(driftbench).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(re.findall(r"`(\w+)`", listed)) == public


def test_module_references_resolve():
    # every `from driftbench.<module> import <name>` and backticked `<module>.<name>`
    modules = {m.name for m in pkgutil.iter_modules(driftbench.__path__)}
    imports = re.findall(r"`from driftbench\.(\w+) import (\w+)`", README)
    spans = re.findall(r"`([^`\n]+)`", README)
    refs = [ref for span in spans for ref in re.findall(r"\b(?:driftbench\.)?(\w+)\.(\w+)", span) if ref[0] in modules]
    assert imports and refs
    stale = [f"{m}.{name}" for m, name in imports + refs if not hasattr(importlib.import_module(f"driftbench.{m}"), name)]
    assert not stale


CLI = README.partition("## CLI")[2].partition("\n## ")[0]


def test_cli_block_lists_the_parser_subcommands():
    block = re.search(r"```\n(.*?)```", CLI, re.DOTALL).group(1)
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("bench ")]
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(subparsers.choices)


def test_run_config_block_loads_as_written(tmp_path):
    # every key of the example must still be one the loader knows
    block = re.findall(r"```\n(.*?)```", CLI, re.DOTALL)[1]
    path = tmp_path / "bench.cfg"
    path.write_text(block, encoding="utf-8")
    assert isinstance(load_config(path), ExperimentConfig)


def test_exit_codes_are_the_ones_cli_defines():
    sentence = re.search(r"Exit codes: (.*?)\.", CLI, re.DOTALL).group(1)
    defined = {v for n, v in vars(cli).items() if n.endswith("_ERROR") and isinstance(v, int)}
    assert sorted(int(code) for code in re.findall(r"\b(\d+) \w", sentence)) == sorted({0} | defined)
