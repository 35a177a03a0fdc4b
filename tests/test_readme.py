"""README's library quickstart against the package's top level."""

import pathlib
import re
import types

import driftbench

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
