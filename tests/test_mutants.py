"""The accepted equivalent mutants of ``tools/mutants.py`` name sites that
the tool still lists."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_every_equivalent_mutant_is_a_site_of_the_tool(capsys):
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    known = mutants.equivalent()
    assert known and all(known.values())
    functions = {}
    for site in known:
        module, function = site.split(":", 1)[0].split()
        functions.setdefault(module, set()).add(function)
    for module, names in functions.items():
        assert mutants.main([module, *sorted(names), "--list"]) == 0
    listed = {line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()}
    assert set(known) <= listed
