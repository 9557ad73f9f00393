"""No kdvlab module reaches into another module's private names."""

import ast
from pathlib import Path

import kdvlab

PACKAGE = Path(kdvlab.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The kdvlab module an import reads from, or None for any other package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "kdvlab":
        return node.module.partition(".")[2]
    return None


def private_reaches(source: str) -> list[str]:
    """``module._name`` for every private name of a sibling module the source reads."""
    tree = ast.parse(source)
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _sibling(node)) is not None:
            for alias in node.names:
                if module == "" and alias.name in MODULES:  # from . import flow
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kdvlab" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_the_checker_flags_private_imports_and_attributes():
    assert private_reaches("from .flow import _fit_modes, evolve\n") == ["flow._fit_modes"]
    assert private_reaches("from kdvlab.measures import _FUNCTIONALS\n") == ["measures._FUNCTIONALS"]
    assert private_reaches("from . import flow\nflow._fit_modes(x, 4)\n") == ["flow._fit_modes"]
    assert private_reaches("import kdvlab.flow as fl\nfl._to_state(x)\n") == ["flow._to_state"]
    clean = (
        "from __future__ import annotations\n"
        "from numpy.fft._pocketfft_umath import irfft as _irfft\n"
        "from . import flow\n"
        "flow.evolve(u, 1.0, cfg)\n"
        "flow.__name__\n"
        "self._cache\n"
    )
    assert private_reaches(clean) == []


def test_no_module_reads_a_private_name_of_another():
    found = {
        path.name: reaches
        for path in sorted(PACKAGE.glob("*.py"))
        if (reaches := private_reaches(path.read_text()))
    }
    assert found == {}
