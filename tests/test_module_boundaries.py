"""No kdvlab module reaches into another module's private names, only
``kdve_io`` writes JSON or CSV files, only ``spectral`` reads the norm factor,
no module squares a norm, and each input rule is raised at one site."""

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


WRITERS = {("json", "dump"), ("csv", "writer")}


def writer_calls(source: str) -> list[str]:
    """``json.dump`` or ``csv.writer`` for every call of a file writer the source makes."""
    tree = ast.parse(source)
    modules, functions = {}, {}  # local name -> module, local name -> (module, function)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                functions[alias.asname or alias.name] = (node.module, alias.name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = (modules.get(func.value.id), func.attr)
        elif isinstance(func, ast.Name):
            target = functions.get(func.id)
        else:
            continue
        if target in WRITERS:
            found.append(".".join(target))
    return found


def test_the_checker_flags_json_and_csv_writers():
    assert writer_calls("import json\njson.dump(x, fh)\n") == ["json.dump"]
    assert writer_calls("import csv as c\nw = c.writer(fh)\n") == ["csv.writer"]
    assert writer_calls("from json import dump as d\nd(x, fh)\n") == ["json.dump"]
    assert writer_calls("from csv import writer\nwriter(fh).writerow(r)\n") == ["csv.writer"]
    clean = (
        "import json\n"
        "json.dumps(x)\n"
        "json.loads(text)\n"
        "self.dump(x)\n"
        "fh.writer(x)\n"
        "write_json(path, payload)\n"
    )
    assert writer_calls(clean) == []


def test_only_kdve_io_writes_json_or_csv():
    found = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "kdve_io" and (calls := writer_calls(path.read_text()))
    }
    assert found == {}
    assert sorted(writer_calls((PACKAGE / "kdve_io.py").read_text())) == ["csv.writer", "json.dump"]


def norm_factor_reads(source: str) -> list[str]:
    """``import``, ``name`` or ``attribute`` for every read of ``NORM_FACTOR`` the source makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name == "NORM_FACTOR" for a in node.names):
            found.append("import")
        elif isinstance(node, ast.Name) and node.id == "NORM_FACTOR" and isinstance(node.ctx, ast.Load):
            found.append("name")
        elif isinstance(node, ast.Attribute) and node.attr == "NORM_FACTOR":
            found.append("attribute")
    return found


def test_the_checker_flags_norm_factor_reads():
    assert norm_factor_reads("from .spectral import NORM_FACTOR\nw = NORM_FACTOR * k\n") == [
        "import", "name"]
    assert norm_factor_reads("from kdvlab.spectral import NORM_FACTOR as nf\n") == ["import"]
    assert norm_factor_reads("from . import spectral\nw = spectral.NORM_FACTOR\n") == ["attribute"]
    assert norm_factor_reads("import kdvlab.spectral as sp\nsp.NORM_FACTOR * 2\n") == ["attribute"]
    clean = (
        "NORM_FACTOR = 4.0 / np.pi\n"
        "from .spectral import hs_weights\n"
        "w = hs_weights(m, s)\n"
        "norm_factor = 1.0\n"
    )
    assert norm_factor_reads(clean) == []


def test_only_spectral_reads_the_norm_factor():
    found = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "spectral" and (reads := norm_factor_reads(path.read_text()))
    }
    assert found == {}
    # within spectral, hs_weights is the one reader: every H^s weight is its
    assert norm_factor_reads((PACKAGE / "spectral.py").read_text()) == ["name"]


NORMS = {"sobolev_norms_many", "sobolev_norm", "l2_norms", "hs_norms"}


def squared_norms(source: str) -> list[str]:
    """The norm's name for every call of a norm the source raises to the literal power 2."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2
            and isinstance(node.left, ast.Call)
        ):
            continue
        func = node.left.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in NORMS:
            found.append(name)
    return found


def test_the_checker_flags_squared_norms():
    assert squared_norms("x = ens.l2_norms() ** 2\n") == ["l2_norms"]
    assert squared_norms("x = ens.hs_norms(0.25) ** 2.0\n") == ["hs_norms"]
    assert squared_norms("x = sobolev_norm(u, 1.0)**2\n") == ["sobolev_norm"]
    assert squared_norms("x = spectral.sobolev_norms_many(c, s) ** 2\n") == ["sobolev_norms_many"]
    clean = (
        "x = squared_norms_many(c, 0.0)\n"
        "x = ens.hs_norms(s) ** p\n"
        "x = radii ** 2\n"
        "x = np.abs(c) ** 2\n"
        "x = ens.l2_norms() ** 3\n"
    )
    assert squared_norms(clean) == []


def test_no_module_squares_a_norm():
    # a squared norm is spectral.squared_norms_many, the sum the norm is the root of
    found = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := squared_norms(path.read_text()))
    }
    assert found == {}


# a phrase every statement of an input rule carries -> the one function that raises it
RULES = {
    "regularity exponent": "spectral.hs_weights",
    "transport order": "transport._require_order",
    "regularisation": "transport.wasserstein_p_entropic",
    "cutoff radius": "measures.GibbsSpec.__post_init__",
    "cubic coefficient": "measures.GibbsSpec.__post_init__",
    "sampler needs": "measures.GaussianSpec.__post_init__",
    "projection cutoff": "spectral.projection_cutoff",
    "at least one sample": "measures._gaussian_coeffs",
    "mode index": "spectral._basis_field",
}


def _text(node) -> str:
    """The literal text of a string or f-string expression, '' for any other."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(part) for part in node.values)
    return ""


def rule_raises(source: str, phrase: str) -> list[str]:
    """The function or method around each ``raise ValueError`` whose message carries phrase.

    ``ExperimentConfig`` raises ``ConfigError`` for the values the library
    checks only when it runs (s, p, epsilon); those are the config's own
    statements, not a second raise site of the library's rule.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            if (isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValueError"
                    and exc.args and phrase in _text(exc.args[0])):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_checker_finds_each_raise_of_a_rule():
    source = (
        "def f(p):\n"
        "    if p < 1:\n"
        "        raise ValueError('the transport order must satisfy p >= 1')\n"
        "class Spec:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError(f'transport order {self.p} is not finite')\n"
        "def g(p):\n"
        "    raise ConfigError('the transport order must be a finite p >= 1')\n"
        "def h(p):\n"
        "    message = 'transport order'\n"
        "    raise ValueError(message)\n"
        "raise ValueError('transport order')\n"
    )
    assert rule_raises(source, "transport order") == ["f", "Spec.__post_init__", ""]
    assert rule_raises(source, "regularisation") == []


def test_each_input_rule_is_raised_at_one_site():
    # every other reader of these values calls the function that raises
    found = {
        phrase: [f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
                 for site in rule_raises(path.read_text(), phrase)]
        for phrase in RULES
    }
    assert found == {phrase: [site] for phrase, site in RULES.items()}
