"""Every public export resolves, is listed once, and loads its module only when first used."""

import ast
import collections
import importlib
import pathlib

import pytest

import jacobiprior
import jacobiprior.simlab


@pytest.mark.parametrize("module", [jacobiprior, jacobiprior.simlab], ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    repeated = [name for name, k in collections.Counter(module.__all__).items() if k > 1]
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which do not resolve"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from jacobiprior import *", namespace)
    assert [name for name in jacobiprior.__all__ if name not in namespace] == []


def misplaced_exports(package):
    """The names of ``package._EXPORTS`` that are not their home module's own object."""
    wrong = []
    for name, home in package._EXPORTS.items():
        module = importlib.import_module(f"{package.__name__}.{home}")
        value = getattr(package, name)
        # A class or function must also be defined there, not re-exported from elsewhere.
        defined_in = getattr(value, "__module__", module.__name__)
        if value is not getattr(module, name) or defined_in != module.__name__:
            wrong.append(name)
    return wrong


def test_each_export_is_its_home_module_object():
    assert misplaced_exports(jacobiprior) == []


def test_each_simlab_export_is_its_home_module_object():
    assert misplaced_exports(jacobiprior.simlab) == []


def test_dir_covers_all():
    for package in (jacobiprior, jacobiprior.simlab):
        assert set(package.__all__) <= set(dir(package))


def test_unknown_attribute_raises_attribute_error():
    for package in (jacobiprior, jacobiprior.simlab):
        with pytest.raises(AttributeError, match=f"module '{package.__name__}' has no attribute 'fit'"):
            package.fit


def test_bare_import_loads_only_errors(fresh_python):
    loaded = fresh_python("-c", "import sys, jacobiprior; print(*sys.modules)").split()
    assert [m for m in loaded if m.startswith("jacobiprior.")] == ["jacobiprior.errors"]


def test_hyper_loads_no_experiment_harness(fresh_python):
    loaded = fresh_python("-c", "import sys, jacobiprior.hyper; print(*sys.modules)").split()
    assert "jacobiprior.simlab.metrics" in loaded
    assert [m for m in ("jacobiprior.mle", "jacobiprior.simlab.experiments",
                        "jacobiprior.simlab.generators") if m in loaded] == []


def perfbench_alias_uses(package_dir):
    """(file, line) of each place in the package's source that names ``LeastSquaresSolver``
    (an identifier, an import or any string, docstrings included) or reads an attribute
    ``.betas``. Its class definition in ``linalg`` and its entry in the export table are
    not counted. Both names are kept only for perfbench; library code must not use them."""
    uses = []
    for path in sorted(pathlib.Path(package_dir).rglob("*.py")):
        where = path.relative_to(package_dir).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), where)):
            texts = [getattr(node, f, None) for f in ("id", "attr", "name", "asname", "arg", "value")]
            if not any(isinstance(t, str) and "LeastSquaresSolver" in t for t in texts):
                if isinstance(node, ast.Attribute) and node.attr == "betas":
                    uses.append((where, node.lineno))
            elif not (where == "linalg.py" and isinstance(node, ast.ClassDef)
                      or where == "__init__.py" and isinstance(node, ast.Constant)
                      and "LeastSquaresSolver" in node.value.split()):
                uses.append((where, node.lineno))
    return uses


def test_library_uses_no_perfbench_alias():
    assert perfbench_alias_uses(pathlib.Path(jacobiprior.__file__).parent) == []


def test_alias_guard_flags_each_kind_of_use(tmp_path):
    (tmp_path / "linalg.py").write_text("class LeastSquaresSolver:\n    pass\n")
    (tmp_path / "__init__.py").write_text('HOMES = {"linalg": "LeastSquaresSolver"}\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mod.py").write_text(
        '"""Uses ``LeastSquaresSolver``."""\n'
        "from .linalg import LeastSquaresSolver\n"
        "import linalg\n"
        "s = linalg.LeastSquaresSolver\n"
        "b = fit.betas\n"
    )
    assert sorted(perfbench_alias_uses(tmp_path)) == [("sub/mod.py", k) for k in (1, 2, 4, 5)]


def own_real_tests(package_dir):
    """(file, line) of each place in the package's source that names ``numbers.Real``, other
    than ``errors.py`` and ``glm.shown``: ``errors.real`` is the one test of a real number."""
    uses = []
    for path in sorted(pathlib.Path(package_dir).rglob("*.py")):
        where = path.relative_to(package_dir).as_posix()
        if where == "errors.py":
            continue
        tree = ast.parse(path.read_text(), where)
        shown = [top for top in tree.body if where == "glm.py" and getattr(top, "name", "") == "shown"]
        allowed = {id(node) for top in shown for node in ast.walk(top)}
        uses += [(where, node.lineno) for node in ast.walk(tree) if id(node) not in allowed and (
            isinstance(node, ast.Attribute) and node.attr == "Real"
            or isinstance(node, ast.ImportFrom) and any(a.name == "Real" for a in node.names))]
    return uses


def test_one_real_number_test():
    assert own_real_tests(pathlib.Path(jacobiprior.__file__).parent) == []


def test_real_guard_flags_each_module(tmp_path):
    (tmp_path / "errors.py").write_text("import numbers\nR = numbers.Real\n")
    (tmp_path / "glm.py").write_text("import numbers\ndef shown(v):\n    return numbers.Real\n"
                                     "def other(v):\n    return numbers.Real\n")
    (tmp_path / "mc.py").write_text("import numbers as n\nok = isinstance(1, n.Real)\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "gp.py").write_text("from numbers import Integral, Real\n")
    assert own_real_tests(tmp_path) == [("glm.py", 5), ("mc.py", 2), ("sub/gp.py", 1)]


def file_opens(package_dir):
    """(file, line) of each call of ``open``, the builtin or an ``.open`` attribute (``io.open``,
    ``os.open``, ``Path.open``), in the package's source outside the top-level ``modelio.py``:
    ``modelio`` is the one module that opens a file."""
    calls = []
    for path in sorted(pathlib.Path(package_dir).rglob("*.py")):
        where = path.relative_to(package_dir).as_posix()
        if where != "modelio.py":
            calls += [(where, node.lineno) for node in ast.walk(ast.parse(path.read_text(), where))
                      if isinstance(node, ast.Call)
                      and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return sorted(calls)


def test_only_modelio_opens_a_file():
    assert file_opens(pathlib.Path(jacobiprior.__file__).parent) == []


def test_open_guard_flags_each_kind_of_call(tmp_path):
    (tmp_path / "modelio.py").write_text("fh = open('a')\n")
    (tmp_path / "cli.py").write_text("import io\nwith open('a', 'w') as fh:\n    pass\n"
                                     "io.open('b')\nopener = open\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "modelio.py").write_text("import pathlib\npathlib.Path('c').open()\n")
    assert file_opens(tmp_path) == [("cli.py", 2), ("cli.py", 4), ("sub/modelio.py", 2)]
