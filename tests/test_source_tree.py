"""Nothing in ``src/`` is kept only for tests: every function, class and method
the package defines is named by the package or by the benchmark outside its
own definition. Below the scenario boundary nothing converts its input: every
function takes the float arrays the package builds, and a vector's norm is
taken by one helper."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstrings(tree):
    """The string constants that are docstrings or bare string statements."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}


def _references(tree):
    """(name, line) of each identifier the module names: a variable, an
    attribute, an imported name, or a word of a string that is no docstring
    (perfbench names what it patches as "module", "Class.method" strings)."""
    skip = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def _definitions(tree):
    """(qualified name, name, first line, last line) of each top-level function
    and class, and of each method of a top-level class; dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def unreferenced(root: Path) -> list:
    """module.qualname of each definition in root/src/conescan that no code
    under root/src or root/perfbench names outside the definition's own lines."""
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    found = []
    for path in sorted((root / "src" / "conescan").glob("*.py")):
        for qualname, name, first, last in _definitions(trees[path]):
            named = any(word == name and (other != path or not first <= line <= last)
                        for other, words in refs.items() for word, line in words)
            if not named:
                found.append(f"{path.stem}.{qualname}")
    return found


def test_every_definition_is_named_outside_itself():
    assert unreferenced(ROOT) == []


def unused_imports(root: Path) -> list:
    """module.name of each name a module in root/src/conescan imports but
    neither uses nor lists in its ``__all__``."""
    found = []
    for path in sorted((root / "src" / "conescan").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # "import a.b" binds a; "import a as b" and "from a import b" bind b
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
        found += [f"{path.stem}.{name}" for name in sorted(imported - used - exported)]
    return found


def test_every_imported_name_is_used_or_exported():
    assert unused_imports(ROOT) == []


def test_an_import_left_behind_is_found(tmp_path):
    package = tmp_path / "src" / "conescan"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from . import config\nfrom .mission import Runner\n__all__ = ['config']\n")
    (package / "mission.py").write_text(
        "import numpy as np\nfrom concurrent.futures import Future, ThreadPoolExecutor\n"
        "from .localizer import perturb_points, update_particles\n\n"
        "def run(points):\n"
        "    with ThreadPoolExecutor(1) as worker:\n"
        "        return update_particles(np.asarray(points), worker)\n")
    assert unused_imports(tmp_path) == [
        "__init__.Runner", "mission.Future", "mission.perturb_points"]


CONVERSIONS = {"asarray", "atleast_2d"}


def conversion_sites(root: Path) -> list:
    """module.qualname of the function or method around each ``asarray`` or
    ``atleast_2d`` call in root/src/conescan, once per call, in source order."""
    found = []

    def visit(node, stem, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, stem, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in CONVERSIONS:
                    found.append(".".join([stem] + scope))
            visit(child, stem, scope)

    for path in sorted((root / "src" / "conescan").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, [])
    return found


def test_only_make_target_converts_to_arrays():
    # make_target turns a scenario's center and half-extents into arrays;
    # config.from_dict and lawnmower_path turn the other scenario values into floats
    assert conversion_sites(ROOT) == ["simulator.make_target"] * 2


def test_a_conversion_below_the_boundary_is_found(tmp_path):
    package = tmp_path / "src" / "conescan"
    package.mkdir(parents=True)
    (package / "geometry.py").write_text(
        "import numpy as np\nfrom numpy import atleast_2d\n\n"
        "class Pose:\n"
        "    def apply(self, points):\n"
        "        return atleast_2d(points) @ self.rotation.T\n\n"
        "def bearing(a, b):\n"
        "    return np.asarray(b) - np.asarray(a, dtype=float)\n")
    (package / "simulator.py").write_text(
        "import numpy as np\n\ndef make_target(center):\n    return np.asarray(center)\n")
    assert conversion_sites(tmp_path) == [
        "geometry.Pose.apply", "geometry.bearing", "geometry.bearing",
        "simulator.make_target"]


def norms_without_axis(root: Path) -> list:
    """module:line of each ``linalg.norm`` call in root/src/conescan without an
    ``axis=`` argument: a vector's norm is ``geometry.vector_norm``."""
    found = []
    for path in sorted((root / "src" / "conescan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "norm" and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "linalg"
                    and not any(kw.arg == "axis" for kw in node.keywords)):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_row_norms_call_numpy():
    assert norms_without_axis(ROOT) == []


def test_a_vector_norm_through_numpy_is_found(tmp_path):
    package = tmp_path / "src" / "conescan"
    package.mkdir(parents=True)
    (package / "mission.py").write_text(
        "import numpy as np\nimport numpy\n\n"
        "def unit(normals):\n"
        "    return normals / np.linalg.norm(normals, axis=1, keepdims=True)\n\n"
        "def near(a, b, radius):\n"
        "    return np.linalg.norm(a - b) <= radius\n\n"
        "def length(v):\n"
        "    return float(numpy.linalg.norm(v, ord=2))\n")
    assert norms_without_axis(tmp_path) == ["mission:8", "mission:11"]
