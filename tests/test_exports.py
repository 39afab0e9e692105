"""Every exported name resolves, every import is used, and importing the
package stays cheap.

A name left in a module's ``__all__`` after its function is deleted makes
``from otafl.<module> import *`` raise; an import whose last use was deleted
is a stale name of another kind, and a private helper whose last caller was
deleted a third. The package root publishes exactly its library modules'
``__all__``, and each rule for a count, a positive, finite or non-negative
number, a choice, a distinct list or Lemma 1's clip window has one
implementation. One module, fl_core, runs work on the cores.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import otafl

MODULES = ["otafl"] + [f"otafl.{m.name}" for m in pkgutil.iter_modules(otafl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})


# config and cli stay out of the package root, so importing otafl never loads yaml
LIBRARY = ["analysis", "channel", "clipping", "data", "fl_core", "models", "stable_noise"]


def test_package_publishes_exactly_the_library_modules_all():
    lists = [importlib.import_module(f"otafl.{m}").__all__ for m in LIBRARY]
    union = set().union(*lists)
    assert len(union) == sum(map(len, lists)), "two modules declare the same public name"
    public = {n for n, v in vars(otafl).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == union


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random adds ~14 ms to every import of otafl; the
    # engine's generator code makes what it needs from it on first use
    code = "import sys, otafl; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    env = {**os.environ, "PYTHONPATH": str(Path(otafl.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, by its syntax tree. A name
    listed in ``__all__`` or read only in a quoted annotation counts as
    read."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_import_finder_finds_them():
    source = (
        "import os\nimport numpy as np\nimport a.b\nfrom x import y, z, q\n"
        "__all__ = ['z']\ndef f(v: 'q') -> np.ndarray:\n    return y\n"
    )
    assert _unused_imports(source) == ["a", "os"]


# the package's __init__ imports are its re-exports
@pytest.mark.parametrize("path", sorted(Path(otafl.__file__).parent.glob("[!_]*.py")), ids=lambda p: p.name)
def test_modules_import_only_what_they_use(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module
    of ``sources`` ({module: source}) reads, as ``module.name``. A read is a
    load of the bare name, an attribute of that name or an import of it."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unread_private_name_finder_finds_them():
    sources = {
        "a": "_USED, _LEFT = 1, 2\n_ALSO: int = 3\ndef _helper():\n    return _USED\n"
             "class _Gone:\n    pass\ndef _called():\n    pass\n__all__ = []\n",
        "b": "from a import _helper\nimport a\na._called()\n",
    }
    assert _unread_private_names(sources) == ["a._ALSO", "a._Gone", "a._LEFT"]


def test_every_private_name_in_the_package_is_read():
    # a helper whose last caller is deleted should go with it
    sources = {p.stem: p.read_text(encoding="utf-8") for p in Path(otafl.__file__).parent.glob("*.py")}
    assert _unread_private_names(sources) == []


_NUMBER_RULES = (
    "_check_not_bool", "_check_integer", "_check_positive", "_check_window",
    "_check_choice", "_check_finite", "_check_nonnegative", "_check_grid",
)
# a rule's message, and the one helper of stable_noise that builds it
_RULE_MESSAGES = {
    "must be positive": "_check_positive", "must exceed sqrt(2)*G": "_check_window",
    "must be one of": "_check_choice", "finite number": "_check_finite", "must be >= 0": "_check_nonnegative",
    "must be distinct and non-empty": "_check_grid",
}
# where ``len(set(X))`` may be compared with ``len(X)``: the grid rule, and a
# CSV header's rule, whose message names the file and the repeated column
_DISTINCT_TESTS = ("stable_noise._check_grid", "data.load_csv_dataset")


def _one_arg_of(node, function: str):
    """x of a call ``function(x)``, else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == function and len(node.args) == 1:
        return node.args[0]
    return None


def _is_distinct_test(node) -> bool:
    """Whether ``node`` compares ``len(set(X))`` with ``len(X)``, in either order."""
    if not isinstance(node, ast.Compare):
        return False
    counted = [_one_arg_of(side, "len") for side in (node.left, *node.comparators)]
    plain = {ast.dump(x) for x in counted if x is not None}
    deduplicated = [_one_arg_of(x, "set") for x in counted]
    return any(ast.dump(x) in plain for x in deduplicated if x is not None)


def _hand_written_number_rules(sources: dict[str, str]) -> list[str]:
    """Where a module of ``sources`` ({module: source}) defines a number rule
    helper other than in stable_noise, builds a rule's message other than in
    the stable_noise helper that owns it, or tests a list for repeats other
    than in _DISTINCT_TESTS, as the qualified name of the enclosing
    definition."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        scope = {tree: module}
        for node in ast.walk(tree):  # breadth first: a node's scope is set before its children's
            inner = scope[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{inner}.{node.name}"
                if node.name in _NUMBER_RULES and inner != f"stable_noise.{node.name}":
                    found.append(inner)
            if _is_distinct_test(node) and inner not in _DISTINCT_TESTS:
                found.append(inner)
            for child in ast.iter_child_nodes(node):
                scope[child] = inner
                # a docstring or other bare string statement builds no message
                message = isinstance(child, ast.Constant) and isinstance(child.value, str) and not isinstance(node, ast.Expr)
                for text, owner in _RULE_MESSAGES.items():
                    if message and text in child.value and inner != f"stable_noise.{owner}":
                        found.append(inner)
    return sorted(set(found))


def test_hand_written_number_rule_finder_finds_them():
    sources = {
        "stable_noise": "def _check_positive(name, value):\n    raise ValueError(f'{name} must be positive, got {value}')\n"
                        "def _check_integer(name, value, low):\n    pass\n"
                        "def _check_choice(name, value, choices):\n    raise ValueError(f'{name} must be one of {choices}')\n"
                        "def _check_grid(name, grid):\n    if len(grid) == 0 or len(set(grid)) < len(grid):\n"
                        "        raise ValueError(f'{name} must be distinct and non-empty')\n"
                        "def _check_finite(name, value):\n    raise ValueError(f'{name} must be a finite number')\n",
        "a": "class A:\n    '''rate must be positive.'''\n    def f(self, x):\n        if not x > 0:\n"
             "            raise ValueError(f'x must be positive when set, got {x}')\n",
        "b": "MESSAGE = 'rate must be positive'\ndef _check_integer(name, value, low):\n    pass\n",
        # config once kept its own rules, its methods list's among them; it raises the shared ones now
        "config": "def check(v):\n    raise ValueError('field v must be positive')\n"
                  "def validate(cfg):\n    if not cfg.methods or len(set(cfg.methods)) < len(cfg.methods):\n"
                  "        raise ValueError('each once')\n",
        "c": "def pick(kind):\n    if kind not in ('a', 'b'):\n        raise ValueError(f'kind must be one of (a, b), got {kind!r}')\n",
        "d": "class D:\n    def __post_init__(self):\n        raise ValueError(f'tau must be a finite number, got {self.tau}')\n",
        "e": "def _check_finite(name, value):\n    pass\ndef sep(s):\n    if s < 0:\n"
             "        raise ValueError(f'class_separation must be >= 0, got {s}')\n",
        # each grid once kept its own distinct rule
        "f": "def report(alphas):\n    if len(set(alphas)) < len(alphas):\n"
             "        raise ValueError(f'alphas must be distinct and non-empty, got {alphas}')\n",
        # the CLI once checked its numbers and lists, and the matched-seed loop its variants
        "cli": "def _finite_float(text):\n    raise TypeError(f'expected a finite number, got {text!r}')\n"
               "def _float_list(text):\n    values = [float(v) for v in text.split(',')]\n"
               "    if not values or len(set(values)) < len(values):\n        raise TypeError('none repeated')\n",
        "fl_core": "def _matched_runs(variants):\n    if len(variants) != len(set(variants)):\n        raise ValueError('x')\n"
                   "def prepare_task(seeds):\n    if len(set(seeds)) > 1:\n        raise ValueError('one seed')\n",
        # a CSV header's repeat names the file and the column: the one exemption
        "data": "def load_csv_dataset(header):\n    if len(set(header)) < len(header):\n        raise ValueError('column')\n",
    }
    assert _hand_written_number_rules(sources) == [
        "a.A.f", "b", "b._check_integer", "c.pick", "cli._finite_float", "cli._float_list", "config.check",
        "config.validate", "d.D.__post_init__", "e._check_finite", "e.sep", "f.report", "fl_core._matched_runs",
    ]


def test_hand_written_window_rule_finder_finds_them():
    # Lemma 1's window C > sqrt(2)*G once had three checks with three messages
    sources = {
        "stable_noise": "def _check_window(c, g):\n    raise RegimeError(f'C must exceed sqrt(2)*G: C={c}')\n"
                        "def _check_positive(name, value):\n    raise ValueError(f'{name} must exceed sqrt(2)*G')\n",
        "analysis": "def prob(tau, c, g):\n    '''c must exceed sqrt(2)*G.'''\n    if not c > g:\n"
                    "        raise RegimeError(f'clip threshold must exceed sqrt(2)*G: C={c}, G={g}')\n",
        "config": "def check(c):\n    raise ValueError('field c must exceed sqrt(2)*G')\n",
        "b": "def _check_window(c, g):\n    pass\n",
    }
    assert _hand_written_number_rules(sources) == [
        "analysis.prob", "b._check_window", "config.check", "stable_noise._check_positive",
    ]


def test_number_rules_have_one_implementation():
    # a count, rate, scale or threshold is checked by stable_noise's helpers,
    # so that every type rejects a bool, a fraction or None alike
    sources = {p.stem: p.read_text(encoding="utf-8") for p in Path(otafl.__file__).parent.glob("*.py")}
    assert _hand_written_number_rules(sources) == []


_CONCURRENCY = ("multiprocessing", "concurrent.futures", "threading", "contextvars")
# the one such import outside fl_core: the CLI names a dead worker's error as an infrastructure failure
_CONCURRENCY_EXEMPT = ("cli.main",)


def _concurrency_imports(sources: dict[str, str]) -> list[str]:
    """Where a module of ``sources`` ({module: source}) other than fl_core
    imports one of _CONCURRENCY or a submodule of one, as the qualified name
    of the enclosing definition, unless it is in _CONCURRENCY_EXEMPT."""
    found = []
    for module, source in sources.items():
        if module == "fl_core":
            continue
        tree = ast.parse(source)
        scope = {tree: module}
        for node in ast.walk(tree):  # breadth first: a node's scope is set before its children's
            inner = scope[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{inner}.{node.name}"
            for child in ast.iter_child_nodes(node):
                scope[child] = inner
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(n == m or n.startswith(f"{m}.") for n in names for m in _CONCURRENCY):
                found.append(inner)
    return sorted(set(found) - set(_CONCURRENCY_EXEMPT))


def test_concurrency_import_finder_finds_them():
    # a thread pool and a context copy outside fl_core, a pool module under another
    # name, the CLI's exempt import beside one that is not, and a look-alike name
    sources = {
        "stable_noise": "import contextvars\nimport functools\n"
                        "def _thread_pool():\n    from concurrent.futures import ThreadPoolExecutor\n",
        "fl_core": "import os\ndef _fork_map(run, n):\n    import multiprocessing\n"
                   "    from concurrent.futures import ProcessPoolExecutor\n",
        "cli": "def main():\n    from concurrent.futures.process import BrokenProcessPool\n"
               "def helper():\n    import threading\n",
        "analysis": "import multiprocessing.pool as mp\nimport concurrent\nfrom .fl_core import _fork_map\n",
        "data": "from threading import Lock\nimport threadingx\n",
    }
    assert _concurrency_imports(sources) == ["analysis", "cli.helper", "data", "stable_noise", "stable_noise._thread_pool"]


def test_only_fl_core_uses_the_cores():
    # the usable-core count and its one scheduler, _fork_map, live in
    # fl_core; a pool, thread or context copy elsewhere is a second way
    sources = {p.stem: p.read_text(encoding="utf-8") for p in Path(otafl.__file__).parent.glob("*.py")}
    assert _concurrency_imports(sources) == []
