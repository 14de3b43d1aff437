"""Public API hygiene: what the package exports, and the signatures it offers.

Test-only hooks (a mutant switch, a debug log) belong in the tests, as
fixtures or monkeypatches, not in production signatures. A parameter whose
name starts with an underscore is how such hooks usually look, so no
public function or method may take one. Every exported name either serves
the command line or is library API that the README names, with a reason.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import argsim


def argsim_modules():
    for info in pkgutil.iter_modules(argsim.__path__):
        if info.name != "__main__":
            yield importlib.import_module("argsim." + info.name)


def public_callables():
    """(qualified name, function) for every public function and method."""
    for mod in argsim_modules():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (mod.__name__, name), obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield "%s.%s.%s" % (mod.__name__, name, attr), member


def test_public_signatures_take_no_underscore_parameters():
    found = list(public_callables())
    assert len(found) > 50  # the walk reaches every module
    hidden = [
        "%s(%s)" % (qualname, param)
        for qualname, fn in found
        for param in inspect.signature(fn).parameters
        if param.startswith("_")
    ]
    assert hidden == []


def test_every_exported_name_resolves():
    missing = [name for name in argsim.__all__ if not hasattr(argsim, name)]
    assert missing == []
    assert len(set(argsim.__all__)) == len(argsim.__all__)


def test_traced_classes_define_their_public_methods_in_their_own_body():
    # The benchmark tracer wraps the methods found in each class's own
    # namespace (vars(cls)), so a public method inherited from a shared
    # base class would silently lose its span.
    from argsim.density import BetaDensity, UniformDensity
    from argsim.rng import SimRng
    from argsim.state import Lineage, State

    inherited = []
    for cls in (State, Lineage, UniformDensity, BetaDensity, SimRng):
        for name in dir(cls):
            member = inspect.getattr_static(cls, name)
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if not name.startswith("_") and inspect.isfunction(member) and name not in vars(cls):
                inherited.append("%s.%s" % (cls.__name__, name))
    assert inherited == []
    for cls in (UniformDensity, BetaDensity):
        assert {"mass", "cdf", "ppf", "sample_truncated"} <= set(vars(cls))


def definition_refs():
    """(top-level name -> identifiers its definition reads, names cli defines).

    A definition is a top-level function, class (methods included) or
    assignment of an argsim module. It reads the bare names its body loads
    and the attributes it takes off a sibling module (``backintime.X``).
    Same-named definitions in different modules are merged, which can only
    make more names reachable.
    """
    refs, cli_names = {}, set()
    for mod in argsim_modules():
        tree = ast.parse(inspect.getsource(mod))
        siblings = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            read = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in siblings:
                    read.add(sub.attr)
            for name in names:
                refs.setdefault(name, set()).update(read)
            if mod.__name__ == "argsim.cli":
                cli_names.update(names)
    return refs, cli_names


def reachable_from_cli():
    refs, reached = definition_refs()
    todo = list(reached)
    while todo:
        for name in refs.get(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    return reached


def readme_library_names():
    """The names the README Library section lists as library API, each with a reason.

    A list line reads "- `name`, `name` — reason".
    """
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for line in section.splitlines():
        m = re.match(r"- ((?:`\w+`, )*`\w+`) — \S", line)
        if m:
            listed.update(re.findall(r"`(\w+)`", m[1]))
    return listed


def test_every_exported_name_serves_the_cli_or_is_listed_library_api():
    reached = reachable_from_cli()
    assert {"main", "equivalence_report", "simulate_spatial", "State"} <= reached
    listed = readme_library_names()
    assert listed <= set(argsim.__all__), "README lists names the package does not export"
    unserved = [name for name in argsim.__all__ if name not in reached and name not in listed]
    assert unserved == [], "export these only with a reason in the README Library section"
