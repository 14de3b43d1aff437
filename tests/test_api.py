"""Public API hygiene: what the package exports, and the signatures it offers.

Test-only hooks (a mutant switch, a debug log) belong in the tests, as
fixtures or monkeypatches, not in production signatures. A parameter whose
name starts with an underscore is how such hooks usually look, so no
public function or method may take one. A defaulted parameter that no call
in the package sets is a setting only the tests use, so there is none
either. Every exported name either serves the command line or is library
API that the README names, with a reason.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import argsim
from argsim import stats
from argsim.config import SimConfig


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


def public_defs(tree):
    """(qualified name, call name, def, leading self/cls count) per public callable.

    Covers the public top-level functions and the public methods and
    __init__ of public classes. The call name is what a call spells: the
    function's or method's own name, or the class name for __init__.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    call_name = node.name if fn.name == "__init__" else fn.name
                    yield "%s.%s" % (node.name, fn.name), call_name, fn, 0 if static else 1


def defaulted_parameters(trees):
    """(qualified name, call name, parameter, position) per defaulted parameter.

    The position counts the arguments a call passes before the parameter,
    self or cls excluded; a keyword-only parameter has none.
    """
    for modname, tree in trees:
        for qualname, call_name, fn, skip in public_defs(tree):
            qualname = "%s.%s" % (modname, qualname)
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for pos, param in enumerate(positional[first:], first):
                yield qualname, call_name, param.arg, pos - skip
            for param, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield qualname, call_name, param.arg, None


def calls_by_name(trees):
    """Callee name -> [(positional argument count, keyword names)] for every call.

    The callee name is a bare name or the last attribute (``mod.f(...)``,
    ``obj.method(...)``). Positions after a ``*args`` are not counted.
    """
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                count = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
                calls.setdefault(name, []).append((count, {kw.arg for kw in node.keywords}))
    return calls


def test_production_sets_every_defaulted_parameter():
    # A default no call in the package overrides is a setting only the
    # tests use: make it a constant (or drop it) and let the tests
    # monkeypatch the constant. main(argv=None) is the one exception, the
    # entry-point seam: the console script passes nothing.
    trees = [(mod.__name__, ast.parse(inspect.getsource(mod))) for mod in argsim_modules()]
    calls = calls_by_name(trees)
    defaulted = list(defaulted_parameters(trees))
    assert len(defaulted) > 5  # the walk reaches the defaults
    unset = [
        "%s(%s)" % (qualname, param)
        for qualname, call_name, param, pos in defaulted
        if not any(param in keywords or (pos is not None and count > pos)
                   for count, keywords in calls.get(call_name, ()))
    ]
    assert unset == ["argsim.cli.main(argv)"]
    assert {name: str(inspect.signature(fn)) for name, fn in stats.ENGINES.items()} == {
        "backintime": "(config)",
        "spatial": "(config)",
    }


def test_labels_have_one_representation():
    # every label set is an int bitmask; a frozenset anywhere in the
    # package would be a second representation to convert between
    found = [
        "%s:%d" % (mod.__name__, node.lineno)
        for mod in argsim_modules()
        for node in ast.walk(ast.parse(inspect.getsource(mod)))
        if isinstance(node, ast.Name) and node.id == "frozenset"
    ]
    assert found == []


def test_only_the_registry_and_the_package_import_an_engine():
    # the two engines are each other's oracle, so neither may lean on the
    # other: shared limits live in config, shared draws in rng
    engines = {"backintime", "spatial"}
    importers = {}
    for mod in [argsim, *argsim_modules()]:
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.ImportFrom):
                names = {node.module} if node.module else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            found = {name.rsplit(".", 1)[-1] for name in names} & engines
            if found:
                importers.setdefault(mod.__name__, set()).update(found)
    assert importers == {"argsim": engines, "argsim.stats": engines}


def run_at_import(tree):
    """Every node a module runs when it is imported: all but function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_or_numpy_when_it_is_imported():
    # a uniform run needs neither, and importing scipy.special costs most of
    # the start-up time and memory; bind it on first use, as density.py does
    found = []
    for path in sorted(Path(argsim.__file__).parent.glob("*.py")):
        for node in run_at_import(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] in ("scipy", "numpy") for name in names):
                found.append("%s:%d: %s" % (path.name, node.lineno, ast.unparse(node)))
    assert found == []


def test_only_rng_inverts_a_uniform_into_an_exponential():
    # one inversion: every exponential draw goes through SimRng.exponential
    found = []
    for path in sorted(Path(argsim.__file__).parent.glob("*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "math.log" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and getattr(node.args[0].func, "attr", None) == "uniform"):
                found.append("%s:%d: %s" % (path.name, node.lineno, ast.unparse(node)))
    assert found == []


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


def test_benchmark_spans_name_traceable_functions(monkeypatch):
    # The benchmark's self-test needs every span it lists to fire. A
    # function deleted, renamed or turned into a generator (the tracer
    # skips generators) would lose its span without failing anything else.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    child = importlib.import_module("child")
    tracer = importlib.import_module("tracer")
    traceable = {name for name, _, _, _ in tracer.discover()}
    listed = {name for workload in child.WORKLOADS.values() for name in workload["spans"]}
    listed |= tracer.RECORDED | set(tracer.ENGINES) | set(tracer.OBSERVERS)
    assert sorted(listed - traceable) == []


def test_compare_battery_has_the_row_count_the_benchmark_checks(monkeypatch):
    # perfbench's compare cycle fails any report without exactly
    # 2 * len(sites) + 4 rows over its replicate count. A battery row added
    # or dropped here must first make the benchmark read the row count off
    # the report (ROADMAP item 1).
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    child = importlib.import_module("child")
    argv = child.WORKLOADS["compare-battery"]["compare"]
    sites = tuple(float(s) for s in argv[argv.index("--sites") + 1].split(","))
    reps = 20
    reports, _ = stats.equivalence_report(SimConfig(n_samples=3, rho=1.0, seed=5), reps, sites=sites, threads=1)
    assert len(reports) == 2 * len(sites) + 4, "perfbench fixes the compare row count: see ROADMAP item 1"
    assert [(r.n_a, r.n_b) for r in reports] == [(reps, reps)] * len(reports)


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
