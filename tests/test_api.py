"""Public API hygiene: what the package exports, and the signatures it offers.

Test-only hooks (a mutant switch, a debug log) belong in the tests, as
fixtures or monkeypatches, not in production signatures. A parameter whose
name starts with an underscore is how such hooks usually look, so no
public function or method may take one.
"""

import importlib
import inspect
import pkgutil

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
