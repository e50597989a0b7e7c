"""The package's public surface: __all__, the names README documents and the
functions the benchmark tracer wraps by name."""

import ast
import importlib
import re
import types
from pathlib import Path

import covbias

README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.sub(r"```.*?```", "", section, flags=re.S)


def _resolve(dotted: str) -> object:
    obj = covbias
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def test_readme_library_names_resolve():
    # A name in parentheses right after `covbias.<module>` is listed under that
    # module: it must be an attribute of it and, as README says, of the root.
    # Any other name must be an attribute of covbias or of a module that its
    # sentence names.
    listed = 0
    for sentence in re.split(r"(?<=\.)\s+", _library_section()):
        names = re.findall(r"`([A-Za-z_][\w.]*)`", sentence)
        dotted = [n for n in names if n == "covbias" or n.startswith("covbias.")]
        modules = {}
        for name in dotted:
            obj = _resolve(name)
            if isinstance(obj, types.ModuleType):
                modules[name] = obj
        for module, group in re.findall(r"`(covbias\.\w+)` \(([^)]*)\)", sentence):
            for name in re.findall(r"`(\w+)`", group):
                assert hasattr(modules[module], name), f"{module}.{name}"
                assert hasattr(covbias, name), name
                listed += 1
        for name in set(names) - set(dotted):
            owners = [covbias, *modules.values()]
            assert any(hasattr(owner, name) for owner in owners), name
    assert listed >= 15


def test_all_names_exactly_the_public_attributes():
    assert len(set(covbias.__all__)) == len(covbias.__all__)
    namespace: dict = {}
    exec("from covbias import *", namespace)
    assert set(covbias.__all__) <= set(namespace)
    public = {
        name
        for name, value in vars(covbias).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(covbias.__all__)


def test_traced_layer_functions_resolve():
    # bench/tracer.py wraps each layer by its module-global name; read its
    # LAYER_FUNCTIONS without importing bench code and resolve every entry
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]
    ]
    assert layers.elts
    for entry in layers.elts:
        module_name, dotted = (ast.literal_eval(e) for e in entry.elts[:2])
        obj = importlib.import_module(f"covbias.{module_name}")
        for part in dotted.split("."):
            assert hasattr(obj, part), f"covbias.{module_name}.{dotted}"
            obj = getattr(obj, part)
        assert callable(obj), f"covbias.{module_name}.{dotted}"
