"""The package's public surface: __all__, the names README documents, README's
library example, its exception classes and the functions the benchmark tracer
wraps by name; and what importing the package and running the CLI load."""

import ast
import builtins
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import covbias
from covbias import NGramModel, write_mono, write_parallel

from synthbed import make_testbed

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src" / "covbias"
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _library_section(code: bool = False) -> str:
    """README "Library" prose, or with code=True the text of its one code block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    if code:
        (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
        return block
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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # The example's free names and the files it opens are bound to a small
    # testbed in a temporary directory, so a stale call in README fails here.
    bed = make_testbed(seed=5, n_mono=400, n_heldout=20, n_pairs_each=20)
    monkeypatch.chdir(tmp_path)
    NGramModel.train(bed.tgt_mono, order=3, min_count=2).save("tgt.lm")
    write_parallel(bed.pairs, "all.src", "all.tgt")
    namespace = {"src_sentences": bed.src_mono, "held_out_sentences": bed.src_heldout}
    exec(compile(_library_section(code=True), str(README), "exec"), namespace)
    records = namespace["records"]
    assert [line_no for line_no, _ in records] == list(range(1, len(bed.pairs) + 1))
    assert len(namespace["most_source"]) == len(namespace["most_target"]) == 4
    tagged = [ex.source[0] == "<TORIG>" for ex in namespace["tagged"]]
    assert tagged == [score <= 0 for _, score in records]
    assert namespace["ppl"] > 1


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


def test_every_exported_name_is_used_inside_the_package():
    # a public name that only tests read is test-only API: some module other
    # than __init__.py must refer to each one, as a name, attribute or import
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    assert sorted(set(covbias.__all__) - used) == []


# overrides that the standard library calls by name: argparse's error hook
# and namedtuple's _make, which _replace goes through
_CALLED_BY_THE_STANDARD_LIBRARY = {"cli._Parser.error", "corpus.ParallelExample._make"}


def test_every_definition_is_used_somewhere():
    # the private-name twin of the test above: every function, class and
    # method defined in src/covbias, nested ones too, is referred to by name
    # somewhere in src/covbias or bench/; dunder methods are called by Python
    used = set()
    defined = {}

    def collect(body, path, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{owner}{node.name}"] = node.name
                collect(node.body, path, f"{owner}{node.name}.")

    for path in [*SRC.glob("*.py"), *TRACER.parent.glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        if path.parent == SRC:
            collect(tree.body, path, "")
    assert len(defined) > 100
    unused = {
        where for where, name in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert sorted(unused - _CALLED_BY_THE_STANDARD_LIBRARY) == []


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


def test_the_only_exception_classes_are_data_format_and_usage_errors():
    # every data fault is a DataError (exit 2), a model-file fault its
    # subclass FormatError, and a bad command line cli.UsageError (exit 1);
    # a class counts as an exception when a base is a builtin exception or an
    # exception class found here, so an indirect subclass is caught as well
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
                classes[f"{path.stem}.{node.name}"] = (node.name, bases)

    def is_builtin_exception(name):
        value = getattr(builtins, name or "", None)
        return isinstance(value, type) and issubclass(value, BaseException)

    found: set[str] = set()
    while True:
        names = {classes[key][0] for key in found}
        grown = {
            key
            for key, (_, bases) in classes.items()
            if any(is_builtin_exception(b) or b in names for b in bases)
        }
        if grown == found:
            break
        found = grown
    assert found == {"errors.DataError", "errors.FormatError", "cli.UsageError"}


# -- what a fresh interpreter loads ----------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
_ENV = dict(os.environ, PYTHONPATH=str(SRC.parent))


def _run_fresh(script: str, *argv: str) -> str:
    """stdout of script run with argv in a new interpreter that imports covbias from src."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=_ENV, cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_namespace_in_a_fresh_interpreter():
    # __all__ names resolve on first use to their home modules' objects, as do
    # submodules never imported before; unknown names and a submodule's
    # unexported names stay errors
    script = """
import importlib, sys, types
import covbias
assert "covbias.lm" not in sys.modules
for name in ("abstraction", "cli", "corpus", "dataprep", "detect", "divergence",
             "errors", "fileio", "fmeasure", "lm"):
    assert isinstance(getattr(covbias, name), types.ModuleType), name
for name in covbias.__all__:
    value = getattr(covbias, name)
    homes = [m for m in vars(covbias).values()
             if isinstance(m, types.ModuleType) and m.__name__.startswith("covbias.")
             and hasattr(m, name)]
    assert homes, name
    assert all(getattr(m, name) is value for m in homes), name
for name in ("no_such_name", "MARKER_POS_TAG"):
    assert not hasattr(covbias, name), name
    try:
        getattr(covbias, name)
    except AttributeError as exc:
        assert repr(name) in str(exc)
    else:
        raise AssertionError(name)
"""
    _run_fresh(script)
    star = "ns = {}; exec('from covbias import *', ns); import covbias; "
    star += "assert set(covbias.__all__) <= set(ns), set(covbias.__all__) - set(ns)"
    _run_fresh(star)


def test_dir_lists_every_exported_name_and_imports_no_submodule_in_a_fresh_interpreter():
    # dir() lists every name before any is resolved, and resolves none
    script = """
import sys
import covbias
before = set(sys.modules)
listed = dir(covbias)
assert set(covbias.__all__) <= set(listed), set(covbias.__all__) - set(listed)
assert listed == sorted(set(listed)), listed
assert set(sys.modules) == before, set(sys.modules) - before
assert not [m for m in sys.modules if m.startswith("covbias.")], sorted(sys.modules)
"""
    _run_fresh(script)


def test_this_file_passes_alone_in_a_fresh_interpreter():
    # every other test here, with no other test file imported first
    script = "import sys, pytest; sys.exit(pytest.main(sys.argv[1:]))"
    plugins = ["-p", "no:cacheprovider", "-p", "no:hypothesispytest"]
    _run_fresh(script, "-q", *plugins, "-k", "not fresh_interpreter", __file__)


_LOADED = """
import sys
before = set(sys.modules)
from covbias.cli import main
code = main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
print()
print(code, *loaded)
"""

# layers that the LM and scoring subcommands never use
_UNUSED_BY_SCORING = {
    "covbias.abstraction", "covbias.dataprep", "covbias.divergence", "covbias.fmeasure",
    "dataclasses",
}


def _modules_loaded_by(*argv: str) -> set[str]:
    code, *loaded = _run_fresh(_LOADED, *argv).splitlines()[-1].split()
    assert code == "0", argv
    return set(loaded)


def test_scoring_subcommands_load_only_the_layers_they_use_in_a_fresh_interpreter(tmp_path):
    bed = make_testbed(seed=3, n_mono=200, n_heldout=10, n_pairs_each=10)
    paths = {name: str(tmp_path / name) for name in ("mono", "src", "tgt", "m.lm", "out")}
    write_mono(bed.src_mono, paths["mono"])
    write_parallel(bed.pairs, paths["src"], paths["tgt"])
    runs = {
        "train-lm": ["--input", paths["mono"], "--output", paths["m.lm"], "--order", "3"],
        "perplexity": ["--model", paths["m.lm"], "--input", paths["mono"],
                       "--output", paths["out"]],
        "score-pairs": ["--source-model", paths["m.lm"], "--target-model", paths["m.lm"],
                        "--source", paths["src"], "--target", paths["tgt"],
                        "--output", paths["out"]],
    }
    for command, argv in runs.items():
        loaded = _modules_loaded_by(command, *argv)
        assert {"covbias.lm", "covbias.corpus"} <= loaded, command
        assert not loaded & _UNUSED_BY_SCORING, (command, loaded & _UNUSED_BY_SCORING)
    version = _modules_loaded_by("--version")
    assert {m for m in version if m.startswith("covbias")} == {
        "covbias", "covbias.cli", "covbias.errors", "covbias.fileio"
    }
    assert "dataclasses" not in version


def test_analysis_subcommands_load_no_dataclasses_in_a_fresh_interpreter(tmp_path):
    paths = {name: str(tmp_path / name) for name in (
        "text", "pos", "split.tsv", "m.lm", "abstracted", "out", "fluency.tsv"
    )}
    (tmp_path / "text").write_text("der hund läuft\ndie katze schläft\n" * 2, encoding="utf-8")
    (tmp_path / "pos").write_text("DET NOUN VERB\n" * 4, encoding="utf-8")
    (tmp_path / "split.tsv").write_text("line_no\tgroup\n1\ta\n2\tb\n", encoding="utf-8")
    NGramModel.train([("der", "hund")], order=2, min_count=1).save(paths["m.lm"])
    text, pos = ["--input", paths["text"]], ["--pos", paths["pos"]]
    runs = {
        "jsdiv": ["--source", paths["text"], "--target", paths["text"], "--side", "source",
                  "--source-pos", paths["pos"], "--split", paths["split.tsv"],
                  "--output", paths["out"]],
        "fmeasure": ["--hyp", paths["text"], "--ref", paths["text"], "--ref-pos", paths["pos"],
                     "--output", paths["out"]],
        "abstract": [*text, *pos, "--output", paths["abstracted"]],
        "fluency": [*text, *pos, "--plain-lm", paths["m.lm"], "--abstracted-lm", paths["m.lm"],
                    "--output", paths["fluency.tsv"]],
    }
    layers = {"jsdiv": "divergence", "fmeasure": "fmeasure", "abstract": "abstraction",
              "fluency": "abstraction"}
    for command, argv in runs.items():
        loaded = _modules_loaded_by(command, *argv)
        assert f"covbias.{layers[command]}" in loaded, command
        assert "dataclasses" not in loaded, command


def test_no_covbias_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in imported, path.name
