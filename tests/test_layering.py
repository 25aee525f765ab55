"""Each module of the package imports only the modules below it.

The layers, bottom first: errors < geometry < reflections < sobolev <
extension < checks < cli.  Imports inside functions count as well, so a
lower layer cannot reach an upper one by deferring the import.  Beyond the
package itself, a module may import only the standard library and numpy.
A name that `geometry` defines, such as the region table's, is read from
`geometry`, not through `reflections`, which imports it.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import cuspreflect

LAYERS = ("errors", "geometry", "reflections", "sobolev", "extension", "checks", "cli")
PACKAGE = Path(cuspreflect.__file__).parent


def imported_layers(path: Path) -> set[str]:
    """Package modules imported anywhere in the file, relatively or by name.
    Names taken from the package itself (such as `__version__`) are not
    modules and are left out."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("cuspreflect."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("cuspreflect"):
                continue
            inner = module.removeprefix("cuspreflect").lstrip(".") if node.level == 0 else module
            if inner:
                found.add(inner.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found & set(LAYERS)


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    below = set(LAYERS[:LAYERS.index(module)])
    assert imported_layers(PACKAGE / f"{module}.py") <= below


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolutely imported modules of the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_imports_only_stdlib_and_numpy(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "cuspreflect"}
    assert imported_roots(path) <= allowed


def geometry_names() -> set[str]:
    """Names bound at the top level of geometry.py."""
    names = set()
    for node in ast.parse((PACKAGE / "geometry.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def geometry_reads_via_reflections(path: Path) -> set[str]:
    """Names of `geometry` that the file reads as `reflections.<name>` or
    imports from the reflections module."""
    own = geometry_names()
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "reflections" and node.attr in own:
                found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("reflections",
                                                                  "cuspreflect.reflections"):
            found.update(alias.name for alias in node.names if alias.name in own)
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "reflections"),
                         ids=lambda p: p.stem)
def test_geometry_names_come_from_geometry(path):
    assert geometry_reads_via_reflections(path) == set()


def traced_names() -> dict[str, tuple[str, ...]]:
    """The `TRACED` table of perfbench/tracing.py, read from its source
    without running or importing the file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no TRACED table")


@pytest.mark.parametrize("module,names", sorted(traced_names().items()))
def test_traced_names_exist(module, names):
    # the traced run replaces each of these by name; a missing one crashes it
    layer = importlib.import_module(f"cuspreflect.{module}")
    assert [name for name in names if not callable(getattr(layer, name, None))] == []


def test_traced_sampler_result_has_what_the_tracer_reads():
    # the traced run counts `sample_profile`'s points by attributes of its
    # result (`count`): they exist on a batch of one shell and of several,
    # and count every sample of every shell
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    table = next(node.value for node in ast.parse(path.read_text(), str(path)).body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["POINTS"])
    reader = next(value for key, value in zip(table.keys, table.values)
                  if ast.literal_eval(key) == "geometry.sample_profile")
    read = {node.attr for node in ast.walk(reader)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "result"}
    assert read == {"count"}
    geometry = importlib.import_module("cuspreflect.geometry")
    params = geometry.CuspParams(3, 2.0)
    for ks in ([5], [5, 6, 7]):
        batch = [geometry.Shell(k) for k in ks]
        rngs = [geometry.derive_rng(1, k, geometry.RegionLabel.RegionE) for k in ks]
        prof = geometry.sample_profile(params, geometry.RegionLabel.RegionE, batch, 64, rngs)
        assert all(hasattr(prof, name) for name in read)
        assert prof.count == prof.t.size == 64 * len(ks)
