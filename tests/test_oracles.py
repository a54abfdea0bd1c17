"""The package ships only what its entry points run, and the oracles stay
independent of the code they check.

The oracles live in ``tests/oracles.py`` and import nothing from the ``mcsr``
package, so a fault in a production kernel cannot reach the reference it is
compared against. Every module of ``mcsr`` is imported, directly or through
others, by ``__init__.py`` or ``cli.py``, so no test-only module ships. No
function or method of the package is a process cache, only the pipeline
reads or fills the store's reference memo, and the package raises only its own
error classes."""

import ast
from pathlib import Path

import oracles

import mcsr


def _imports(path):
    """(absolute names, relative ``from .x import`` targets) of one file."""
    absolute, relative = [], []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            absolute += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            relative += [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            absolute.append(node.module)
    return absolute, relative


def test_oracles_import_nothing_from_mcsr():
    assert hasattr(oracles, "LcgReference"), "the scanned file must hold the LCG oracle"
    absolute, relative = _imports(Path(oracles.__file__))
    assert absolute, "no imports found; the scan is broken"
    from_mcsr = [name for name in absolute if name.split(".")[0] == "mcsr"] + relative
    assert not from_mcsr, f"oracles imports {from_mcsr}"


def test_every_package_module_is_reachable_from_the_entry_points():
    package = Path(mcsr.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [target.split(".")[0] for target in _imports(package / f"{name}.py")[1]]
    assert "weights" in reached, "no relative imports followed; the scan is broken"
    assert modules <= reached, f"only tests can reach {sorted(modules - reached)}"


def test_package_modules_use_every_name_they_import():
    package = Path(mcsr.__file__).parent
    unused, scanned = {}, 0
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's public names
            continue
        tree = ast.parse(path.read_text())
        bound = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        scanned += len(bound)
        if bound - used:
            unused[path.name] = sorted(bound - used)
    assert scanned, "no imports found; the scan is broken"
    assert not unused, f"imported but never used: {unused}"


def test_package_keeps_no_process_cache():
    """No function or method keeps its results for the life of the process, so
    memory is a function of the call; a cache needs this scan edited, with its
    measurement."""
    package = Path(mcsr.__file__).parent
    cached, seen = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "attr", getattr(target, "id", None))
                    seen.add(name)
                    if name in ("lru_cache", "cache", "cached_property"):
                        cached.append(f"{path.name}:{node.name}")
    assert "property" in seen, "no method decorator found; the scan is broken"
    assert not cached, f"process caches: {cached}"


def test_only_the_pipeline_touches_the_reference_memo():
    """The store's reference memo is read and filled in ``pipeline.py`` alone, and
    ``weights.py`` may only reset it to None, so one module owns what it holds."""
    package = Path(mcsr.__file__).parent
    in_pipeline, stray = 0, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        resets = {id(target) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Constant) and node.value.value is None
                  for target in node.targets}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_reference_memo":
                if path.name == "pipeline.py":
                    in_pipeline += 1
                elif path.name != "weights.py" or id(node) not in resets:
                    stray.append(f"{path.name}:{node.lineno}")
    assert in_pipeline, "no memo use found in pipeline.py; the scan is broken"
    assert not stray, f"reference memo used outside pipeline.py: {stray}"


def _imported_from_mcsr(path):
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mcsr"
            for alias in node.names}


def _own_names(top):
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds, dunders such as ``__all__`` aside."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = (top.targets if isinstance(top, ast.Assign)
               else [top.target] if isinstance(top, ast.AnnAssign) else [])
    return {target.id for target in targets
            if isinstance(target, ast.Name) and not target.id.startswith("__")}


def test_every_package_definition_has_a_caller():
    """Each top-level function, class and constant is referenced in the package outside
    its own definition, or imported by the benchmark or the acceptance tests."""
    package = Path(mcsr.__file__).parent
    defined, referenced = {}, set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = _own_names(top)
            defined.update(dict.fromkeys(own, path.name))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id not in own:
                    referenced.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    referenced.update(alias.name for alias in node.names)
    bench = Path(__file__).resolve().parents[1] / "bench"
    for path in [*bench.glob("*.py"), Path(__file__).parent / "test_acceptance.py"]:
        referenced |= _imported_from_mcsr(path)
    assert {"run_forward", "NORM_EPS"} <= set(defined) and "FeaturePyramid" in referenced, \
        "the scan is broken"
    unreferenced = sorted(f"{defined[name]}:{name}" for name in set(defined) - referenced)
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def _raises(node, where="<module>"):
    """(enclosing function, raised class) of each ``raise`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield where, ast.unparse(exc) if exc else "a bare re-raise"
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _raises(child, inner)


def test_package_raises_only_its_error_classes():
    """Each ``raise`` in the package names a direct ``McsrError`` subclass, so every
    failure reaches the CLI as the class of its exit code. ``selftest.golden_tier``'s
    two explicit ``AssertionError``s, which ``run_selftest`` catches, are the one
    exception, and the scan must find them."""
    package = Path(mcsr.__file__).parent
    own = {cls.__name__ for cls in mcsr.McsrError.__subclasses__()}
    foreign = [f"{path.stem}.{where}: {name}" for path in sorted(package.glob("*.py"))
               for where, name in _raises(ast.parse(path.read_text())) if name not in own]
    assert foreign == ["selftest.golden_tier: AssertionError"] * 2
