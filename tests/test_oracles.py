"""The oracles stay independent of the code they check: ``mcsr.oracles``
imports nothing from the ``mcsr`` package, so a fault in a production kernel
cannot reach the reference it is compared against."""

import ast
from pathlib import Path

import mcsr.oracles


def test_oracles_import_nothing_from_mcsr():
    tree = ast.parse(Path(mcsr.oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found; the scan is broken"
    from_mcsr = [name for name in imported
                 if name.startswith(".") or name.split(".")[0] == "mcsr"]
    assert not from_mcsr, f"mcsr.oracles imports {from_mcsr}"
