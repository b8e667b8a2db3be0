import ast
import sys
from pathlib import Path

import loralab


def test_every_public_name_imports():
    namespace = {}
    exec("from loralab import *", namespace)
    assert set(loralab.__all__) <= set(namespace)


def test_modules_import_only_the_standard_library_numpy_and_loralab():
    # numpy is the one runtime dependency. Another package that happens to be
    # installed (scipy, say) would pass every other test, so read the imports.
    allowed = set(sys.stdlib_module_names) | {"numpy", "loralab"}
    modules = sorted(Path(loralab.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside loralab
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_seeds_are_derived_never_computed_outside_rng():
    # Arithmetic on a seed can leave [0, 2**64) and be wrapped silently, giving
    # two streams one seed; _rng.derive_seed is the one way to make a new seed.
    modules = sorted(Path(loralab.__file__).parent.glob("*.py"))
    for path in modules:
        if path.name == "_rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.BinOp):
                continue
            for operand in (node.left, node.right):
                name = getattr(operand, "id", getattr(operand, "attr", ""))
                assert "seed" not in name, f"{path.name}:{node.lineno} computes with {name}"
