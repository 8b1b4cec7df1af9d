import ast
from pathlib import Path

import squidcat

THRESHOLD_SUFFIXES = ("_TOL", "_RTOL", "_THRESHOLD", "_LEVEL", "_FOCK_DIM")


def _module_constants(path: Path):
    """Names assigned at module level in one source file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id


def test_every_threshold_is_assigned_once_in_constants():
    package = Path(squidcat.__file__).parent
    assigned = [
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        for name in _module_constants(path)
        if name.endswith(THRESHOLD_SUFFIXES)
    ]
    names = [name for _, name in assigned]
    assert [entry for entry in assigned if entry[0] != "constants.py"] == []
    assert len(names) == len(set(names))
    expected = {
        "NORM_TOL",
        "TRUNCATION_TOL",
        "MAX_FOCK_DIM",
        "ZERO_PROBABILITY_THRESHOLD",
        "WIGNER_TRIM_TOL",
    }
    assert expected <= set(names)
