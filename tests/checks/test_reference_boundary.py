"""Only the differential harness reaches the object reference kernels.

The solve stage runs one registered kernel per solver.  The object
reference kernels of the three array kernels exist so that
``repro.checks.engine`` (its ``REFERENCE_KERNELS`` mapping) can compare
against them; any other module in ``src/repro`` that imports one has
grown a second solve path.
"""

import ast
from pathlib import Path

import repro

REFERENCES = {
    "even_optimal_schedule",
    "bipartite_optimal_schedule",
    "general_schedule",
}

#: The harness and the three modules that define the references.
ALLOWED = {
    "repro.checks.engine",
    "repro.core.even_optimal",
    "repro.core.special_cases",
    "repro.core.general",
}

SRC = Path(repro.__file__).resolve().parent


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def reference_uses(tree: ast.AST):
    """``(line, name)`` for every import or attribute read of a reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in REFERENCES:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr in REFERENCES:
            yield node.lineno, node.attr


def test_only_the_harness_imports_reference_kernels():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        name = module_name(path)
        if name in ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{name}:{line} uses {ref}" for line, ref in reference_uses(tree)
        )
    assert offenders == []
