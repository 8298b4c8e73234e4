"""Every public top-level function or class in `src/qmm` has a caller in the
package or its scripts, so `qmm verify` and the CLI reach it; a name that
only tests call is either gated by an acceptance clause or deleted.
"""

import ast
import types
from pathlib import Path

import qmm

ROOT = Path(__file__).resolve().parents[1]

# name -> why it may stay without a caller
ALLOWED = {
    "coverage_fraction": "paper formula exp(-1/(4 lam (lam+1))) with no oracle in the repo "
    "to gate it against",
}


def _names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_public_name_has_a_caller():
    modules = [p for p in sorted((ROOT / "src" / "qmm").glob("*.py")) if p.name != "__init__.py"]
    public = set()
    referenced = set()
    for path in modules + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a definition's own body does not count as a caller of it
                referenced |= _names(node) - {node.name}
                if path in modules and not node.name.startswith("_"):
                    public.add(node.name)
            else:
                referenced |= _names(node)
    uncalled = sorted(public - referenced - set(ALLOWED))
    assert not uncalled, f"public names that nothing in src/ or scripts/ calls: {uncalled}"
    assert public - referenced == set(ALLOWED), "stale allowlist entry"


def test_package_namespace_holds_only_modules():
    # names are imported from their modules; the package re-exports none
    facade = sorted(name for name, value in vars(qmm).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert not facade, f"names re-exported by qmm/__init__.py: {facade}"
