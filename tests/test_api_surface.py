"""The public API is no larger than what the package, the CLI and README use.

Every public module-level name under ``src/ratkit`` (a def, a class or an
assigned constant whose name has no leading underscore) must be used by
another ratkit module, be named in one of README's code spans or blocks, or
carry a reason in ``ALLOWED``. A name that only its own module uses is made
private or deleted instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import ratkit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ratkit"
README = (ROOT / "README.md").read_text(encoding="utf-8")

# "module.name" -> why the name stays public although no other module uses it
# and README does not name it.
ALLOWED = {
    "evaluation.BleuScore": "what bleu_corpus returns and paired_bootstrap takes, two at a time",
    "evaluation.OverlapResult": "the return type of suggestion_overlap",
    "scenarios.ScenarioValidation": "the return type of validate_scenario",
    "pipeline.TranslatorSpec": "the type of ExperimentManifest.translator",
    "pipeline.ExperimentManifest": "what load_manifest returns",
    "pipeline.translate": "a layer that ratbench times on its own",
    "cli.main": "the ratkit console script in pyproject.toml",
}

ERROR_TYPES = {
    "RatkitError",
    "ConfigurationError",
    "CorpusFormatError",
    "TranslatorError",
    "ValidationError",
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _public_names(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level, leading underscores left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports or looks up as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _readme_code_names() -> set[str]:
    code = re.findall(r"```.*?```|`[^`\n]+`", README, flags=re.DOTALL)
    # A word joined to a dash, as in a CLI flag or a shell command, is not a Python name.
    return set(re.findall(r"(?<![\w-])[A-Za-z_]\w*(?![\w-])", "\n".join(code)))


def _unexplained() -> set[str]:
    """``module.name`` of each public name that no other module uses and README does not name."""
    trees = _trees()
    readme = _readme_code_names()
    found = set()
    for module, tree in trees.items():
        used_elsewhere = set().union(*(_used_names(t) for m, t in trees.items() if m != module))
        found.update(f"{module}.{name}" for name in _public_names(tree) - used_elsewhere - readme)
    return found


def test_every_public_name_is_used_named_or_allowed():
    unexplained = sorted(_unexplained() - set(ALLOWED))
    assert not unexplained, (
        f"public names that no other ratkit module uses and README does not name: "
        f"{unexplained}; make them private, delete them, or give a reason in ALLOWED"
    )


def test_no_stale_allowlist_entry():
    stale = sorted(set(ALLOWED) - _unexplained())
    assert not stale, (
        f"ALLOWED entries that are gone or now used elsewhere: {stale}; remove them"
    )


def test_root_exports_the_readme_import_block_and_the_errors():
    block = re.search(r"from ratkit import \((.*?)\)", README, flags=re.DOTALL)
    assert block is not None, "README has no `from ratkit import (...)` block"
    readme_names = set(re.findall(r"\w+", block[1]))
    assert sorted(ratkit.__all__) == sorted(readme_names | ERROR_TYPES)
    assert all(hasattr(ratkit, name) for name in ratkit.__all__)
