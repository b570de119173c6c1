"""Codebase hygiene lints over ``src/``.

A small AST pass enforcing three rules across every production module:

* no bare ``except:`` clauses (they swallow ``KeyboardInterrupt`` and mask
  programming errors — catch a concrete exception type instead),
* no mutable default arguments (``def f(x=[])`` shares one list across all
  calls),
* no ``assert`` statements outside tests (``python -O`` strips them, so
  they must never guard runtime invariants — raise an exception instead),
* no explicit ``pickle`` use in ``repro.features`` (corpus bytes must move
  as memmap spans through the zero-copy blob path, never as hand-pickled
  blobs — see :mod:`repro.features.corpus`),
* no bare ``print(`` calls (diagnostic output goes through
  :mod:`repro.obs.log`, where it can be silenced, redirected, or stamped
  with the active trace id — stray prints pollute library users' stdout),
* no ``asyncio.wait_for`` (on Python 3.11 it spawns a Task per call, which
  the gateway paid on every request — use ``async with asyncio.timeout``),
* no dead knobs: every field of a ``*Config`` or ``Scale`` dataclass is read
  as an attribute outside ``__post_init__`` in a ``src/`` module that
  defines or imports that class (a field only validated, or only copied
  into another config, selects nothing),

plus a ``compileall`` sweep pinning that every module byte-compiles.
"""

from __future__ import annotations

import ast
import compileall
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MUTABLE_DEFAULT_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _python_sources():
    return sorted(SRC.rglob("*.py"))


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _location(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(SRC)}:{node.lineno}"


def test_source_tree_is_nonempty():
    assert len(_python_sources()) > 30


def test_no_bare_except_clauses():
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                offenders.append(_location(path, node))
    assert offenders == [], f"bare except clauses found: {offenders}"


def test_no_mutable_default_arguments():
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, MUTABLE_DEFAULT_NODES) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in {"list", "dict", "set", "bytearray"}
                ):
                    offenders.append(f"{_location(path, node)} ({node.name})")
    assert offenders == [], f"mutable default arguments found: {offenders}"


def test_no_assert_statements_in_production_code():
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Assert):
                offenders.append(_location(path, node))
    assert offenders == [], f"assert statements found in src/: {offenders}"


def test_no_pickling_of_corpus_bytes_in_features():
    """The span path is mandatory for corpus payloads in ``repro.features``.

    ``BatchFeatureService``'s process backend used to ship pickled chunk
    byte blobs; the corpus-blob plane replaced that with ``(path, span)``
    lists over a shared memmap.  Any explicit ``pickle.dumps``/``loads``
    (or a ``pickle`` import at all) in the features package would
    reintroduce a serialization path for raw corpus bytes, so it is banned
    outright — the implicit executor-level pickling of *small* task
    arguments and packed result arrays is the only serialization allowed.
    """
    features = SRC / "repro" / "features"
    offenders = []
    for path in sorted(features.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import) and any(
                alias.name == "pickle" or alias.name.startswith("pickle.")
                for alias in node.names
            ):
                offenders.append(_location(path, node))
            elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
                offenders.append(_location(path, node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"dumps", "loads", "dump", "load"}
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "pickle"
            ):
                offenders.append(_location(path, node))
    assert offenders == [], f"pickle use found in repro.features: {offenders}"


def test_no_bare_print_in_production_code():
    """Production modules must log through ``repro.obs.log``, not print."""
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                offenders.append(_location(path, node))
    assert offenders == [], f"bare print() calls found in src/: {offenders}"


def test_no_asyncio_wait_for_in_production_code():
    """Deadlines use ``asyncio.timeout``; ``wait_for`` costs a Task per call."""
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "wait_for"
                and isinstance(node.value, ast.Name)
                and node.value.id == "asyncio"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "asyncio"
                and any(alias.name == "wait_for" for alias in node.names)
            ):
                offenders.append(_location(path, node))
    assert offenders == [], f"asyncio.wait_for found in src/: {offenders}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _attribute_reads(tree: ast.AST, reads: set) -> None:
    """Collect loaded attribute names, skipping ``__post_init__`` bodies."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        _attribute_reads(node, reads)


def test_every_config_field_is_read():
    """A config field must be read where its class is in scope.

    A read counts only in a module that defines the class or imports it by
    name (a ``TYPE_CHECKING`` import for an annotation counts), so a dead
    ``port`` or ``name`` field is not excused by an unrelated object's
    attribute of the same name elsewhere.  Matching is by attribute name
    within such a module, not by the type of the object read.
    """
    fields = []
    modules = []  # (class names in scope, attribute names read) per module
    for path in _python_sources():
        tree = _parse(path)
        reads: set = set()
        _attribute_reads(tree, reads)
        in_scope = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                in_scope.update(alias.name for alias in node.names)
            if not (
                isinstance(node, ast.ClassDef)
                and (node.name.endswith("Config") or node.name == "Scale")
                and _is_dataclass(node)
            ):
                continue
            in_scope.add(node.name)
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    fields.append((_location(path, statement), node.name, statement.target.id))
        modules.append((in_scope, reads))
    assert len(fields) > 50
    offenders = [
        f"{location} ({cls}.{name})"
        for location, cls, name in fields
        if not any(cls in in_scope and name in reads for in_scope, reads in modules)
    ]
    assert offenders == [], f"config fields never read in src/: {offenders}"


def test_all_modules_byte_compile(tmp_path):
    ok = compileall.compile_dir(
        str(SRC),
        quiet=2,
        force=True,
        legacy=False,
        workers=1,
        invalidation_mode=__import__("py_compile").PycInvalidationMode.CHECKED_HASH,
    )
    assert ok, "compileall reported syntax errors under src/"


def test_sources_import_cleanly():
    # The package root must import without executing heavyweight side effects.
    import repro

    assert repro.__name__ == "repro"
    assert "repro" in sys.modules
