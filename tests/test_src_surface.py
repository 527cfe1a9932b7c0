"""Guard: every definition in ``src/repro`` is reached by production code.

``src/`` holds the system (offline pre-processing plus the run-time
lookup and its serving tiers), not scaffolding that only tests reach.
This test parses ``src/``, ``benchmarks/`` and ``examples/`` and fails
on any function, class or method of ``src/repro`` whose name nothing
refers to from a live place, unless :data:`ALLOWED` lists it with its
reason.

The scan is by name, which makes it coarse but cheap (well under a
second):

* A reference is a name, an attribute or a dotted string constant
  (``getattr`` names, the patch points of ``benchmarks/voice_e2e``).
  Import statements and ``__all__`` lists do not count, a package
  ``__init__``'s included: an export is not a use.
* Module-level code of ``src/``, and everything in ``benchmarks/`` and
  ``examples/``, is live; so is the body of every live definition, to
  a fixed point.  A method is live only when its class is, and a dunder
  method whenever its class is (the interpreter calls it).
* Tests are not scanned: a definition only tests call belongs in a
  ``tests/`` helper, or nowhere.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Collection

ROOT = Path(__file__).resolve().parent.parent

#: Definitions kept although nothing above refers to them, each with why.
ALLOWED = {
    "src/repro/userstudy/conflict.py:ConflictStudyResult.best_model": (
        "user-study result API (Figure 7): the study's winning model"
    ),
    "src/repro/userstudy/estimation.py:EstimationResult.mean_absolute_error": (
        "user-study result API (Figure 6): a speech's estimation error"
    ),
    "src/repro/userstudy/ratings.py:RatingStudyResult.ranking": (
        "user-study result API (Figure 5): candidates by overall rating"
    ),
    "src/repro/mlbaseline/evaluation.py:MlComparisonResult.reference_wins": (
        "ML-baseline study result API (Figure 11): whether the paper's speeches win"
    ),
    "src/repro/api/clients.py:InProcessClient": (
        "README's Public API: the in-process client applications embed"
    ),
    "src/repro/api/clients.py:VoiceClient": (
        "README's Public API: the client protocol InProcessClient and HttpClient implement"
    ),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _scan_module(tree: ast.Module, module: str, track: bool):
    """One module's definitions and the names each refers to.

    Returns ``(definitions, references)``: ``definitions`` maps
    ``module:Qual.name`` to ``(name, enclosing definition or None)``,
    and ``references`` maps each enclosing definition (None: module
    level) to the names referred to directly inside it.
    """
    definitions: dict[str, tuple[str, str | None]] = {}
    references: dict[str | None, set[str]] = {}
    # (node, enclosing tracked definition, inside a function?)
    pending: list[tuple[ast.AST, str | None, bool]] = [
        (statement, None, False) for statement in tree.body
    ]
    while pending:
        node, owner, in_function = pending.pop()
        kind = type(node)
        if kind is ast.Name:
            if not isinstance(node.ctx, ast.Store):
                references.setdefault(owner, set()).add(node.id)
        elif kind is ast.Attribute:
            references.setdefault(owner, set()).add(node.attr)
            pending.append((node.value, owner, in_function))
        elif kind is ast.Constant and isinstance(node.value, str):
            parts = node.value.replace(":", ".").split(".")
            references.setdefault(owner, set()).update(p for p in parts if p.isidentifier())
        elif kind is ast.Assign and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            pass  # an export, not a use
        elif kind in (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
            # Decorators, bases and signatures belong to the enclosing scope.
            body = {id(statement) for statement in node.body}
            for part in ast.iter_child_nodes(node):
                if id(part) not in body:
                    pending.append((part, owner, in_function))
            inner = owner
            # Functions nested in functions are their parent's business.
            if track and not in_function:
                prefix = owner.split(":", 1)[1] + "." if owner else ""
                inner = f"{module}:{prefix}{node.name}"
                definitions[inner] = (node.name, owner)
            is_function = in_function or kind is not ast.ClassDef
            for statement in node.body:
                pending.append((statement, inner, is_function))
        else:
            for child in ast.iter_child_nodes(node):
                pending.append((child, owner, in_function))
    return definitions, references


@functools.cache
def _parse() -> tuple[dict, dict, frozenset]:
    """Every tracked definition, the names each refers to, and the live roots."""
    definitions: dict[str, tuple[str, str | None]] = {}
    owned: dict[str, set[str]] = {}
    roots: set[str] = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            module = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), module)
            found, references = _scan_module(tree, module, track=top == "src")
            definitions.update(found)
            roots |= references.pop(None, set())
            for owner, names in references.items():
                owned.setdefault(owner, set()).update(names)
    return definitions, owned, frozenset(roots)


def unreferenced_definitions(allowed: Collection[str] = ()) -> list[str]:
    """``module:Qual.name`` of every ``src/repro`` definition nothing live reaches.

    Definitions in ``allowed`` count as live.
    """
    definitions, owned, roots = _parse()
    live_names = set(roots)
    live: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualified, (name, parent) in definitions.items():
            if qualified in live or (parent is not None and parent not in live):
                continue
            if _is_dunder(name) or name in live_names or qualified in allowed:
                live.add(qualified)
                live_names |= owned.get(qualified, set())
                changed = True
    # Report a dead class once, not once per method.
    return sorted(
        qualified
        for qualified, (_, parent) in definitions.items()
        if qualified not in live and (parent is None or parent in live)
    )


def test_every_src_definition_is_reached_outside_tests():
    dead = unreferenced_definitions(ALLOWED)
    assert not dead, (
        "only tests reach these src/ definitions; move them to a tests/ helper, "
        "delete them, or list them in ALLOWED with a reason:\n  " + "\n  ".join(dead)
    )


def test_every_allowed_definition_exists_and_is_still_unreferenced():
    stale = sorted(set(ALLOWED) - set(unreferenced_definitions()))
    assert not stale, f"remove these ALLOWED entries: {stale}"


def _module_level_references(source: str) -> set[str]:
    tree = ast.parse(source, "module.py")
    return _scan_module(tree, "module.py", track=True)[1].get(None, set())


def test_an_import_or_an_export_is_not_a_use():
    references = _module_level_references(
        "from package.helpers import helper\n__all__ = ['helper', 'exported']\n"
        "def exported():\n    return helper()\n"
    )
    assert "helper" not in references
    assert "exported" not in references


def test_a_call_or_a_dotted_string_is_a_use():
    references = _module_level_references(
        "run()\nPATCH_POINTS = (('repro.system.updates', 'solve_query_chunk'),)\n"
    )
    assert {"run", "updates", "solve_query_chunk"} <= references
