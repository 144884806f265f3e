import ast
import importlib.util
import sys
import tokenize
from pathlib import Path

import pytest

# CPython's parser doubles its token array, and allocates a token for every new
# slot, once a module passes 4096 tokens: compiling returns.py peaked at 1601
# KiB at 4100 tokens and at 1377 KiB at 4082 (tracemalloc around compile,
# Python 3.11.7).  A fresh process without current bytecode compiles every
# module it imports.  The count is the parser's: tokenize's, without comments
# and the line breaks inside a statement.
TOKEN_CAP = 4096
# found without importing the package, so a module that fails to import still gets read
PACKAGE = Path(importlib.util.find_spec("bpv_effect").origin).parent
MODULES = sorted(PACKAGE.glob("*.py"))

# modules that no code path may import: a fresh process loads none of them
# (UNLOADED in test_distribution.py); np.unique would import numpy.ma
BANNED_IMPORTS = ("numpy.ma", "numpy.unique", "scipy", "statistics", "dataclasses")


def parser_tokens(path: Path) -> int:
    with tokenize.open(path) as handle:
        return sum(token.type not in (tokenize.COMMENT, tokenize.NL)
                   for token in tokenize.generate_tokens(handle.readline))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="counted on Python 3.11, the benchmark's interpreter; 3.12 tokenizes f-strings differently")
@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_stays_under_the_parser_token_doubling(path):
    count = parser_tokens(path)
    assert count < TOKEN_CAP, f"{path.name} has {count} parser tokens, not fewer than {TOKEN_CAP}"


def test_no_module_calls_np_unique_or_imports_a_banned_module():
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), path.name)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif (isinstance(node, ast.Attribute) and node.attr == "unique"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                names = ["numpy.unique"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if any(name == banned or name.startswith(banned + ".") for banned in BANNED_IMPORTS)]
    assert not found, "\n".join(found)


# views.py holds every state-sum view and the knot-view threshold, and reads a
# return convention only through the object it is given
VIEWS_NEVER_IMPORT = ("returns", "cli", "effectiveness")
VIEW_NAMES = ("_KnotView", "_LawView", "_NodeView", "KNOT_VIEW_NODES")


def _imported_modules(node) -> list[str]:
    """The module each name of an import reads, without the package prefix:
    ``returns`` for ``from .returns import SIMPLE``, ``from . import returns``
    and ``import bpv_effect.returns``."""
    if isinstance(node, ast.Import) or node.module in (None, "bpv_effect"):  # from . import returns
        names = [alias.name for alias in node.names]
    else:
        names = [node.module]
    return [name.removeprefix("bpv_effect.").partition(".")[0] for name in names]


def test_views_import_no_consumer_and_returns_names_no_view():
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "views.py").read_text(encoding="utf-8"), "views.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"views.py:{node.lineno}: imports {name}" for name in _imported_modules(node)
                      if name in VIEWS_NEVER_IMPORT]
    for node in ast.walk(ast.parse((PACKAGE / "returns.py").read_text(encoding="utf-8"), "returns.py")):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if isinstance(name, str) and name.startswith(VIEW_NAMES):
            found.append(f"returns.py:{node.lineno}: names {name}")
    assert not found, "\n".join(found)


# effectiveness.py holds the whole report stage: the alpha-cut dominance pass, its
# block budgets and the Pareto minima; membership.py holds the fuzzy-number type
# and its measures
REPORT_STAGE_NAMES = ("_Cuts", "_cut_table", "_rows", "_cut_marks", "_gap", "_last_feasible",
                      "_row_step", "dominance_matrix", "_solve")
BLOCK_BUDGETS = ("PAIR_BLOCK", "CUT_BLOCK")


def test_membership_defines_no_dominance_and_only_effectiveness_names_the_block_budgets():
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "membership.py").read_text(encoding="utf-8"), "membership.py")):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        else:
            continue
        if name in REPORT_STAGE_NAMES + BLOCK_BUDGETS or "cut" in name.lower() or "dominance" in name.lower():
            found.append(f"membership.py:{node.lineno}: defines {name}")
    for path in MODULES:
        if path.name == "effectiveness.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), path.name)):
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno}: names {name}" for name in names if name in BLOCK_BUDGETS]
    assert not found, "\n".join(found)
