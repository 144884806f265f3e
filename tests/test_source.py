import ast
import sys
import tokenize
from pathlib import Path

import pytest

import bpv_effect

# CPython's parser doubles its token array, and allocates a token for every new
# slot, once a module passes 4096 tokens: compiling returns.py peaked at 1601
# KiB at 4100 tokens and at 1377 KiB at 4082 (tracemalloc around compile,
# Python 3.11.7).  A fresh process without current bytecode compiles every
# module it imports.  The count is the parser's: tokenize's, without comments
# and the line breaks inside a statement.
TOKEN_CAP = 4096
MODULES = sorted(Path(bpv_effect.__file__).parent.glob("*.py"))

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
