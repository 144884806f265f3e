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


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="counted on Python 3.11, the benchmark's interpreter; 3.12 tokenizes f-strings differently")
@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_stays_under_the_parser_token_doubling(path):
    with tokenize.open(path) as handle:
        count = sum(token.type not in (tokenize.COMMENT, tokenize.NL)
                    for token in tokenize.generate_tokens(handle.readline))
    assert count < TOKEN_CAP, f"{path.name} has {count} parser tokens, not fewer than {TOKEN_CAP}"
