"""Every module of the package stays below the parser's 8192-token doubling.

CPython's parser holds a module's tokens in an array that doubles as it
fills.  Past 8192 tokens a compile holds the next doubling, and where no
bytecode is cached (``PYTHONDONTWRITEBYTECODE``) every process compiles the
module anew: when ``regression.py`` crossed the mark, the compile's peak rose
by about 0.5 MB and the benchmark's ``montecarlo`` peak RSS with it.  The
count here is every token ``tokenize`` emits, comments and newlines
included, which is at least what the parser sees.
"""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clusterpanel"
TOKEN_LIMIT = 8192


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_stays_below_the_parser_doubling(path):
    with open(path, "rb") as fh:
        count = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert count < TOKEN_LIMIT, f"{path.name} has {count} tokens; split it below {TOKEN_LIMIT}"
