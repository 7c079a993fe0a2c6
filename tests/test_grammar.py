import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/capgames/*.py"), *ROOT.glob("tests/*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_with_the_python_3_10_grammar(path):
    """pyproject.toml allows Python 3.10, so no file may use newer grammar
    such as ``except*`` or PEP 695 type parameters.

    This checks grammar only, and ``feature_version`` is best effort: some
    newer syntax, such as ``x[*idx]``, still parses, and a library call
    that 3.10 lacks is not looked at.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
