import ast
import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_values_hold(monkeypatch):
    # The README's python block runs from the repository root, statement by
    # statement; each expression with a trailing "# value" comment must
    # equal that value.
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    lines = block.splitlines()
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].partition("#")[2]
        if isinstance(stmt, ast.Expr) and comment.strip():
            expected = re.sub(r"^cap_a=\d+, cap_b=\d+:", "", comment.strip())
            assert eval(code, namespace) == eval(expected, {"Fraction": Fraction}), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 5
