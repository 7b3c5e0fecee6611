import ast
from pathlib import Path

import arithcap

SRC = Path(arithcap.__file__).parent


def test_no_assert_statements():
    # Certificates are checked by explicit raises: `python -O` strips asserts.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
