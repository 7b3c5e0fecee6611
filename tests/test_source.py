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


def test_measure_density_only_in_the_one_rule():
    # The equilibrium measure's trapezoid rule is greens.equilibrium_measure;
    # _isolated_corrections alone evaluates the density off that grid.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "measure_density_t":
                    found.append((path.name, getattr(top, "name", None)))
    stray = [f for f in found if f[0] != "greens.py" and f != ("overflow.py", "_isolated_corrections")]
    assert found and stray == []
