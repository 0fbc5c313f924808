import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kummer_brauer"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; a check the program relies on
    # must raise explicitly so that -O changes nothing
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(SRC.glob("*.py")), SRC
    assert found == []
