"""widthlab and its tests never import networkx.

Only the fixture builders `tests/make_*.py` may: they regenerate committed
fixtures, and the tests read those fixtures without networkx.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _networkx_imports(source: str) -> list[int]:
    """Line numbers of every `import networkx...` or `from networkx... import`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "networkx" or m.startswith("networkx.") for m in modules):
            lines.append(node.lineno)
    return lines


def test_the_check_finds_every_import_form():
    source = ("import os\nimport networkx as nx\nfrom networkx.generators import atlas\n"
              "import os.path, networkx\nfrom networkx import Graph\nimport networkxx\n"
              "def f():\n    import networkx\n")
    assert _networkx_imports(source) == [2, 3, 4, 5, 8]
    assert _networkx_imports((ROOT / "tests" / "make_atlas.py").read_text())


def test_package_and_tests_never_import_networkx():
    files = sorted((ROOT / "src" / "widthlab").glob("*.py")) + [
        p for p in sorted((ROOT / "tests").glob("*.py")) if not p.name.startswith("make_")]
    assert any(p.name == "audit.py" for p in files) and any(p.name == "conftest.py" for p in files)
    found = {str(p.relative_to(ROOT)): lines for p in files if (lines := _networkx_imports(p.read_text()))}
    assert found == {}
