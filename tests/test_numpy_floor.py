"""The package supports numpy 1.25 (see pyproject.toml), so its source must not
use names that only numpy 2 provides."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "raggio_kit"

NUMPY2_ONLY = {
    "np.vecdot",
    "np.unstack",
    "np.concat",
    "np.permute_dims",
    "np.astype",
    "np.pow",
    "np.isdtype",
    "np.matrix_transpose",
    "np.linalg.vector_norm",
    "np.linalg.matrix_norm",
    "np.linalg.svdvals",
}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def numpy2_only_uses(source: str) -> list[str]:
    """``line: name`` of every numpy-2-only name, ``.mT`` attribute and ``copy=`` keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (node.attr == "mT" or _dotted(node) in NUMPY2_ONLY):
            found.append(f"{node.lineno}: {_dotted(node) or '.' + node.attr}")
        elif isinstance(node, ast.keyword) and node.arg == "copy":
            found.append(f"{node.lineno}: copy=")
    return found


def test_scanner_flags_every_numpy2_only_name():
    names = sorted(NUMPY2_ONLY) + ["x.mT"]
    source = "\n".join(f"{name}(x)" for name in names) + "\nnp.asarray(x, copy=False)\n"
    assert len(numpy2_only_uses(source)) == len(names) + 1
    assert numpy2_only_uses("np.concatenate(x)\nnp.power(x, 2)\nnp.linalg.norm(x)\n") == []


def test_package_source_uses_no_numpy2_only_names():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {p.name: uses for p in paths if (uses := numpy2_only_uses(p.read_text()))}
    assert found == {}
