"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "tinyst"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def _ops_in_tensor_module() -> set:
    """Qualified names of the functions in tensor.py that build a graph node
    through `Tensor._from_op` (the ops with a backward)."""
    tree = ast.parse((SOURCE / "tensor.py").read_text(encoding="utf-8"))
    ops = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = ".".join(scope + [child.name])
                if isinstance(child, ast.FunctionDef) and child.name != "_from_op" \
                        and any(isinstance(n, ast.Attribute) and n.attr == "_from_op"
                                for n in ast.walk(child)):
                    ops.add(name)
                visit(child, scope + [child.name])

    visit(tree, [])
    return ops


def test_gradient_check_sweep_reaches_every_op(monkeypatch):
    from tinyst.checks import op_gradcheck_sweep
    from tinyst.tensor import Tensor

    ops = _ops_in_tensor_module()
    assert {"Tensor.__add__", "conv1d", "layer_norm"} <= ops
    reached = set()
    real = Tensor._from_op

    def recording(cls, data, parents, backward):
        reached.add(backward.__qualname__.removesuffix(".<locals>.backward"))
        return real(data, parents, backward)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    op_gradcheck_sweep()
    assert not ops - reached, f"ops no gradient check reaches: {sorted(ops - reached)}"
