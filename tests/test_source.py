"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "tinyst"
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


def _graph_ops() -> set:
    """Qualified names of the functions in the package that build a graph
    node through `Tensor._from_op` (the ops with a backward): those of
    tensor.py and the fused ones elsewhere, such as CTC."""
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

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return ops


def test_only_the_graph_engine_accumulates_gradients():
    # Ops return one vector-Jacobian product per input; Tensor.backward alone
    # runs them and adds their results into `.grad`.
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "_accum":
                callers.add(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    assert callers == {"tensor.Tensor.backward"}, sorted(callers)


def _writes_into_grad(target: ast.expr, augmented: bool) -> bool:
    """Whether an assignment to `target` writes into a `.grad` array: an
    augmented assignment to `.grad` itself, or any assignment to a subscript
    of it."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_into_grad(t, augmented) for t in target.elts)
    subscripted = isinstance(target, ast.Subscript)
    while isinstance(target, ast.Subscript):
        target = target.value
    return (augmented or subscripted) and isinstance(target, ast.Attribute) \
        and target.attr == "grad"


def test_no_gradient_is_written_in_place():
    # Backward keeps a first gradient as given, so one array may be the
    # gradient of several tensors: `.grad` is rebound, never written into.
    writes = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            augmented = isinstance(node, ast.AugAssign)
            if any(_writes_into_grad(t, augmented) for t in targets):
                writes.append(f"{path.name}:{node.lineno}")
    assert not writes, f"writes into a .grad array: {writes}"


def _record_ops(monkeypatch) -> set:
    """Patch `Tensor._from_op` to add the op behind each recorded graph node
    to the returned set: the function that defines the node's first kept
    vector-Jacobian product.  A call that records nothing (under `no_grad`,
    or on constant inputs) does not count, since it runs no vjp."""
    from tinyst.tensor import Tensor

    reached = set()
    real = Tensor._from_op

    def recording(cls, data, vjps):
        out = real(data, vjps)
        if out._vjps:
            reached.add(out._vjps[0][1].__qualname__.split(".<locals>.")[0])
        return out

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    return reached


def test_gradient_check_sweep_reaches_every_op(monkeypatch):
    from tinyst.checks import op_gradcheck_sweep

    ops = _graph_ops()
    assert {"Tensor.__add__", "conv1d", "layer_norm", "ctc_loss_batch"} <= ops
    reached = _record_ops(monkeypatch)
    op_gradcheck_sweep()
    assert not ops - reached, f"ops no gradient check reaches: {sorted(ops - reached)}"


def test_training_reaches_every_op(monkeypatch):
    # An op that no training step runs is dead weight in the autodiff core.
    from tinyst.data import Sample
    from tinyst.model import VARIANTS, ModelConfig, SpeechTranslator
    from tinyst.rng import RngStream
    from tinyst.training import TrainConfig, train

    ops = _graph_ops()
    reached = _record_ops(monkeypatch)
    feats = RngStream(5).normal(0.0, 1.0, size=(16, 80))
    sample = Sample("u0", feats, [6, 7], [6, 7, 8])
    for variant in VARIANTS:
        cfg = ModelConfig(vocab_size=12, variant=variant, enc_layers=2,
                          acoustic_layers=1, dec_layers=1, hidden=8, heads=2,
                          ffn=16, conv_kernel=3, adaptor_mix_embeddings=True)
        train(SpeechTranslator(cfg, RngStream(0)), [sample],
              TrainConfig(epochs=1, clip_norm=1.0), max_steps=1)
    assert not ops - reached, f"ops no training step reaches: {sorted(ops - reached)}"


def test_every_public_name_is_used_by_the_program():
    # The package's own modules and the benchmark are the program; the
    # re-exports in __init__.py and the tests are not.
    users = MODULES + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                             if p.name != "test_perfbench.py")
    used = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        f"{path.name}:{node.name}" for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used)
    assert not unused, f"public names only tests use: {unused}"
