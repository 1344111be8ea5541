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


def _record_ops(monkeypatch) -> set:
    """Patch `Tensor._from_op` to add the op behind each new graph node to
    the returned set."""
    from tinyst.tensor import Tensor

    reached = set()
    real = Tensor._from_op

    def recording(cls, data, parents, backward):
        reached.add(backward.__qualname__.removesuffix(".<locals>.backward"))
        return real(data, parents, backward)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    return reached


def test_gradient_check_sweep_reaches_every_op(monkeypatch):
    from tinyst.checks import op_gradcheck_sweep

    ops = _ops_in_tensor_module()
    assert {"Tensor.__add__", "conv1d", "layer_norm"} <= ops
    reached = _record_ops(monkeypatch)
    op_gradcheck_sweep()
    assert not ops - reached, f"ops no gradient check reaches: {sorted(ops - reached)}"


def test_training_reaches_every_op_but_the_probe_power(monkeypatch):
    # An op that no training step runs is dead weight in the autodiff core.
    # `**` stays for the gradient-check probes, which square their outputs.
    from tinyst.data import Sample
    from tinyst.model import VARIANTS, ModelConfig, SpeechTranslator
    from tinyst.rng import RngStream
    from tinyst.training import TrainConfig, train

    ops = _ops_in_tensor_module() - {"Tensor.__pow__"}
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
