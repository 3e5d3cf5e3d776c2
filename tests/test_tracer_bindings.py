"""Every library name the benchmark tracer binds still exists.

``perfbench/tracer.py``'s ``install()`` wraps library functions and
methods by name; a rename makes every ``--trace 1`` benchmark run fail
with a missing attribute.  This reads the tracer's source with ``ast``
and resolves each binding against the library without calling
``install()``, which would monkeypatch this process.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _install_def() -> ast.FunctionDef:
    tree = ast.parse(TRACER.read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "install")


def _aliases(install: ast.FunctionDef) -> "dict[str, str]":
    """``import repro.x.y as y`` inside ``install()``: alias -> module."""
    return {alias.asname: alias.name
            for node in ast.walk(install) if isinstance(node, ast.Import)
            for alias in node.names if alias.asname}


def _bindings():
    """``(kind, target, attr, max_arg)`` per binding ``install()`` makes.

    ``kind`` is ``"function"`` (``target`` a module name), ``"method"``
    (``target`` a class) or ``"attribute"`` (a module attribute the
    tracer reads directly); ``max_arg`` is the highest positional index
    the binding's work function reads (``-1`` for none).
    """
    install = _install_def()
    aliases = _aliases(install)

    def value(node, env):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = importlib.import_module(aliases[node.value.id])
            return getattr(module, node.attr)
        raise AssertionError(f"unresolvable tracer binding: {ast.dump(node)}")

    def max_arg(call):
        work = call.args[3] if len(call.args) > 3 else None
        if not isinstance(work, ast.Lambda):
            return -1
        first = work.args.args[0].arg
        return max((node.slice.value for node in ast.walk(work.body)
                    if isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == first
                    and isinstance(node.slice, ast.Constant)), default=-1)

    out = []

    def visit(stmts, env):
        for stmt in stmts:
            if isinstance(stmt, ast.For):
                for item in stmt.iter.elts:
                    visit(stmt.body, {**env, stmt.target.id: item.value})
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in aliases:
                    out.append(("attribute", aliases[node.value.id],
                                node.attr, -1))
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)):
                    continue
                name = node.func.id
                if name == "_install_function":
                    out.append(("function", value(node.args[0], env),
                                value(node.args[1], env), max_arg(node)))
                elif name == "_install_method":
                    out.append(("method", value(node.args[0], env),
                                value(node.args[1], env), max_arg(node)))
                elif name == "_install_pool_map":
                    out.append(("method", value(node.args[0], env), "map", -1))

    visit(install.body, {})
    return out


def _id(binding):
    kind, target, attr, _ = binding
    owner = target if isinstance(target, str) else target.__qualname__
    return f"{kind}:{owner}.{attr}"


BINDINGS = list({_id(b): b for b in _bindings()}.values())


def test_the_tracer_source_yields_its_bindings():
    ids = {_id(b) for b in BINDINGS}
    assert len(ids) >= 30
    assert {
        "function:repro.kernels.distance.pairwise_kernel",
        "function:repro.kernels.distance.pair_distances",
        "function:repro.core.greedy._greedy_disks",
        "function:repro.core.greedy._geometric_decision",
        "function:repro.core.greedy._grid_decision",
    } <= ids


@pytest.mark.parametrize("binding", BINDINGS, ids=_id)
def test_bound_name_exists(binding):
    kind, target, attr, max_arg = binding
    if kind == "method":
        fn = inspect.getattr_static(target, attr)
        fn = getattr(fn, "__func__", fn)
    else:
        fn = getattr(importlib.import_module(target), attr)
    if max_arg >= 0:
        # the work function reads args[max_arg]: that many leading
        # positional parameters must still be there
        positional = [
            p for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        assert len(positional) > max_arg, (fn, max_arg)
