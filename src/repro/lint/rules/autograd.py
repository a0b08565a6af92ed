"""Autograd-discipline pack for the ``repro.nn`` substrate.

``repro.nn`` ops alias numpy arrays into backward closures at forward
time (``out_data``, masks, their inputs' ``.data`` arrays).  Mutating one of
those buffers in place after graph construction silently corrupts the
gradients computed later — the forward already captured the array object,
not a copy.  These rules keep the substrate honest: no in-place mutation
of autograd-visible buffers, every backward closure paired with the
forward bookkeeping that wires it into the graph, and every trainable
parameter registered where ``Module.named_parameters`` can find it.
"""

from __future__ import annotations

import ast

from ..registry import register
from ._ast_utils import contains_attribute

_AUTOGRAD_ATTRS = {"data", "grad"}


@register(
    "ag-inplace-tensor-mutation",
    pack="autograd",
    severity="error",
    summary="in-place mutation of a Tensor .data/.grad buffer",
    description=(
        "`t.data += x`, `t.grad *= s`, `t.data[...] = v`, and numpy calls "
        "with `out=t.data` mutate an array that backward closures may "
        "already alias, corrupting gradients computed afterwards. Rebind "
        "instead (`t.data = t.data - ...`) so old graph references keep "
        "their values. Owned accumulation buffers that are never aliased "
        "(e.g. gradient accumulation itself) get an inline pragma."
    ),
    packages=("repro.nn",),
)
def check_inplace_tensor_mutation(ctx):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.AugAssign):
            if contains_attribute(node.target, _AUTOGRAD_ATTRS):
                yield node, (
                    "augmented assignment mutates an autograd-visible "
                    "buffer in place"
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and contains_attribute(
                    target.value, _AUTOGRAD_ATTRS
                ):
                    yield target, (
                        "slice assignment mutates an autograd-visible "
                        "buffer in place"
                    )
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "out" and contains_attribute(kw.value, _AUTOGRAD_ATTRS):
                    yield node, (
                        "out= targets an autograd-visible buffer; "
                        "allocate a fresh array instead"
                    )


def _registers_backward(func: ast.AST) -> bool:
    """Does this forward-op function hand its ``backward`` closure to
    ``_record``, the one call that wires a closure into the graph?"""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        if name != "_record":
            continue
        passed = list(node.args) + [kw.value for kw in node.keywords]
        if any(isinstance(arg, ast.Name) and arg.id == "backward" for arg in passed):
            return True
    return False


@register(
    "ag-backward-missing-bookkeeping",
    pack="autograd",
    severity="error",
    summary="backward closure defined but never wired into the graph",
    description=(
        "An op that defines a `backward(grad)` closure must hand it to "
        "`_record(data, parents, backward)` in the same function; otherwise "
        "the forward returns a tensor with no graph node and the closure is "
        "dead code — gradients silently stop flowing through the op."
    ),
    packages=("repro.nn",),
)
def check_backward_missing_bookkeeping(ctx):
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name == "backward":
            continue
        inner_backwards = [
            node
            for node in ast.walk(func)
            if isinstance(node, ast.FunctionDef) and node.name == "backward"
        ]
        if inner_backwards and not _registers_backward(func):
            for node in inner_backwards:
                yield node, (
                    f"`{func.name}` defines backward() but never passes it "
                    "to _record"
                )


def _tensor_requires_grad_call(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id != "Tensor":
        return False
    for kw in node.keywords:
        if kw.arg == "requires_grad":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    if len(node.args) >= 2:
        arg = node.args[1]
        return isinstance(arg, ast.Constant) and arg.value is True
    return False


@register(
    "ag-unregistered-parameter",
    pack="autograd",
    severity="error",
    summary="trainable Tensor created in __init__ but not bound to self",
    description=(
        "`Module.named_parameters` discovers parameters by attribute "
        "inspection, so a `Tensor(..., requires_grad=True)` built in "
        "`__init__` must be assigned to `self.<name>` directly. Parameters "
        "stashed in locals, lists, or dicts are invisible to optimisers "
        "and `state_dict`, and silently never train."
    ),
    packages=("repro.nn",),
)
def check_unregistered_parameter(ctx):
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        init = next(
            (
                node
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        registered = set()
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                if all(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in node.targets
                ) and _tensor_requires_grad_call(node.value):
                    registered.add(id(node.value))
            elif isinstance(node, ast.AnnAssign):
                if (
                    node.value is not None
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                    and _tensor_requires_grad_call(node.value)
                ):
                    registered.add(id(node.value))
        for node in ast.walk(init):
            if _tensor_requires_grad_call(node) and id(node) not in registered:
                yield node, (
                    f"trainable Tensor in {cls.name}.__init__ is not assigned "
                    "to a self attribute; named_parameters will miss it"
                )
