"""Per-module extraction for the whole-program flow analyses.

One pass over a module's AST produces a module summary — a plain dict
bundle that captures everything the project-level
analyses need, so the original source never has to be re-parsed:

- the import table (local name → dotted target, relative imports
  resolved against the module's own dotted name);
- a class model: bases, annotated (dataclass) fields, and per-method
  ``self.*`` stores/loads and dynamic ``__dict__``/``setattr`` escapes;
- a per-function **dataflow summary** for the dtype pass: implicit
  float64 allocation sites (``np.zeros(...)`` with no ``dtype=``) plus
  the local escape edges of every tainted value — returns, call
  arguments, ``self`` attribute stores, and direct wire sinks
  (``channel.upload/download/broadcast``).

The intra-function analysis is a two-pass abstract interpretation over
statements: sets of taint labels flow through names, arithmetic,
containers and numpy passthrough calls, and die at explicit conversions
(``.astype``, ``np.asarray(..., dtype=...)``, ``float()``/``int()`` and
index-producing reductions).  Precision is deliberately modest — the
point is that a float64 buffer which *can* reach a wire payload or the
training hot path is flagged, with an inline pragma as the escape hatch
for deliberate exceptions.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["summarize_module"]

_NP_NAMES = {"np", "numpy"}
_NP_ALLOC_FNS = {"full", "zeros", "ones", "empty"}
#: Calls whose result cannot carry a float64 taint: explicit conversions,
#: index/bool-producing reductions, and Python scalar constructors (a
#: Python float is "weak" in numpy promotion and never upcasts float32).
_KILL_CALLS = {
    "astype",
    "argmax",
    "argmin",
    "argsort",
    "nonzero",
    "flatnonzero",
    "searchsorted",
    "float",
    "int",
    "bool",
    "len",
    "range",
    "float32",
    "int64",
    "int32",
}
#: Attribute reads that produce metadata, not array contents.
_KILL_ATTRS = {"shape", "ndim", "size", "dtype", "nbytes", "itemsize"}
_WIRE_METHODS = {"upload", "download", "broadcast"}
_COMPOUND_STMTS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _annotation_chain(node: Optional[ast.AST]) -> Optional[str]:
    """A simple ``Name``/``Attribute`` annotation as a dotted string."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    chain = _dotted(node)
    return ".".join(chain) if chain else None


def _module_imports(tree: ast.AST, module: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                parent = parts[: max(len(parts) - node.level, 0)]
                if node.module:
                    parent = parent + [node.module]
                base = ".".join(parent)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


# ----------------------------------------------------------------------
# per-function dataflow
# ----------------------------------------------------------------------
class _FunctionFlow:
    """Two-pass taint analysis of one function body.

    Labels are hashable tuples: ``("alloc", i)`` for implicit-float64
    allocation site ``i``, ``("param", i)`` for parameter ``i``,
    ``("sattr", name)``/``("oattr", name)`` for attribute loads off
    ``self``/an unknown object, and ``("cret", j)`` for the result of
    interned callee ``j``.  Escapes are recorded as (src-label, dst)
    edges the project model later resolves against the call graph.
    """

    def __init__(
        self,
        fnode: ast.AST,
        qualname: str,
        module_defs: Set[str],
        imports: Dict[str, str],
    ) -> None:
        self.fnode = fnode
        self.qualname = qualname
        self.module_defs = module_defs
        self.imports = imports
        args = fnode.args
        self.params: List[str] = [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        self.env: Dict[str, Set[tuple]] = {
            p: {("param", i)} for i, p in enumerate(self.params)
        }
        self.allocs: List[dict] = []
        self._alloc_at: Dict[Tuple[int, int], int] = {}
        self.edges: Set[tuple] = set()
        self.callees: List[dict] = []
        self._callee_ids: Dict[tuple, int] = {}
        self._span: Tuple[int, int] = (fnode.lineno, fnode.lineno)

    def run(self) -> dict:
        for _ in range(2):  # second pass feeds loop-carried values back in
            self._block(self.fnode.body)
        return {
            "name": self.qualname,
            "line": self.fnode.lineno,
            "params": self.params,
            "allocs": self.allocs,
            "callees": self.callees,
            "edges": sorted(
                [list(src), list(dst)] for src, dst in self.edges
            ),
        }

    # -- plumbing ------------------------------------------------------
    def _edge(self, src: tuple, dst: tuple) -> None:
        self.edges.add((src, dst))

    def _edges(self, labels: Set[tuple], dst: tuple) -> None:
        for label in labels:
            self._edge(label, dst)

    def _intern(self, chain: Tuple[str, ...], kind: str) -> int:
        key = (chain, kind)
        if key not in self._callee_ids:
            self._callee_ids[key] = len(self.callees)
            self.callees.append({"chain": list(chain), "kind": kind})
        return self._callee_ids[key]

    # -- statements ----------------------------------------------------
    def _block(self, stmts) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _snapshot(self) -> Dict[str, Set[tuple]]:
        return {name: set(labels) for name, labels in self.env.items()}

    def _merge(self, *envs: Dict[str, Set[tuple]]) -> None:
        """Join point: a name may hold any branch's value."""
        merged: Dict[str, Set[tuple]] = {}
        for env in envs:
            for name, labels in env.items():
                merged.setdefault(name, set()).update(labels)
        self.env = merged

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, _COMPOUND_STMTS):
            self._span = (stmt.lineno, stmt.lineno)
        else:
            self._span = (stmt.lineno, getattr(stmt, "end_lineno", stmt.lineno))
        if isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, labels)
        elif isinstance(stmt, ast.AugAssign):
            labels = self._eval(stmt.value) | self._target_labels(stmt.target)
            self._assign(stmt.target, labels)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._edges(self._eval(stmt.value), ("ret",))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            before = self._snapshot()
            self._assign(stmt.target, self._eval(stmt.iter))
            self._block(stmt.body)
            self._block(stmt.orelse)
            self._merge(before, self.env)  # the loop may not execute
        elif isinstance(stmt, ast.While):
            before = self._snapshot()
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            self._merge(before, self.env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            base = self._snapshot()
            self._block(stmt.body)
            taken = self._snapshot()
            self.env = base
            self._block(stmt.orelse)
            self._merge(taken, self.env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, labels)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            after_body = self._snapshot()
            branches = [after_body]
            for handler in stmt.handlers:
                self.env = {k: set(v) for k, v in after_body.items()}
                self._block(handler.body)
                branches.append(self._snapshot())
            self._merge(*branches)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # closures: analyse the nested body in the enclosing env so
            # captured tainted values still reach their sinks
            for arg in stmt.args.posonlyargs + stmt.args.args + stmt.args.kwonlyargs:
                self.env[arg.arg] = set()
            self._block(stmt.body)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Import/Pass/Global/Nonlocal/Delete/ClassDef: nothing to track

    def _target_labels(self, target: ast.expr) -> Set[tuple]:
        if isinstance(target, ast.Name):
            return set(self.env.get(target.id, ()))
        if isinstance(target, ast.Attribute):
            chain = _dotted(target)
            if chain and chain[0] == "self" and len(chain) == 2:
                return {("sattr", chain[1])}
        return set()

    def _assign(self, target: ast.expr, labels: Set[tuple]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, labels)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, labels)
        elif isinstance(target, ast.Attribute):
            chain = _dotted(target)
            if chain and chain[0] == "self":
                if len(chain) == 2:
                    self._edges(labels, ("sstore", chain[1]))
                elif len(chain) == 3:
                    self._edges(labels, ("nstore", chain[1], chain[2]))
        elif isinstance(target, ast.Subscript):
            self._eval(target.slice)
            value = target.value
            chain = _dotted(value)
            if chain and chain[0] == "self" and len(chain) == 2:
                self._edges(labels, ("sstore", chain[1]))
            elif isinstance(value, ast.Name):
                self.env.setdefault(value.id, set()).update(labels)

    # -- expressions ---------------------------------------------------
    def _eval_many(self, exprs) -> Set[tuple]:
        labels: Set[tuple] = set()
        for expr in exprs:
            labels |= self._eval(expr)
        return labels

    def _eval(self, node: ast.expr) -> Set[tuple]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain and chain[0] == "self" and len(chain) == 2:
                return {("sattr", chain[1])}
            base = self._eval(node.value)
            if node.attr in _KILL_ATTRS:
                return set()
            return base | {("oattr", node.attr)}
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            return self._eval_many(node.values)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            self._eval_many(node.comparators)
            return set()
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key)
            return self._eval_many(node.values)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return self._eval_many(node.elts)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._eval_generators(node.generators)
            return self._eval(node.elt)
        if isinstance(node, ast.DictComp):
            self._eval_generators(node.generators)
            return self._eval(node.key) | self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value) if node.value is not None else set()
        if isinstance(node, ast.Yield):
            if node.value is not None:
                labels = self._eval(node.value)
                self._edges(labels, ("ret",))
            return set()
        if isinstance(node, ast.NamedExpr):
            labels = self._eval(node.value)
            self.env[node.target.id] = set(labels)
            return labels
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value)
            return set()
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part)
            return set()
        return set()

    def _eval_generators(self, generators) -> None:
        for gen in generators:
            self._assign(gen.target, self._eval(gen.iter))
            for cond in gen.ifs:
                self._eval(cond)

    def _eval_call(self, call: ast.Call) -> Set[tuple]:
        chain = _dotted(call.func)
        arg_labels = [self._eval(arg) for arg in call.args]
        kw_labels = [(kw.arg, self._eval(kw.value)) for kw in call.keywords]
        all_args: Set[tuple] = set()
        for labels in arg_labels:
            all_args |= labels
        for _, labels in kw_labels:
            all_args |= labels
        kw_names = {kw.arg for kw in call.keywords if kw.arg}

        # 1. implicit float64 allocation sites
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in _NP_NAMES
            and chain[1] in _NP_ALLOC_FNS
        ):
            if "dtype" in kw_names:
                return set()
            key = (call.lineno, call.col_offset)
            if key in self._alloc_at:  # second analysis pass
                return {("alloc", self._alloc_at[key])}
            alloc_id = len(self.allocs)
            self._alloc_at[key] = alloc_id
            self.allocs.append(
                {
                    "id": alloc_id,
                    "line": call.lineno,
                    "col": call.col_offset,
                    "fn": chain[1],
                    "lines": list(range(self._span[0], self._span[1] + 1)),
                }
            )
            return {("alloc", alloc_id)}

        # 2. np.asarray/np.array with an explicit dtype is a conversion
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in _NP_NAMES
            and chain[1] in ("asarray", "array", "ascontiguousarray")
            and "dtype" in kw_names
        ):
            return set()

        # 3. direct wire sinks: anything through a CommChannel method
        if (
            chain is not None
            and chain[-1] in _WIRE_METHODS
            and any("channel" in part for part in chain[:-1])
        ):
            self._edges(all_args, ("sink", "wire"))
            return set()

        # 4. taint-killing conversions / index producers
        if chain is not None and chain[-1] in _KILL_CALLS:
            return set()
        if (
            chain is None
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in _KILL_CALLS
        ):
            self._eval(call.func.value)
            return set()

        # 5. string-dispatched per-client work: map_clients(ps, "m", {kwargs})
        if (
            chain is not None
            and chain[-1] == "map_clients"
            and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[1].value, str)
        ):
            callee = self._intern(("<client>", call.args[1].value), "method")
            if len(call.args) >= 3 and isinstance(call.args[2], ast.Dict):
                payload = call.args[2]
                for key, value in zip(payload.keys, payload.values):
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        self._edges(
                            self._eval(value), ("arg", callee, ("kw", key.value))
                        )
            return {("cret", callee)}

        # 6. project-resolvable callees
        if chain is not None:
            root = chain[0]
            kind = None
            if root in ("self", "cls"):
                kind = "self"
            elif root in self.module_defs:
                kind = "local"
            elif root in self.imports and self.imports[root].startswith("repro"):
                kind = "import"
            elif len(chain) >= 2 and root in self.env:
                kind = "method"
            if kind is not None:
                callee = self._intern(chain, kind)
                for i, labels in enumerate(arg_labels):
                    self._edges(labels, ("arg", callee, ("pos", i)))
                for name, labels in kw_labels:
                    if name is not None:
                        self._edges(labels, ("arg", callee, ("kw", name)))
                result: Set[tuple] = {("cret", callee)}
                if kind == "method":
                    base = set(self.env.get(root, ()))
                    for attr in chain[1:-1]:
                        if attr in _KILL_ATTRS:
                            base = set()
                        else:
                            base = base | {("oattr", attr)}
                    result |= base
                return result

        # 7. opaque calls (numpy, builtins, chained expressions): the
        # result inherits its inputs' taint — float64 is contagious
        passthrough = set(all_args)
        if chain is None:
            if isinstance(call.func, ast.Attribute):
                passthrough |= self._eval(call.func.value)
            else:
                passthrough |= self._eval(call.func)
        elif chain[0] in self.env:
            passthrough |= self.env[chain[0]]
        return passthrough


# ----------------------------------------------------------------------
# class model
# ----------------------------------------------------------------------
def _method_summary(fnode) -> dict:
    args = fnode.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    annotations = {}
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        ann = _annotation_chain(arg.annotation)
        if ann:
            annotations[arg.arg] = ann
    stores: Dict[str, List[List[int]]] = {}
    loads: Set[str] = set()
    attr_types: Dict[str, str] = {}
    dynamic_store = dynamic_load = False

    for node in ast.walk(fnode):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if not chain or chain[0] != "self":
                continue
            if isinstance(node.ctx, ast.Store):
                if len(chain) == 2:
                    stores.setdefault(chain[1], []).append(
                        [node.lineno, node.col_offset]
                    )
            elif isinstance(node.ctx, ast.Load):
                if len(chain) >= 2:
                    loads.add(chain[1])
                if chain[1] == "__dict__":
                    dynamic_load = True
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            chain = _dotted(node.value)
            if chain and chain[0] == "self" and len(chain) == 2:
                stores.setdefault(chain[1], []).append(
                    [node.lineno, node.col_offset]
                )
        elif isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if (
                chain == ("setattr",)
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
            ):
                dynamic_store = True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                chain = _dotted(target)
                if (
                    chain
                    and chain[0] == "self"
                    and len(chain) == 2
                    and isinstance(node.value, ast.Name)
                ):
                    ann = annotations.get(node.value.id)
                    if ann:
                        attr_types.setdefault(chain[1], ann)
        elif isinstance(node, ast.AnnAssign):
            chain = _dotted(node.target)
            if chain and chain[0] == "self" and len(chain) == 2:
                ann = _annotation_chain(node.annotation)
                if ann:
                    attr_types.setdefault(chain[1], ann)

    return {
        "line": fnode.lineno,
        "params": params,
        "annotations": annotations,
        "stores": {k: v for k, v in sorted(stores.items())},
        "loads": sorted(loads),
        "attr_types": attr_types,
        "dynamic_store": dynamic_store,
        "dynamic_load": dynamic_load,
    }


def _class_summary(cnode: ast.ClassDef) -> dict:
    bases = []
    for base in cnode.bases:
        chain = _dotted(base)
        if chain:
            bases.append(list(chain))
    fields: List[dict] = []
    methods: Dict[str, dict] = {}
    for stmt in cnode.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append({"name": stmt.target.id, "line": stmt.lineno})
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = _method_summary(stmt)

    return {
        "name": cnode.name,
        "line": cnode.lineno,
        "bases": bases,
        "fields": fields,
        "methods": methods,
    }


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def summarize_module(tree: ast.Module, module: str, path: str) -> dict:
    """Extract the whole-program summary of one parsed module."""
    imports = _module_imports(tree, module)
    module_defs = {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    classes: Dict[str, dict] = {}
    functions: Dict[str, dict] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = _FunctionFlow(
                stmt, stmt.name, module_defs, imports
            ).run()
        elif isinstance(stmt, ast.ClassDef):
            classes[stmt.name] = _class_summary(stmt)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{sub.name}"
                    functions[qualname] = _FunctionFlow(
                        sub, qualname, module_defs, imports
                    ).run()

    return {
        "module": module,
        "path": path,
        "imports": imports,
        "defs": sorted(module_defs),
        "classes": classes,
        "functions": functions,
    }
