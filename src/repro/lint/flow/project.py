"""Whole-program model assembled from per-module summaries.

:class:`ProjectModel` owns three global analyses, each exposed as a
memoised ``*_findings()`` method returning plain dicts keyed by module
so the corresponding ``flow-*`` rule can filter to the module it is
currently reporting on:

- **dtype flow** — implicit float64 allocation sites are turned into
  graph nodes along with function params/returns and class attribute
  slots; taint edges from the per-function summaries are resolved
  against the call graph and a reverse reachability pass from the two
  sinks (wire payloads, the training hot path) decides which
  allocations actually matter;
- **checkpoint completeness** — mutable ``self.*`` attributes of every
  ``FederatedAlgorithm`` subclass diffed against the
  ``extra_state()``/``load_extra_state()`` round-trip.

The model is built from summaries on every pass (it is cheap — no
parsing).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ALWAYS_DTYPE_MODULES",
    "DTYPE_ZONE",
    "HOT_MODULE_PREFIXES",
    "BASE_MANAGED_ATTRS",
    "ProjectModel",
]

#: Modules whose code *is* the training hot path: taint arriving here is
#: flagged without needing to reach a further sink.
HOT_MODULE_PREFIXES: Tuple[str, ...] = ("repro.nn", "repro.fl.training")

#: Modules where an implicit float64 allocation is flagged
#: unconditionally — per-sample tensors and wire-adjacent buffers are
#: built here and a float64 among them is never intended.
ALWAYS_DTYPE_MODULES: Tuple[str, ...] = (
    "repro.nn",
    "repro.fl.training",
    "repro.fl.client",
    "repro.fl.compression",
    "repro.core.prototypes",
)

#: Modules participating in the flow analysis at all: an implicit
#: allocation here is flagged only if it can reach a sink.
DTYPE_ZONE: Tuple[str, ...] = ("repro.core", "repro.fl", "repro.baselines", "repro.nn")

#: Attributes owned and round-tripped by the FederatedAlgorithm base /
#: the engine plumbing — subclasses store into them but are not
#: responsible for persisting them.
BASE_MANAGED_ATTRS = frozenset(
    {
        "federation",
        "rng",
        "obs",
        "round_index",
        "dropout_log",
        "engine",
        "_pending_wall_time",
        "_pending_stage_times",
        "_pending_dropouts",
    }
)

_EXTRA_STATE_EXEMPT_METHODS = frozenset(
    {"__init__", "__post_init__", "load_extra_state", "load_pending_state", "load_state_dict"}
)


def _has_prefix(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class ProjectModel:
    """Resolved class hierarchy + call graph over a set of summaries."""

    def __init__(self, summaries: Dict[str, dict]) -> None:
        self.summaries = dict(summaries)
        # fullname ("mod.Class") → {"module", "summary"}
        self.classes: Dict[str, dict] = {}
        self._by_basename: Dict[str, List[str]] = {}
        # function key ("mod.qual") → {"module", "summary", "owner"}
        self.functions: Dict[str, dict] = {}
        self._method_owners: Dict[str, List[str]] = {}
        for module, summary in self.summaries.items():
            for cname, cls in summary.get("classes", {}).items():
                fullname = f"{module}.{cname}"
                self.classes[fullname] = {"module": module, "summary": cls}
                self._by_basename.setdefault(cname, []).append(fullname)
                for mname in cls.get("methods", {}):
                    self._method_owners.setdefault(mname, []).append(fullname)
            for qual, fn in summary.get("functions", {}).items():
                owner = None
                if "." in qual:
                    owner = f"{module}.{qual.rsplit('.', 1)[0]}"
                self.functions[f"{module}.{qual}"] = {
                    "module": module,
                    "summary": fn,
                    "owner": owner,
                }
        self._ancestor_cache: Dict[str, Tuple[List[str], List[str]]] = {}
        self._analyses: Dict[str, list] = {}

    # ------------------------------------------------------------------
    # name / hierarchy resolution
    # ------------------------------------------------------------------
    def resolve_class(self, module: str, chain: Sequence[str]) -> Optional[str]:
        """Resolve a dotted name used in *module* to a project class."""
        if not chain:
            return None
        summary = self.summaries.get(module, {})
        local = f"{module}.{chain[-1]}"
        if len(chain) == 1 and local in self.classes:
            return local
        imports = summary.get("imports", {})
        if chain[0] in imports:
            dotted = ".".join([imports[chain[0]], *chain[1:]])
            if dotted in self.classes:
                return dotted
        candidates = self._by_basename.get(chain[-1], [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _bases(self, fullname: str) -> Tuple[List[str], List[str]]:
        """(resolved project base fullnames, unresolved dotted bases)."""
        entry = self.classes[fullname]
        resolved: List[str] = []
        external: List[str] = []
        for base in entry["summary"].get("bases", []):
            target = self.resolve_class(entry["module"], base)
            if target is not None and target != fullname:
                resolved.append(target)
            else:
                external.append(".".join(base))
        return resolved, external

    def ancestors(self, fullname: str) -> Tuple[List[str], List[str]]:
        """Transitive (project ancestors, external base names) for a class."""
        if fullname in self._ancestor_cache:
            return self._ancestor_cache[fullname]
        self._ancestor_cache[fullname] = ([], [])  # cycle guard
        resolved: List[str] = []
        external: List[str] = []
        seen: Set[str] = set()
        queue = deque([fullname])
        while queue:
            current = queue.popleft()
            bases, ext = self._bases(current)
            external.extend(e for e in ext if e not in external)
            for base in bases:
                if base not in seen:
                    seen.add(base)
                    resolved.append(base)
                    queue.append(base)
        self._ancestor_cache[fullname] = (resolved, external)
        return resolved, external

    def is_subclass_of(self, fullname: str, target: str) -> bool:
        """True if any ancestor matches *target* (dotted or basename)."""
        resolved, external = self.ancestors(fullname)
        for anc in resolved:
            if anc == target or anc.rsplit(".", 1)[-1] == target:
                return True
        for ext in external:
            if ext == target or ext.rsplit(".", 1)[-1] == target:
                return True
        return False

    def root_owner(self, fullname: str) -> str:
        """Rootmost project ancestor along the first-base chain.

        Attribute slots are unified onto this owner so that a store in a
        subclass and a load in the base (or a sibling) share one node.
        """
        current = fullname
        seen = {current}
        while True:
            bases, _ = self._bases(current)
            if not bases or bases[0] in seen:
                return current
            current = bases[0]
            seen.add(current)

    def find_method(self, fullname: str, name: str) -> Optional[Tuple[str, str]]:
        """(defining class fullname, function key) for a method lookup."""
        chain = [fullname] + self.ancestors(fullname)[0]
        for cls in chain:
            entry = self.classes[cls]
            if name in entry["summary"].get("methods", {}):
                basename = cls.rsplit(".", 1)[-1]
                return cls, f"{entry['module']}.{basename}.{name}"
        return None

    def subclasses_of(self, target: str) -> List[str]:
        return sorted(
            fullname
            for fullname in self.classes
            if self.is_subclass_of(fullname, target)
        )

    # ------------------------------------------------------------------
    # dtype flow
    # ------------------------------------------------------------------
    def _resolve_callee(self, fkey: str, callee: dict) -> Optional[dict]:
        """Resolve an interned callee to a function or constructor.

        Returns ``{"kind": "function", "fkey", "bound"}`` or
        ``{"kind": "ctor", "class"}`` or None when the target is outside
        the project (taint is then dropped at the call boundary).
        """
        info = self.functions[fkey]
        module = info["module"]
        chain = tuple(callee["chain"])
        kind = callee["kind"]
        if kind == "self":
            owner = info["owner"]
            if owner is None or len(chain) != 2:
                return None
            found = self.find_method(owner, chain[-1])
            if found is None:
                return None
            return {"kind": "function", "fkey": found[1], "bound": True}
        if kind == "local":
            if len(chain) == 1:
                target = f"{module}.{chain[0]}"
                if target in self.functions:
                    return {"kind": "function", "fkey": target, "bound": False}
                if target in self.classes:
                    return {"kind": "ctor", "class": target}
            elif len(chain) == 2 and f"{module}.{chain[0]}" in self.classes:
                target = f"{module}.{chain[0]}.{chain[1]}"
                if target in self.functions:
                    return {"kind": "function", "fkey": target, "bound": False}
            return None
        if kind == "import":
            imports = self.summaries.get(module, {}).get("imports", {})
            root = imports.get(chain[0])
            if root is None:
                return None
            dotted = ".".join([root, *chain[1:]])
            if dotted in self.functions:
                return {"kind": "function", "fkey": dotted, "bound": False}
            if dotted in self.classes:
                return {"kind": "ctor", "class": dotted}
            return None
        if kind == "method":
            owners = self._method_owners.get(chain[-1], [])
            if len(owners) == 1:
                found = self.find_method(owners[0], chain[-1])
                if found is not None:
                    return {"kind": "function", "fkey": found[1], "bound": True}
            return None
        return None

    def _dtype_graph(self):
        """Build the taint graph; returns (edges, allocs, attr_nodes)."""
        edges: Dict[str, Set[str]] = {}
        allocs: List[dict] = []
        attr_nodes: Dict[str, str] = {}  # node → owner class fullname

        def add_edge(src: Optional[str], dst: Optional[str]) -> None:
            if src is None or dst is None or src == dst:
                return
            edges.setdefault(src, set()).add(dst)

        def attr_node(owner: Optional[str], name: str) -> str:
            if owner is None:
                return f"oattr:{name}"
            root = self.root_owner(owner)
            node = f"attr:{root}:{name}"
            attr_nodes[node] = root
            return node

        def param_node(target: dict, spec: list) -> Optional[str]:
            tkey = target["fkey"]
            params = self.functions[tkey]["summary"]["params"]
            offset = 1 if target["bound"] else 0
            if spec[0] == "pos":
                idx = spec[1] + offset
            else:
                if spec[1] not in params:
                    return None
                idx = params.index(spec[1])
            if idx >= len(params):
                return None
            return f"param:{tkey}:{idx}"

        def ctor_node(cls: str, spec: list) -> Optional[str]:
            fields = [f["name"] for f in self.classes[cls]["summary"].get("fields", [])]
            if spec[0] == "pos":
                if spec[1] >= len(fields):
                    return None
                name = fields[spec[1]]
            else:
                name = spec[1]
            return attr_node(cls, name)

        for fkey, info in self.functions.items():
            fs = info["summary"]
            owner = info["owner"]
            module = info["module"]
            resolved = [self._resolve_callee(fkey, c) for c in fs["callees"]]

            for alloc in fs["allocs"]:
                allocs.append(
                    {
                        "module": module,
                        "node": f"alloc:{fkey}:{alloc['id']}",
                        "fn": alloc["fn"],
                        "line": alloc["line"],
                        "col": alloc["col"],
                        "lines": alloc["lines"],
                        "function": fkey,
                    }
                )

            def label_node(label: list) -> Optional[str]:
                kind = label[0]
                if kind == "alloc":
                    return f"alloc:{fkey}:{label[1]}"
                if kind == "param":
                    return f"param:{fkey}:{label[1]}"
                if kind == "sattr":
                    return attr_node(owner, label[1])
                if kind == "oattr":
                    return f"oattr:{label[1]}"
                if kind == "cret":
                    target = resolved[label[1]]
                    if target is not None and target["kind"] == "function":
                        return f"ret:{target['fkey']}"
                    return None
                return None

            for src, dst in fs["edges"]:
                src_node = label_node(src)
                if src_node is None:
                    continue
                kind = dst[0]
                if kind == "ret":
                    add_edge(src_node, f"ret:{fkey}")
                elif kind == "sstore":
                    add_edge(src_node, attr_node(owner, dst[1]))
                elif kind == "nstore":
                    owner_attr, attr = dst[1], dst[2]
                    target_cls = None
                    if owner is not None:
                        ann = (
                            self.classes[owner]["summary"]
                            .get("methods", {})
                            .get(fkey.rsplit(".", 1)[-1], {})
                            .get("attr_types", {})
                            .get(owner_attr)
                        ) or self._class_attr_type(owner, owner_attr)
                        if ann is not None:
                            target_cls = self.resolve_class(module, ann.split("."))
                    add_edge(src_node, attr_node(target_cls, attr))
                elif kind == "sink":
                    add_edge(src_node, f"sink:{dst[1]}")
                elif kind == "arg":
                    target = resolved[dst[1]]
                    if target is None:
                        continue
                    if target["kind"] == "function":
                        add_edge(src_node, param_node(target, dst[2]))
                        tmod = self.functions[target["fkey"]]["module"]
                        if _has_prefix(tmod, HOT_MODULE_PREFIXES):
                            add_edge(src_node, "sink:hot")
                    else:
                        add_edge(src_node, ctor_node(target["class"], dst[2]))
                        cmod = self.classes[target["class"]]["module"]
                        if _has_prefix(cmod, HOT_MODULE_PREFIXES):
                            add_edge(src_node, "sink:hot")

            # taint entering a hot-path function's params is already at
            # the sink, whatever the body does with it
            if _has_prefix(module, HOT_MODULE_PREFIXES):
                for idx in range(len(fs["params"])):
                    add_edge(f"param:{fkey}:{idx}", "sink:hot")

        # attribute-slot unification: loads off an unknown object pick up
        # anything stored under the same name, and state held on a
        # hot-module class (e.g. Tensor) is itself hot
        for node, owner in attr_nodes.items():
            add_edge(node, f"oattr:{node.rsplit(':', 1)[-1]}")
            if _has_prefix(self.classes[owner]["module"], HOT_MODULE_PREFIXES):
                add_edge(node, "sink:hot")

        return edges, allocs

    def _class_attr_type(self, fullname: str, attr: str) -> Optional[str]:
        """Annotation-derived type of ``self.<attr>`` anywhere in a class."""
        for cls in [fullname] + self.ancestors(fullname)[0]:
            for ms in self.classes[cls]["summary"].get("methods", {}).values():
                ann = ms.get("attr_types", {}).get(attr)
                if ann:
                    return ann
        return None

    def dtype_findings(self) -> List[dict]:
        """Implicit-float64 allocations that matter, with reach evidence."""
        if "dtype" in self._analyses:
            return self._analyses["dtype"]
        edges, allocs = self._dtype_graph()
        reverse: Dict[str, Set[str]] = {}
        for src, dsts in edges.items():
            for dst in dsts:
                reverse.setdefault(dst, set()).add(src)
        reach: Dict[str, str] = {}
        for sink, reason in (("sink:wire", "a wire payload"), ("sink:hot", "the training hot path")):
            queue = deque([sink])
            while queue:
                node = queue.popleft()
                for src in reverse.get(node, ()):
                    if src not in reach:
                        reach[src] = reason
                        queue.append(src)

        findings: List[dict] = []
        for alloc in allocs:
            module = alloc["module"]
            if not _has_prefix(module, DTYPE_ZONE):
                continue
            if _has_prefix(module, ALWAYS_DTYPE_MODULES):
                reason = "a dtype-sensitive module"
            elif alloc["node"] in reach:
                reason = reach[alloc["node"]]
            else:
                continue
            findings.append(
                {
                    "module": module,
                    "line": alloc["line"],
                    "col": alloc["col"],
                    "lines": alloc["lines"],
                    "message": (
                        f"np.{alloc['fn']}() without dtype= allocates float64 "
                        f"and the value can reach {reason}; pass an explicit "
                        "dtype (np.float32, or np.float64 if deliberate)"
                    ),
                }
            )
        findings.sort(key=lambda f: (f["module"], f["line"], f["col"]))
        self._analyses["dtype"] = findings
        return findings

    # ------------------------------------------------------------------
    # checkpoint completeness
    # ------------------------------------------------------------------
    def _round_trip_sets(
        self, fullname: str, export_method: str, restore_method: str
    ):
        """((exported, export_all, export_site), (restored, restore_all)).

        ``export_site`` is (module, line) of the export method if the
        class hierarchy defines one, else None.
        """
        exported: Set[str] = set()
        export_all = False
        export_site = None
        found = self.find_method(fullname, export_method)
        if found is not None:
            cls, fkey = found
            ms = self.classes[cls]["summary"]["methods"][export_method]
            exported = set(ms["loads"])
            export_all = ms["dynamic_load"]
            export_site = (self.classes[cls]["module"], ms["line"])
        restored: Set[str] = set()
        restore_all = False
        found = self.find_method(fullname, restore_method)
        if found is not None:
            cls, _ = found
            ms = self.classes[cls]["summary"]["methods"][restore_method]
            restored = set(ms["stores"])
            restore_all = ms["dynamic_store"]
        return (exported, export_all, export_site), (restored, restore_all)

    def _mutable_attrs(
        self, fullname: str, exempt_methods: frozenset
    ) -> Dict[str, Tuple[int, str]]:
        """attr → (first store line, method) outside exempt methods."""
        mutable: Dict[str, Tuple[int, str]] = {}
        cls = self.classes[fullname]["summary"]
        for mname, ms in sorted(cls.get("methods", {}).items()):
            if mname in exempt_methods:
                continue
            for attr, locs in ms["stores"].items():
                line = min(loc[0] for loc in locs)
                if attr not in mutable or line < mutable[attr][0]:
                    mutable[attr] = (line, mname)
        return mutable

    def _ancestor_stored(self, fullname: str) -> Set[str]:
        stored: Set[str] = set()
        for anc in self.ancestors(fullname)[0]:
            for ms in self.classes[anc]["summary"].get("methods", {}).values():
                stored.update(ms["stores"])
        return stored

    def extra_state_findings(self) -> List[dict]:
        """FederatedAlgorithm subclasses with un-checkpointed state."""
        if "extra_state" in self._analyses:
            return self._analyses["extra_state"]
        findings: List[dict] = []
        for fullname in self.subclasses_of("FederatedAlgorithm"):
            entry = self.classes[fullname]
            module = entry["module"]
            basename = fullname.rsplit(".", 1)[-1]
            mutable = self._mutable_attrs(fullname, _EXTRA_STATE_EXEMPT_METHODS)
            exempt = self._ancestor_stored(fullname) | BASE_MANAGED_ATTRS
            mutable = {a: v for a, v in mutable.items() if a not in exempt}
            if not mutable:
                continue
            (exported, export_all, export_site), (restored, restore_all) = (
                self._round_trip_sets(fullname, "extra_state", "load_extra_state")
            )
            for attr, (line, mname) in sorted(mutable.items()):
                is_exported = export_all or attr in exported
                is_restored = restore_all or attr in restored
                if is_exported and is_restored:
                    continue
                if is_exported and export_site is not None:
                    findings.append(
                        {
                            "module": export_site[0],
                            "line": export_site[1],
                            "col": 0,
                            "lines": [],
                            "message": (
                                f"{basename}.extra_state() exports '{attr}' but "
                                "load_extra_state() never restores it — resume "
                                "would silently drop the value"
                            ),
                        }
                    )
                else:
                    findings.append(
                        {
                            "module": module,
                            "line": line,
                            "col": 0,
                            "lines": [],
                            "message": (
                                f"{basename}.{mname} mutates 'self.{attr}' but "
                                "extra_state()/load_extra_state() does not "
                                "round-trip it — exact resume would diverge"
                            ),
                        }
                    )
        findings = _dedupe(findings)
        self._analyses["extra_state"] = findings
        return findings


def _dedupe(findings: List[dict]) -> List[dict]:
    seen: Set[tuple] = set()
    out: List[dict] = []
    for f in sorted(findings, key=lambda f: (f["module"], f["line"], f["col"], f["message"])):
        key = (f["module"], f["line"], f["message"])
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out
