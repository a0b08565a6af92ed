"""Determinism pack: RNG, clock, and ordering discipline.

The repo's serial/parallel bit-identity and exact-resume guarantees hold
only if every random draw flows through a seeded
``numpy.random.Generator`` whose stream is owned, checkpointed, and
restored by the federation.  A single call into numpy's *global* RNG, the
stdlib ``random`` module, or the OS entropy pool silently breaks all of
them.  Wall-clock reads are results-affecting unless confined to
observability (``repro.obs`` stamps trace records), and iterating a
``set`` leaks hash ordering into whatever is built from it.
"""

from __future__ import annotations

import ast

from ..registry import register
from ._ast_utils import call_chain

#: numpy.random attributes that are constructors/types, not draws from the
#: shared global stream.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "Philox",
    "MT19937",
    "SFC64",
}


def _np_random_fn(chain) -> str:
    """Return the ``numpy.random`` member a call chain targets, or ''."""
    if chain is None or len(chain) < 2:
        return ""
    if chain[0] in ("np", "numpy") and chain[1] == "random":
        return chain[2] if len(chain) > 2 else ""
    return ""


@register(
    "det-banned-np-random",
    pack="determinism",
    severity="error",
    summary="call into numpy's global RNG (np.random.<fn>)",
    description=(
        "Draws from `np.random.<fn>` use the process-global RNG stream, "
        "which is invisible to checkpointing and differs between the "
        "serial and parallel runtimes. Take an explicit seeded "
        "`np.random.Generator` (see `repro.nn.init.ensure_rng`) and draw "
        "from it instead. Constructors (`default_rng`, `Generator`, "
        "`SeedSequence`, bit generators) are allowed."
    ),
    packages=("repro",),
)
def check_banned_np_random(ctx):
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _np_random_fn(call_chain(node))
        if fn and fn not in _NP_RANDOM_ALLOWED:
            yield node, (
                f"np.random.{fn}() draws from the global RNG stream; "
                "use a seeded Generator"
            )


@register(
    "det-unseeded-rng",
    pack="determinism",
    severity="warning",
    summary="np.random.default_rng() constructed without a seed",
    description=(
        "`np.random.default_rng()` with no arguments pulls OS entropy, so "
        "two runs of the same experiment diverge. Thread a seed (or an "
        "existing Generator) through instead; an API that needs an RNG "
        "takes it as a required argument rather than falling back to "
        "fresh entropy when none is given."
    ),
    packages=("repro",),
)
def check_unseeded_rng(ctx):
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = call_chain(node)
        if chain and chain[-1] == "default_rng" and not node.args and not node.keywords:
            yield node, "default_rng() without a seed is nondeterministic"


@register(
    "det-stdlib-random",
    pack="determinism",
    severity="error",
    summary="import of the stdlib `random` module",
    description=(
        "The stdlib `random` module is a process-global, non-checkpointable "
        "RNG; nothing in this repo may depend on it. Use a seeded "
        "`np.random.Generator` owned by the caller."
    ),
    packages=("repro",),
)
def check_stdlib_random(ctx):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, "stdlib random is banned; use a seeded Generator"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield node, "stdlib random is banned; use a seeded Generator"


@register(
    "det-os-urandom",
    pack="determinism",
    severity="error",
    summary="os.urandom() pulls unseedable OS entropy",
    description=(
        "`os.urandom` cannot be seeded or checkpointed, so any value "
        "derived from it breaks exact resume and run-to-run identity."
    ),
    packages=("repro",),
)
def check_os_urandom(ctx):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and call_chain(node) == ("os", "urandom"):
            yield node, "os.urandom() is unseedable entropy"


@register(
    "det-wallclock-time",
    pack="determinism",
    severity="error",
    summary="time.time() outside the observability layer",
    description=(
        "Wall-clock reads make results depend on when a run happens. Only "
        "`repro.obs` (trace timestamps) may call `time.time()`; durations "
        "elsewhere use `time.perf_counter()` and stay out of results."
    ),
    packages=("repro",),
    exclude=("repro.obs",),
)
def check_wallclock_time(ctx):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and call_chain(node) == ("time", "time"):
            yield node, "time.time() outside repro.obs leaks wall-clock into the run"


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register(
    "det-set-iteration",
    pack="determinism",
    severity="error",
    summary="iteration over a set in aggregation/serialization paths",
    description=(
        "Set iteration order follows hash seeds, so anything built from it "
        "(aggregates, payload layouts, serialized key order) can differ "
        "between processes. Wrap the set in `sorted(...)` before iterating."
    ),
    packages=("repro.core", "repro.baselines", "repro.fl", "repro.nn", "repro.sweep"),
)
def check_set_iteration(ctx):
    def flag(iter_node):
        if _is_set_expr(iter_node):
            yield iter_node, (
                "iterating a set leaks hash order into results; "
                "wrap it in sorted(...)"
            )

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield from flag(gen.iter)
