"""Rule packs — importing this package registers every rule.

Packs:

- :mod:`.determinism` — RNG/clock/set-ordering discipline behind the
  repo's bit-identical-history guarantees;
- :mod:`.comm` — every cross-party byte in ``repro.core`` /
  ``repro.baselines`` goes through :class:`~repro.fl.channel.CommChannel`;
- :mod:`.autograd` — no in-place mutation of autograd-visible buffers in
  ``repro.nn``, backward closures paired with forward bookkeeping,
  parameters registered on modules;
- :mod:`.obs` — ``scope/name`` metric naming and span lifecycle hygiene;
- :mod:`.hygiene` — unused imports, shadowed builtins, dead assignments.
"""

from . import autograd, comm, determinism, hygiene, obs  # noqa: F401

__all__ = ["autograd", "comm", "determinism", "hygiene", "obs"]
