"""The host's execution-context knobs: one table, one precedence rule.

The paper picks a code variant per execution context (§III-D).  On the
host, seven such choices are process-wide knobs: the assembly tile
budget and precision, the sweep workers, the serving tile budget,
precision and user block, and the out-of-core shard budget.  Each is one :class:`Knob`, declared beside the code it
steers, and every one resolves the same way:

1. an explicit argument (a function parameter or config field);
2. the configured value (:meth:`Knob.configure`; the CLI flags land here);
3. the knob's ``REPRO_*`` environment variable (empty counts as unset);
4. the built-in default.

:meth:`Knob.source` names which of the four won and :func:`effective`
lists every knob's value and source (the ``profile`` header records
it).  A bad environment value raises ``ValueError`` naming the variable.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Knob", "at_least", "effective", "reset", "table"]

#: The modules whose import declares the knobs.
_DECLARED_IN = (
    "repro.linalg.normal_equations",
    "repro.parallel.executor",
    "repro.serving.engine",
    "repro.sparse.shards",
)

_TABLE: dict[str, "Knob"] = {}


@dataclass(eq=False)
class Knob:
    """One process-wide knob.

    ``parse`` is the knob's domain validator: it normalizes a value from
    any source (including the environment's string form) and raises
    ``ValueError`` on a bad one; the knob's own methods prefix that
    error with where the value came from.  ``default`` is already
    parsed.  Declaring a knob enters it in the table.
    """

    name: str
    env: str
    default: Any
    parse: Callable[[Any], Any]
    configured: Any = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        _TABLE[self.name] = self

    def check(self, value: Any) -> Any:
        """``parse(value)``, with an error that names the knob."""
        return self._parse(self.name, value)

    def configure(self, value: Any = None) -> None:
        """Install a process-wide value (``None`` resets it)."""
        self.configured = None if value is None else self.check(value)

    def source(self, arg: Any = None) -> str:
        """Where :meth:`resolve` takes the value from for this ``arg``."""
        if arg is not None:
            return "argument"
        if self.configured is not None:
            return "configured"
        if os.environ.get(self.env):
            return "env"
        return "default"

    def resolve(self, arg: Any = None) -> Any:
        """The effective value: argument > configured > env > default."""
        if arg is not None:
            return self.check(arg)
        if self.configured is not None:
            return self.configured
        raw = os.environ.get(self.env)
        return self._parse(self.env, raw) if raw else self.default

    def _parse(self, label: str, value: Any) -> Any:
        try:
            return self.parse(value)
        except ValueError as exc:
            raise ValueError(f"{label}={value!r}: {exc}") from None


def at_least(floor: int = 1) -> Callable[[Any], int]:
    """The ``parse`` of an integer knob: ``int(value)``, at least ``floor``."""

    def parse(value: Any) -> int:
        n = int(value)
        if n < floor:
            raise ValueError(f"must be >= {floor}, got {n}")
        return n

    return parse


def table() -> tuple[Knob, ...]:
    """Every declared knob."""
    for module in _DECLARED_IN:
        importlib.import_module(module)
    return tuple(_TABLE.values())


def effective(**arguments: Any) -> dict[str, tuple[Any, str]]:
    """``{name: (value, source)}`` for every knob.

    ``arguments`` are explicit per-knob values (e.g. a run's config
    fields, ``workers=config.workers``); ``None`` means "not given".
    """
    knobs = table()
    unknown = set(arguments) - {k.name for k in knobs}
    if unknown:
        raise ValueError(f"unknown knobs: {sorted(unknown)}")
    return {
        k.name: (k.resolve(arguments.get(k.name)), k.source(arguments.get(k.name)))
        for k in knobs
    }


def reset() -> None:
    """Clear every configured value."""
    for k in table():
        k.configure(None)
