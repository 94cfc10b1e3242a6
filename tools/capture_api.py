"""Capture the public API snapshot ``tests/golden/api.txt``.

    python3 tools/capture_api.py

Run from the root of a checkout; the package is imported from ``src/``.
Lists every public name that ``tropsquare/__init__.py`` imports, sorted:
functions with their signature; classes with their constructor
signature, attributes, public methods, properties, class and static
methods, operators, and whether they define equality, hashing and
ordering; constants with their type.  It records what a caller can
rely on, not how a class implements it (a dataclass ``__eq__`` and a
hand-written one read the same).  ``tests/test_api.py`` rebuilds the
text and compares it with the file.  Rerun this script only when the
API is meant to change, and review the diff of the golden file.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tropsquare  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "api.txt"

OPERATORS = (
    "__abs__", "__add__", "__float__", "__mul__", "__neg__", "__radd__", "__rmul__",
    "__rsub__", "__rtruediv__", "__str__", "__sub__", "__truediv__",
)
ORDERING = ("__lt__", "__le__", "__gt__", "__ge__")


class _Shown:
    """Stands in for a default value, so that ``inspect`` prints ``text``."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return self.text


def _value(v) -> str:
    """A default value's repr, with set members sorted so that it does not
    depend on string hashing."""
    if isinstance(v, (set, frozenset)):
        return f"{type(v).__name__}({{{', '.join(sorted(map(repr, v)))}}})"
    return repr(v)


def _signature(obj, factories=None) -> str:
    """``inspect.signature`` with stable defaults; ``factories`` maps a
    dataclass field to its ``default_factory``, shown as the value it makes."""
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return "(...)"  # a builtin constructor, such as an exception's
    factories = factories or {}
    params = []
    for p in sig.parameters.values():
        default = factories[p.name]() if p.name in factories else p.default
        if default is not p.empty:
            p = p.replace(default=_Shown(_value(default)))
        params.append(p)
    return str(sig.replace(parameters=params))


def _own(cls) -> list[type]:
    """The classes in ``cls``'s MRO that belong to this package."""
    return [k for k in cls.__mro__ if k.__module__.startswith("tropsquare")]


def _defined(cls, name: str) -> bool:
    return any(name in vars(k) for k in _own(cls))


def _class_lines(name: str, cls) -> list[str]:
    factories = {}
    attributes = set()
    if dataclasses.is_dataclass(cls):
        for f in dataclasses.fields(cls):
            attributes.add(f.name)
            if f.default_factory is not dataclasses.MISSING:
                factories[f.name] = f.default_factory
    members = {}
    for k in reversed(_own(cls)):
        attributes.update(n for n in getattr(k, "__slots__", ()) if not n.startswith("_"))
        members.update(vars(k))
    lines = [f"class {name}{_signature(cls, factories)}"]
    if attributes:
        lines.append(f"  attributes: {', '.join(sorted(attributes))}")
    for attr, member in sorted(members.items()):
        if attr.startswith("_"):
            continue
        if isinstance(member, property):
            lines.append(f"  property {attr}")
        elif isinstance(member, (classmethod, staticmethod)):
            kind = type(member).__name__
            lines.append(f"  {kind} {attr}{_signature(member.__func__)}")
        elif inspect.isfunction(member):
            lines.append(f"  method {attr}{_signature(member)}")
    ops = [op for op in OPERATORS if op in members]
    if ops:
        lines.append(f"  operators: {', '.join(ops)}")
    if cls.__hash__ is None:
        hashing = "unhashable"
    else:
        hashing = "defined" if _defined(cls, "__hash__") else "identity"
    order = "defined" if any(_defined(cls, op) for op in ORDERING) else "none"
    eq = "defined" if _defined(cls, "__eq__") else "identity"
    lines.append(f"  eq: {eq}; hash: {hashing}; order: {order}")
    return lines


def api_text() -> str:
    lines = []
    for name, obj in sorted(vars(tropsquare).items()):
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            lines.extend(_class_lines(name, obj))
        elif inspect.isfunction(obj):
            lines.append(f"function {name}{_signature(obj)}")
        else:
            lines.append(f"constant {name}: {type(obj).__name__}")
    return "\n".join(lines) + "\n"


def main() -> None:
    GOLDEN.write_text(api_text(), encoding="utf-8")


if __name__ == "__main__":
    main()
