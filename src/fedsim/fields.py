"""The scenario field table.

Every scenario dataclass declares each of its fields once: name, type and
default in the dataclass, bounds in ``field(metadata=...)``. Units are part
of the field names (``_ms``, ``_s``, ``_gb``, ``per_kb_ms``; rates are per
second). ``@declare`` reads those declarations once, when the class is
defined, into a table that drives three things:

  * ``build``: one YAML mapping -> instance, with type coercion, defaults,
    and unknown-field and missing-field errors;
  * ``render``: instance -> plain mapping, defaults made explicit;
  * ``check``: the per-field range and choice checks, collected as strings.

Recognised metadata keys:

  * ``bounds``: ``">= x"``, ``"> x"`` or an interval such as ``"[0, 1]"``,
    ``"(0, 1]"`` or ``"[0, 2^64)"``; the text appears in the error message;
  * ``one_of``: ``(noun, choices)``, e.g. ``("role", ROLES)``;
  * ``when``: the field only applies when the object's ``dist`` equals this
    value; render leaves it out and check skips it otherwise.

A field with no default is required. Fields whose shape the table cannot
express (matrices sized by the cluster count, maps, tagged unions) are
parsed, rendered and checked by the scenario module, which passes them to
``build``/``render`` as ``given`` values.
"""

from __future__ import annotations

import contextlib
import math
import operator
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Callable

TABLE = "__scenario_fields__"


class ScenarioError(Exception):
    """Raised on malformed scenario documents (syntax or structure)."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def fail(message: str):
    raise ScenarioError([message])


def as_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        fail(f"{path}: expected a mapping")
    return value


def as_list(value, path: str) -> list:
    if not isinstance(value, list):
        fail(f"{path}: expected a list")
    return value


def as_str(value, path: str) -> str:
    if not isinstance(value, str):
        fail(f"{path}: expected a string")
    return value


def as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        fail(f"{path}: expected a boolean")
    return value


def as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        fail(f"{path}: expected an integer")
    return value


def as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if isinstance(value, str) and "e" in value.lower():
            with contextlib.suppress(ValueError):  # text to Python too
                float(value)
                # YAML 1.1 floats need a dot and a signed exponent: 1e12,
                # 1.0e12 and 1e+12 are text
                fail(
                    f"{path}: expected a number; YAML reads {value!r} as text: "
                    "write it with a dot and a signed exponent, such as 1.0e+12"
                )
        fail(f"{path}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        fail(f"{path}: expected a finite number")
    return value


def require(mapping: dict, key: str, where: str):
    if key not in mapping:
        fail(f"{where}: missing required field '{key}'")
    return mapping[key]


def each(value, path: str, parse: Callable) -> tuple:
    """Parse every item of a list, each with its ``path[k]``."""
    return tuple(parse(item, f"{path}[{k}]") for k, item in enumerate(as_list(value, path)))


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


@dataclass(frozen=True)
class Field:
    name: str
    required: bool
    coerce: Callable | None  # (value, path) -> parsed; None for shapes parsed by hand
    nested: type | None  # declared class of the value, or of each tuple item
    check: Callable | None
    error: str  # appended to the path when ``check`` fails; ``{}`` is the value
    when: str | None


_SCALARS = {str: as_str, int: as_int, float: as_number, bool: as_bool}


def _coercer(hint):
    if hint in _SCALARS:
        return _SCALARS[hint]
    if hasattr(hint, TABLE):
        return lambda value, path: build(hint, value, path)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,):
        item = _coercer(args[0])
        return item and (lambda value, path: each(value, path, item))
    if len(args) == 2 and args[1] is type(None):
        item = _coercer(args[0])
        return item and (lambda value, path: None if value is None else item(value, path))
    return None


def _nested(hint):
    if typing.get_origin(hint) is tuple:
        hint = typing.get_args(hint)[0]
    return hint if hasattr(hint, TABLE) else None


def _limit(text: str):
    base, _, power = text.partition("^")
    return float(base) ** int(power) if power else float(base)


_LOWER = {">=": (operator.ge, "<"), ">": (operator.gt, "<=")}


def _bounds(text: str):
    if text[0] in "[(":
        lo, hi = (_limit(part) for part in text[1:-1].split(","))
        lo_ok = operator.ge if text[0] == "[" else operator.gt
        hi_ok = operator.le if text[-1] == "]" else operator.lt
        return (lambda v: lo_ok(v, lo) and hi_ok(v, hi)), f" out of {text}"
    op, limit = text.split()
    ok, negated = _LOWER[op]
    bound = _limit(limit)
    return (lambda v: ok(v, bound)), f" {negated} {limit}"


def _entry(f, hint) -> Field:
    check, error = None, ""
    if "bounds" in f.metadata:
        check, error = _bounds(f.metadata["bounds"])
    elif "one_of" in f.metadata:
        noun, choices = f.metadata["one_of"]
        check, error = choices.__contains__, f": unknown {noun} '{{}}'"
    return Field(
        name=f.name,
        required=f.default is MISSING and f.default_factory is MISSING,
        coerce=_coercer(hint),
        nested=_nested(hint),
        check=check,
        error=error,
        when=f.metadata.get("when"),
    )


def declare(cls):
    """Class decorator for a scenario dataclass: computes its field table."""
    hints = typing.get_type_hints(cls)
    setattr(cls, TABLE, {f.name: _entry(f, hints[f.name]) for f in fields(cls)})
    return cls


def check_keys(entry: dict, cls, where: str, extra: tuple[str, ...] = ()) -> None:
    table = getattr(cls, TABLE)
    unknown = [key for key in entry if key not in table and key not in extra]
    if unknown:
        listed = ", ".join(f"'{key}'" for key in sorted(map(str, unknown)))
        fail(f"{where}: unknown field {listed}")


def build(cls, value, path: str, extra: tuple[str, ...] = (), **given):
    """Build ``cls`` from one mapping. ``given`` holds fields parsed by hand;
    ``extra`` names keys the caller consumes itself."""
    where = path or "document"
    entry = as_map(value, where)
    check_keys(entry, cls, where, extra)
    kwargs = dict(given)
    for f in getattr(cls, TABLE).values():
        if f.name in given:
            continue
        if f.name in entry:
            kwargs[f.name] = f.coerce(entry[f.name], _join(path, f.name))
        elif f.required:
            fail(f"{where}: missing required field '{f.name}'")
    return cls(**kwargs)


def _plain(value):
    if is_dataclass(value):
        return render(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _applies(f: Field, obj) -> bool:
    return f.when is None or f.when == obj.dist


def render(obj, **given) -> dict:
    """Plain mapping of ``obj`` with every default explicit. ``given`` holds
    fields rendered by hand; a None value (given or not) is left out."""
    doc = {}
    for f in getattr(obj, TABLE).values():
        value = given[f.name] if f.name in given else getattr(obj, f.name)
        if value is not None and _applies(f, obj):
            doc[f.name] = value if f.name in given else _plain(value)
    return doc


def check(obj, path: str, errors: list[str]) -> None:
    """Append every per-field violation of ``obj`` and the declared objects
    it holds; fields parsed by hand are checked by hand."""
    for f in getattr(obj, TABLE).values():
        value = getattr(obj, f.name)
        if value is None or not _applies(f, obj):
            continue
        field_path = _join(path, f.name)
        if f.nested is not None and isinstance(value, tuple):
            for k, item in enumerate(value):
                check(item, f"{field_path}[{k}]", errors)
        elif f.nested is not None:
            check(value, field_path, errors)
        elif f.check is not None and not f.check(value):
            errors.append(field_path + f.error.format(value))
