"""Config fields declared once: what a key is and which values it accepts.

Run and sweep configs declare their fields with ``param``: INI section and
key, converter (the declared type's unless one is named), bounds, choices
and hash entry.  ``ini_table``, ``check`` and ``hash_items`` walk them with
``declared``, and ``fault`` is the one rule for a value.  Rules that tie
fields together stay in ``SimConfig.validate``.
"""

from __future__ import annotations

import configparser
import math
import numbers
import operator
import sys
from dataclasses import MISSING, field, fields, is_dataclass
from functools import reduce


def param(default=MISSING, section=None, *keys, conv=None, gt=None, ge=None, le=None,
          choices=(), finite=False, hashed=True):
    """A field set by INI ``[section] key`` (its name unless ``keys`` are given;
    two keys fill a tuple's two entries), converted by ``conv`` where the declared
    type does not say how, bounded by ``> gt`` or ``>= ge`` and by ``<= le``,
    one of ``choices`` if any are given, finite if ``finite`` or bounded."""
    bounds = tuple((op, v) for op, v in ((">", gt), (">=", ge), ("<=", le)) if v is not None)
    return field(default=default, metadata={
        "section": section, "keys": keys, "conv": conv, "bounds": bounds, "choices": choices,
        "finite": finite or bool(bounds), "hashed": hashed})


def from_degrees(raw: str) -> float:
    return math.radians(float(raw))


def auto_or_float(raw: str) -> float | None:
    return None if raw.strip().lower() == "auto" else float(raw)   # None: the default


def _to_bool(raw: str) -> bool:
    """true/yes/on/1 or false/no/off/0, in any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _kind(f) -> type:
    """A field's declared type, or its entries': float (``float | None`` too), int, bool or str."""
    t = str(f.type)
    return float if "float" in t else {"int": int, "bool": bool, "str": str}[t]


def declared(cfg, path=()):
    """(attribute path, field, value) of every ``param``-declared field of
    ``cfg`` and of the configs nested in it, in declaration order."""
    for f in fields(cfg):
        if is_dataclass(value := getattr(cfg, f.name)):
            yield from declared(value, path + (f.name,))
        elif f.metadata:
            yield path + (f.name,), f, value


def ini_table(cfg) -> dict:
    """(section, key) -> (attribute path, tuple index or None, converter) of
    every declared field; the converter is the declaration's ``conv`` or its type's."""
    table = {}
    for path, f, _ in declared(cfg):
        m, kind = f.metadata, _kind(f)
        keys, conv = m["keys"] or (f.name,), m["conv"] or (_to_bool if kind is bool else kind)
        for i, key in enumerate(keys):
            table[m["section"], key] = (path, i if len(keys) > 1 else None, conv)
    return table


def fault(f, x) -> str | None:
    """Why ``x``, a value of the declared field ``f`` (an entry, for a tuple
    field), is invalid, or None: not of its type (an int field takes any
    integral number but a bool, a float field any real one but a bool, only
    a ``| None`` field None), outside a bound (NaN is), not finite (nor is
    an int beyond the float range) or not one of its choices."""
    m, kind = f.metadata, _kind(f)
    if x is None and "None" in str(f.type):
        return None
    if (isinstance(x, bool) is not (kind is bool)
            or not isinstance(x, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))):
        return f"must be {'an integer' if kind is int else 'a ' + kind.__name__} (got {x!r})"
    for op, limit in m["bounds"]:
        if not _TESTS[op](x, limit):
            return f"must be {op} {limit} (got {x})"
    # NaN, inf or a huge int; float() keeps a numpy float32 from overflowing here
    if m["finite"] and not abs(x if isinstance(x, int) else float(x)) <= sys.float_info.max:
        return f"must be finite (got {x})"
    if m["choices"] and x not in m["choices"]:
        return f"must be one of {m['choices']} (got {x!r})"


_TESTS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def check(cfg) -> None:
    """Raise ValueError naming the first declared field of ``cfg`` or of a
    config nested in it, and the field's INI key, whose value ``fault``
    rejects; a tuple field holds one entry per key, judged under it."""
    for path, f, v in declared(cfg):
        m, keys = f.metadata, f.metadata["keys"] or (f.name,)
        entries = v if len(keys) > 1 else (v,)
        if not (isinstance(entries, tuple) and len(entries) == len(keys)):
            raise ValueError(f"{'.'.join(path)} must be a tuple ({', '.join(keys)}) (got {v!r})")
        for key, x in zip(keys, entries):
            if why := fault(f, x):
                label = f" ([{m['section']}] {key})" if key != f.name else ""
                raise ValueError(f"{'.'.join(path)}{label} {why}")


def hash_items(cfg) -> list[tuple[str, str]]:
    """(name, text) of the hashed fields of ``cfg`` in declaration order (a
    string or bool as it is, a number as the repr of it converted to its
    declared type: 20, 20.0 and ``np.int64(20)`` hash alike), then the
    items of each nested config, named ``name.field`` and sorted with the
    (name, text) pairs in its class attribute ``retired``: the fields it no
    longer has, so that deleting a field moves no hash."""
    owners: dict[tuple, list] = {}   # a config's attribute path -> its items
    for path, f, v in declared(cfg):
        if f.metadata["hashed"]:
            if v is not None and (kind := _kind(f)) in (float, int):
                v = tuple(map(kind, v)) if isinstance(v, tuple) else kind(v)
            owners.setdefault(path[:-1], []).append(
                (".".join(path), v if isinstance(v, str) else repr(v)))
    top = owners.pop((), [])
    return top + [item for owner, items in owners.items() for item in sorted(items + [
        (".".join(owner + (name,)), text)
        for name, text in getattr(reduce(getattr, owner, cfg), "retired", ())])]
