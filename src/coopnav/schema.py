"""Config fields declared once: what a key is and which values it accepts.

Run and sweep configs declare their fields with ``param``: INI section and
key, converter (the declared type's unless one is named), bounds, choices
and hash entry.  ``ini_table``, ``check`` and ``hash_items`` derive the INI
table, the value checks and the hash items from them.  Rules that tie
fields together stay in ``SimConfig.validate``.
"""

from __future__ import annotations

import configparser
import math
import numbers
import operator
import sys
from dataclasses import MISSING, field, fields, is_dataclass


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


def ini_table(cfg, path=()) -> dict:
    """(section, key) -> (attribute path, tuple index or None, converter) of
    every field of ``cfg`` and of the configs nested in it that declares INI
    keys; the converter is the declaration's ``conv`` or its type's."""
    table = {}
    for f in fields(cfg):
        value, m = getattr(cfg, f.name), f.metadata
        if is_dataclass(value):
            table.update(ini_table(value, path + (f.name,)))
        elif m:
            keys, kind = m["keys"] or (f.name,), _kind(f)
            conv = m["conv"] or (_to_bool if kind is bool else kind)
            for i, key in enumerate(keys):
                table[(m["section"], key)] = (path + (f.name,), i if len(keys) > 1 else None, conv)
    return table


def check(cfg, prefix: str = "") -> None:
    """Raise ValueError naming the first field of ``cfg`` or of a config
    nested in it (and the field's INI key) that is an int field's
    non-integer, outside its bounds, not finite (an int beyond the float
    range is not) or not one of its choices; each entry of a tuple field is
    tested under its own key.  A bound is tested as ``not (v > low)``, ``not
    (v >= low)`` or ``not (v <= high)``, so NaN fails it; None passes."""
    for f in fields(cfg):
        v, m = getattr(cfg, f.name), f.metadata
        if is_dataclass(v):
            check(v, f"{prefix}{f.name}.")
        if v is None or not m:
            continue
        for key, x in zip(m["keys"] or (f.name,), v if isinstance(v, tuple) else (v,)):
            label = prefix + f.name + (f" ([{m['section']}] {key})" if key != f.name else "")
            if _kind(f) is int and not isinstance(x, numbers.Integral):
                raise ValueError(f"{label} must be an integer (got {x!r})")
            for op, limit in m["bounds"]:
                if not _TESTS[op](x, limit):
                    raise ValueError(f"{label} must be {op} {limit} (got {x})")
            if m["finite"] and not abs(x) <= sys.float_info.max:   # NaN, inf or a huge int
                raise ValueError(f"{label} must be finite (got {x})")
            if m["choices"] and x not in m["choices"]:
                raise ValueError(f"{label} must be one of {m['choices']} (got {x!r})")


_TESTS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def hash_items(cfg, prefix: str = "") -> list[tuple[str, str]]:
    """(name, text) of the hashed scalar fields in declaration order (a
    string or bool as it is, a number as the repr of it converted to its
    declared type: 20, 20.0 and ``np.int64(20)`` hash alike), then the
    items of each nested config, named ``name.field`` and sorted with the
    (name, text) pairs in its class attribute ``retired``: the fields it no
    longer has, so that deleting a field moves no hash."""
    top, nested = [], []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if is_dataclass(v):
            nested += sorted(hash_items(v, f"{f.name}.") + [
                (f"{f.name}.{name}", text) for name, text in getattr(v, "retired", ())])
        elif f.metadata["hashed"]:
            kind = _kind(f)
            if v is not None and kind in (float, int):
                v = tuple(map(kind, v)) if isinstance(v, tuple) else kind(v)
            top.append((prefix + f.name, v if isinstance(v, str) else repr(v)))
    return top + nested
