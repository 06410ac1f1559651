"""Config fields declared once: INI keys, converter, bound and hash entry.

Config dataclasses declare their fields with ``param``.  The CLI derives its
INI table from the fields' sections, keys and converters, ``check`` tests
their bounds and ``hash_items`` lists what enters the config hash.  Rules
that tie fields together stay in ``SimConfig.validate``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field, fields, is_dataclass


def param(default=MISSING, section=None, *keys, conv=None, gt=None, ge=None,
          finite=False, hashed=True):
    """A field set by INI ``[section] key`` (its name unless ``keys`` are given;
    two keys fill a tuple's two entries), converted by ``conv`` where the default's
    type does not say how, bounded by ``> gt`` or ``>= ge``, finite if ``finite``
    or bounded."""
    bound = (">", gt) if gt is not None else (">=", ge) if ge is not None else None
    return field(default=default, metadata={
        "section": section, "keys": keys, "conv": conv, "bound": bound,
        "finite": finite or bound is not None, "hashed": hashed})


def from_degrees(raw: str) -> float:
    return math.radians(float(raw))


def auto_or_float(raw: str) -> float | None:
    return None if raw.strip().lower() == "auto" else float(raw)   # None: the default


def check(cfg, prefix: str = "") -> None:
    """Raise ValueError naming the first field of ``cfg`` or of a config
    nested in it (and the field's INI key) that is an int field's
    non-integer, outside its bound or not finite (an int beyond the float
    range is not); each entry of a tuple field is tested under its own
    key.  A bound is tested as ``not (v > low)`` or ``not (v >= low)``, so
    NaN fails it; None passes."""
    for f in fields(cfg):
        v, m = getattr(cfg, f.name), f.metadata
        if is_dataclass(v):
            check(v, f"{prefix}{f.name}.")
        if v is None or not m:
            continue
        for key, x in zip(m["keys"] or (f.name,), v if isinstance(v, tuple) else (v,)):
            label = prefix + f.name + (f" ([{m['section']}] {key})" if key != f.name else "")
            if f.type == "int" and not isinstance(x, numbers.Integral):
                raise ValueError(f"{label} must be an integer (got {x!r})")
            if m["bound"]:
                op, low = m["bound"]
                if not (x > low if op == ">" else x >= low):
                    raise ValueError(f"{label} must be {op} {low} (got {x})")
            if m["finite"] and not _finite(x):
                raise ValueError(f"{label} must be finite (got {x})")


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:   # an int beyond the float range
        return False


def hash_items(cfg, prefix: str = "") -> list[tuple[str, str]]:
    """(name, text) of the hashed scalar fields in declaration order (a
    string as it is, the rest as the repr of the value converted to its
    field's type, int, float or floats: 20, 20.0 and ``np.int64(20)`` hash
    alike), then the items of each nested config, named ``name.field`` and
    sorted.  A nested config's class attribute ``retired`` holds the (name,
    text) pairs of fields it no longer has, sorted in with the rest, so that
    deleting a field moves no hash."""
    top, nested = [], []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if is_dataclass(v):
            nested += sorted(hash_items(v, f"{f.name}.") + [
                (f"{f.name}.{name}", text) for name, text in getattr(v, "retired", ())])
        elif f.metadata["hashed"]:
            if v is not None and "float" in str(f.type):
                v = tuple(map(float, v)) if isinstance(v, tuple) else float(v)
            elif f.type == "int":
                v = int(v)
            top.append((prefix + f.name, v if isinstance(v, str) else repr(v)))
    return top + nested
