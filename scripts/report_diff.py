#!/usr/bin/env python3
"""Compare two ``tklab suite --out`` reports, timings left out.

    python3 scripts/report_diff.py OLD.json NEW.json

Every ``seconds`` key is dropped.  Scenarios are matched by name and checks
by name; other lists by position.  Each float that moved is grouped under
its key, the path with the scenario and the list positions left out, and
the script prints one line per such key: how many values moved and the
largest relative move |new - old| / max(|old|, |new|), with the scenario
where it happened.  Any other difference (a verdict, a dimension, a count,
a key or list entry present in one report only) is printed in full, and
the script then exits 1; with floats alone moving it exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: lists whose entries are matched by this key instead of by position
NAMED = {"scenarios": "scenario", "checks": "name"}


def flatten(value, path: tuple = (), out: dict | None = None) -> dict:
    """The leaves of a report as {path: value}, without ``seconds``; a list
    entry is a 1-tuple on the path."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            if key != "seconds":
                flatten(item, path + (key,), out)
    elif isinstance(value, list):
        name = NAMED.get(path[-1]) if path else None
        for index, item in enumerate(value):
            label = item.get(name, index) if name and isinstance(item, dict) else index
            flatten(item, path + ((label,),), out)
    else:
        out[path] = value
    return out


def _is_float(value) -> bool:
    return isinstance(value, float)


def _equal(old, new) -> bool:
    both_nan = _is_float(old) and _is_float(new) and math.isnan(old) and math.isnan(new)
    return both_nan or (type(old) is type(new) and old == new)


def relative_move(old: float, new: float) -> float:
    """|new - old| / max(|old|, |new|); infinite where either is not finite."""
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def _scenario(path: tuple) -> str:
    return str(path[1][0]) if len(path) > 1 and path[0] == "scenarios" else ""


def _key(path: tuple) -> str:
    """The path without the scenario and with list positions as []."""
    parts = []
    for part in path[2:] if _scenario(path) else path:
        if isinstance(part, tuple):
            label = part[0]
            parts.append("[]" if isinstance(label, int) else str(label))
        else:
            parts.append(str(part))
    return ".".join(parts).replace(".[]", "[]")


def _where(path: tuple) -> str:
    return "/".join(str(p[0]) if isinstance(p, tuple) else str(p) for p in path)


def compare(old: dict, new: dict) -> tuple[dict, list[str]]:
    """The float keys that moved, {key: (count, largest move, scenario)}, and
    a line for every other difference."""
    a, b = flatten(old), flatten(new)
    moved: dict[str, tuple[int, float, str]] = {}
    other = []
    for path in sorted(set(a) | set(b), key=_where):
        if path not in a or path not in b:
            side = "NEW" if path in b else "OLD"
            other.append(f"{_where(path)}: only in {side} "
                         f"({json.dumps(b[path] if path in b else a[path])})")
        elif _equal(a[path], b[path]):
            continue
        elif _is_float(a[path]) and _is_float(b[path]):
            count, largest, where = moved.get(_key(path), (0, -1.0, ""))
            move = relative_move(a[path], b[path])
            if move > largest:
                largest, where = move, _scenario(path)
            moved[_key(path)] = (count + 1, largest, where)
        else:
            other.append(f"{_where(path)}: {json.dumps(a[path])} -> {json.dumps(b[path])}")
    return moved, other


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    moved, other = compare(json.loads(args.old.read_text()), json.loads(args.new.read_text()))
    for key, (count, largest, where) in sorted(moved.items()):
        print(f"float {key}: {count} moved, largest relative move {largest:.2e}"
              + (f" ({where})" if where else ""))
    for line in other:
        print(f"other {line}")
    if not moved and not other:
        print("no differences")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main())
