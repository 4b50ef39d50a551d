"""Compare two outputs of ``tools/solve_digest.py``.

Run it on the digests of two checkouts, the older one first::

    python tools/digest_diff.py old.json new.json

It prints, in order:

- every solve or refit whose support, iterations, ``converged`` or
  ``reason`` changed, by name and with both values, and every one that
  only one digest lists;
- per case and solver (``refits`` for the plain refits), how many
  objectives, params and ``grad_inf`` values changed, and the largest
  change of an objective relative to the old one;
- every call count that moved, with both values.

It exits 0 when the two digests are identical, and 1 otherwise, as
``diff`` does.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

STRUCTURE = ("support", "iterations", "converged", "reason")
VALUES = ("objective", "params", "grad_inf")


def _relative(old, new):
    # |new - old| / |old| of two objectives' reprs
    a, b = float(old), float(new)
    return abs(b - a) / abs(a) if a else math.inf


def compare(old, new):
    """The report's lines for two digests, ``solve_digest.digest``'s dicts;
    no lines when they are identical."""
    lines = []
    moved = defaultdict(lambda: dict.fromkeys(VALUES, 0))
    largest = defaultdict(float)
    for part in ("solves", "refits"):
        a, b = old[part], new[part]
        for name in sorted(a.keys() | b.keys()):
            if name not in a or name not in b:
                lines.append(f"{name}: only in {'new' if name in b else 'old'}")
                continue
            x, y = a[name], b[name]
            lines += [f"{name}: {key} {x[key]} -> {y[key]}"
                      for key in STRUCTURE if key in x and x[key] != y[key]]
            case = name.split("/")[0]
            group = case, name.split("/")[-1] if part == "solves" else part
            for key in VALUES:
                if key in x and x[key] != y[key]:
                    moved[group][key] += 1
            if x["objective"] != y["objective"]:
                largest[group] = max(largest[group], _relative(x["objective"], y["objective"]))
    for (case, solver), counts in sorted(moved.items()):
        changed = ", ".join(f"{n} {key}" for key, n in counts.items() if n)
        lines.append(f"{case}/{solver}: changed {changed}; largest relative objective change "
                     f"{largest[case, solver]:.2g}")
    for case in sorted(old["calls"].keys() | new["calls"].keys()):
        a, b = old["calls"].get(case, {}), new["calls"].get(case, {})
        for solver in sorted(a.keys() | b.keys()):
            x, y = a.get(solver, {}), b.get(solver, {})
            lines += [f"calls {case}/{solver} {key}: {x.get(key)} -> {y.get(key)}"
                      for key in sorted(x.keys() | y.keys()) if x.get(key) != y.get(key)]
    return lines


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/digest_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    lines = compare(old, new)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
