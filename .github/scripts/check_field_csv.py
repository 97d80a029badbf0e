"""Check a solve's field CSV apart from its writer.

Usage: python check_field_csv.py MODEL_JSON GRID FIELD_CSV

The file must be a header, then one CRLF line per node in
``grid.points()`` order, each number its shortest round-trip repr.
"""

import json
import sys

from crossdiff import build_model, make_grid

model = build_model(json.load(open(sys.argv[1])))
grid = make_grid(model.domain, int(sys.argv[2]))
with open(sys.argv[3], newline="") as fh:
    lines = fh.read().split("\r\n")
assert lines.pop() == "" and not any("\r" in line or "\n" in line for line in lines)
assert lines[0] == ",".join(["x", "y"][: grid.ndim] + [f"u_{i + 1}" for i in range(model.m)])
rows = [line.split(",") for line in lines[1:]]
assert len(rows) == grid.n_nodes, len(rows)
points = grid.points().reshape(-1, grid.ndim).tolist()
assert [row[: grid.ndim] for row in rows] == [[repr(x) for x in p] for p in points]
assert all(len(row) == grid.ndim + model.m for row in rows)
assert all(repr(float(s)) == s for row in rows for s in row)
print(f"{len(rows)} field rows: CRLF, header, grid coordinates, round-trip numbers")
