"""Deterministic file emission: fixed column orders, 17 significant
digits for every float, byte-identical output for identical inputs."""

import contextlib
import json
import math
import sys

import numpy as np


def fmt17(x):
    if x is None:
        return ""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return float(fmt17(obj)) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_round_floats(v) for v in obj]
    return obj


def json_dumps(obj, indent=None):
    return json.dumps(_round_floats(obj), indent=indent, allow_nan=True)


def open_out(path):
    """'-' writes to stdout (left open); anything else is a real file."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def write_csv(path, header, rows):
    with open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt17(v) for v in row) + "\n")


def write_json(path, obj, indent=2):
    with open_out(path) as fh:
        fh.write(json_dumps(obj, indent=indent) + "\n")


def error_record(code, message, witness=None):
    return json_dumps({"code": code, "message": message, "witness": witness})
