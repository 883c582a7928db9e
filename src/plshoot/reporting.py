"""Deterministic file emission: fixed column orders, floats that read
back bit for bit, byte-identical output for identical inputs."""

import contextlib
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError


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


def _plain(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    return obj


def json_dumps(obj, indent=None):
    return json.dumps(_plain(obj), indent=indent, allow_nan=True)


def open_out(path, mode="w"):
    """'-' writes to stdout (left open); an unopenable file is a ConfigError."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def check_out(*paths):
    """Raise now the ConfigError that writing any of the paths (None is
    no output) would raise later, so a command fails before its work.
    Leaves every file as it was: an existing one is opened for append
    and not written, a new one is removed again."""
    for path in paths:
        if path is None or path == "-":
            continue
        existed = os.path.lexists(path)
        open_out(path, "a").close()
        if not existed:
            os.remove(path)


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
