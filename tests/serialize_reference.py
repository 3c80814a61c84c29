"""The per-element canonical JSON serializer, kept as a differential reference.

This is `otkit.cli.canonical_json` as it was before arrays of finite
numbers took one vectorised finiteness test and one ``tolist()``: every
element of an array is converted in Python and every float is checked
with ``np.isfinite``.  It is not used by the package;
``tests/test_cli.py`` fuzzes the package serializer against it.
"""

import json

import numpy as np


def _pyify(obj):
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            return repr(value)
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def canonical_json(payload) -> str:
    return json.dumps(_pyify(payload), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
