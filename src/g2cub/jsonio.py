"""Deterministic JSON writing with fixed float formatting.

Floats are written with 17 significant digits so binary64 values
round-trip and identical inputs produce byte-identical files."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str, in C


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {_quote(str(key))}: {dumps(value, indent + 2).lstrip()}'
            for key, value in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return pad + "[" + ", ".join(_scalar(v) for v in obj) + "]"
        items = ",\n".join(dumps(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    return pad + _scalar(obj)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    return _quote(str(v))
