"""Result emission: versioned JSON payloads, CSV sweep tables, text tables.

JSON payloads carry ``schema: 1`` and a ``generated_at`` timestamp; the
timestamp is the one field excluded from the byte-determinism contract
(identical config and seed must otherwise produce identical output).
Floats are serialized at full round-trip precision (up to 17 significant
digits); exact rationals appear as "p/q" strings next to a float rendering,
which is null for a value past the float range (``float_or_none``).
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import json
import os
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

SCHEMA_VERSION = 1

OUTPUT_DIR_ENV = "CLUSTERKIT_OUT"


def output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def float_or_none(value) -> Optional[float]:
    """The float rendering of an exact value, None past the float range."""
    try:
        return float(value)
    except OverflowError:
        return None


def rational_fields(value: Fraction) -> dict:
    """Render an exact rational as numerator/denominator string plus float."""
    return {"rational": f"{value.numerator}/{value.denominator}",
            "value": float_or_none(value)}


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return rational_fields(obj)
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and obj != obj:  # NaN is not valid JSON
        return None
    return obj


def json_payload(kind: str, data: Mapping) -> dict:
    payload = {"schema": SCHEMA_VERSION, "kind": kind,
               "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat()}
    payload.update(_jsonable(data))
    return payload


def dump_json(payload: Mapping) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def dump_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def render_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [list(map(str, header))] + [[_fmt_cell(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)
