"""Atomic result emission: CSV series, JSON summaries, binary snapshots.

All writers go through a temp-file-plus-rename so a crashed run never
leaves a truncated artifact.  Floats are rendered with 17 significant
digits in both CSV and JSON, which round-trips IEEE doubles exactly;
identical inputs therefore produce byte-identical files.

Snapshot layout (little-endian): int32 nx, int32 ny, float64 lx,
int32 flags, then nx*ny float64 payload in row-major order.
"""

import json
import os
import struct
import tempfile

import numpy as np

SNAPSHOT_HEADER = struct.Struct("<iidi")


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(payload)
        # mkstemp's 0600 would survive the rename; take a plain open's mode
        # (the umask is read by setting it, for an instant to the tightest)
        mask = os.umask(0o077)
        os.umask(mask)
        os.chmod(temp_path, 0o666 & ~mask)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def atomic_write_text(path: str, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def format_float(value) -> str:
    return format(float(value), ".17g")


def write_csv(path: str, header, columns) -> None:
    """Write named columns of equal length as CSV with exact floats."""
    columns = [np.asarray(col) for col in columns]
    length = columns[0].shape[0] if columns else 0
    if any(col.shape[0] != length for col in columns):
        raise ValueError("CSV columns must share one length")
    lines = [",".join(header)]
    for i in range(length):
        lines.append(",".join(format_float(col[i]) for col in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _json_default(value):
    if isinstance(value, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


def json_text(payload: dict) -> str:
    """Sorted, indented JSON of a report; numpy values as plain ones."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default)


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json_text(payload) + "\n")


def write_snapshot(path: str, values: np.ndarray, lx: float,
                   flags: int = 0) -> None:
    """Serialize a real 2D grid with its horizontal period and flag word."""
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.ndim != 2:
        raise ValueError("snapshot payload must be a 2D array")
    nx, ny = values.shape
    header = SNAPSHOT_HEADER.pack(nx, ny, float(lx), int(flags))
    _atomic_write_bytes(path, header + values.tobytes(order="C"))


def sigma_label(sigma: float) -> str:
    """Column label of a monitored Sobolev level: L2, H1, H1.5, ..."""
    if sigma == 0.0:
        return "L2"
    return f"H{sigma:g}"


def trajectory_columns(trajectory):
    """Series header and columns: t, one norm per level, weighted, f_norm."""
    header = ["t"]
    columns = [np.asarray(trajectory.times)]
    for sigma in sorted(trajectory.norms):
        header.append(f"norm_{sigma_label(sigma)}")
        columns.append(np.asarray(trajectory.norms[sigma]))
    if trajectory.weighted is not None:
        header.append("weighted")
        columns.append(np.asarray(trajectory.weighted))
    header.append("f_norm")
    columns.append(np.asarray(trajectory.f_norms))
    return header, columns


def write_series(path: str, trajectory) -> None:
    header, columns = trajectory_columns(trajectory)
    write_csv(path, header, columns)
