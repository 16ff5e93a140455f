"""On-disk formats: GSRM binary matrices, raw vectors, instance directories.

The GSRM matrix format is a little-endian header ``magic "GSRM", u32 n,
u32 p, u8 dtype`` (dtype 0 = float64) followed by the row-major payload.
Vectors are raw little-endian float64.  Instances serialize to a
directory holding the design, response, optional ground truth, the
group structure JSON and a metadata JSON.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .data import Instance
from .groups import GroupStructure, group_support

_MAGIC = b"GSRM"
_DTYPE_F64 = 0
_HEADER_BYTES = 13  # magic, u32 n, u32 p, u8 dtype


def write_matrix(path, A) -> None:
    A = np.ascontiguousarray(A, dtype="<f8")
    n, p = A.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIB", n, p, _DTYPE_F64))
        fh.write(A.tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) < _HEADER_BYTES:
            raise ValueError(f"{path}: {len(header)} bytes is shorter than the "
                             f"{_HEADER_BYTES}-byte header")
        magic = header[:4]
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        n, p, dtype = struct.unpack("<IIB", header[4:])
        if dtype != _DTYPE_F64:
            raise ValueError(f"{path}: unsupported dtype code {dtype}")
        payload = fh.read(8 * n * p)
        if len(payload) != 8 * n * p:
            raise ValueError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f8").reshape(n, p).copy()


def write_vector(path, v) -> None:
    np.asarray(v, dtype="<f8").tofile(path)


def read_vector(path, size: int | None = None) -> np.ndarray:
    """The float64 entries of ``path``; with ``size``, there must be that many."""
    raw = Path(path).read_bytes()
    if len(raw) % 8:
        raise ValueError(f"{path}: {len(raw)} bytes is not a whole number of float64 entries")
    if size is not None and len(raw) != 8 * size:
        raise ValueError(f"{path}: {len(raw) // 8} entries, expected {size}")
    return np.frombuffer(raw, dtype="<f8").copy()


def save_instance(directory, inst: Instance) -> Path:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_matrix(d / "A.gsrm", inst.A)
    write_vector(d / "b.f64", inst.b)
    (d / "groups.json").write_text(inst.g.to_json())
    meta = dict(inst.meta)
    meta["seed"] = inst.seed
    if inst.support_true is not None:
        meta["support_true"] = (np.asarray(inst.support_true) + 1).tolist()  # 1-based
    (d / "meta.json").write_text(json.dumps(meta, indent=2))
    if inst.x_true is not None:
        write_vector(d / "x_true.f64", inst.x_true)
    return d


def load_instance(directory) -> Instance:
    d = Path(directory)
    A = read_matrix(d / "A.gsrm")
    n, p = A.shape
    b = read_vector(d / "b.f64", n)
    try:
        g = GroupStructure.from_json((d / "groups.json").read_text())
    except ValueError as exc:
        raise ValueError(f"{d / 'groups.json'}: {exc}") from None
    meta = json.loads((d / "meta.json").read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{d / 'meta.json'}: expected a JSON object, got {type(meta).__name__}")
    seed = meta.pop("seed", None)
    x_true = read_vector(d / "x_true.f64", p) if (d / "x_true.f64").exists() else None
    if "support_true" in meta:
        support = _support_from(meta.pop("support_true"), g.m, d / "meta.json")
    else:
        support = None if x_true is None else group_support(x_true, g)
    return Instance(A=A, b=b, g=g, x_true=x_true, support_true=support, seed=seed, meta=meta)


def _support_from(raw, m: int, path) -> np.ndarray:
    """The sorted 0-based group ids of ``meta.json``'s 1-based ``support_true``."""
    if not (isinstance(raw, list)
            and all(isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= m for i in raw)
            and len(set(raw)) == len(raw)):
        raise ValueError(f"{path}: support_true must be a list of distinct integers in "
                         f"1..{m}, got {raw!r}")
    return np.sort(np.asarray(raw, dtype=np.intp)) - 1


def write_traces_jsonl(path, traces, include_x: bool = True) -> None:
    with open(path, "w") as fh:
        for tr in traces:
            fh.write(json.dumps(tr.to_dict(include_x=include_x)) + "\n")
