"""JSON operator files.

Complex entries are stored as ``[re, im]`` pairs in row-major nested arrays,
with full double precision so that save/load round trips are bit exact.
Labels are always explicit; factor order in a file is the order of the
``labels`` list, never positional convention.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import matcore
from .channels import Channel, MemoryChannel
from .matcore import LabeledOperator
from .testers import Tester

KINDS = ("matrix", "choi", "comb", "tester", "channel")


class FormatError(ValueError):
    pass


def _encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _decode_matrix(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{where}: expected a non-empty nested array")
    try:
        m = np.array([[complex(e[0], e[1]) for e in row] for row in data], dtype=complex)
    except (TypeError, IndexError) as exc:
        raise FormatError(f"{where}: entries must be [re, im] pairs") from exc
    except ValueError as exc:  # rows of unequal lengths
        raise FormatError(f"{where}: expected a rectangular matrix") from exc
    if not np.isfinite(m).all():
        raise FormatError(f"{where}: entries must be finite")
    return m


def _labels_dims(doc: dict, where: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    labels = doc.get("labels")
    dims = doc.get("dims")
    if not isinstance(labels, list) or not labels:
        raise FormatError(f"{where}: missing or empty 'labels'")
    if not isinstance(dims, dict):
        raise FormatError(f"{where}: 'dims' must map labels to dimensions")
    out_dims = []
    for l in labels:
        key = str(l)
        if key not in dims:
            raise FormatError(f"{where}: no dimension declared for label {l}")
        out_dims.append(int(dims[key]))
    return tuple(int(l) for l in labels), tuple(out_dims)


def _labeled_from_doc(doc: dict, where: str) -> LabeledOperator:
    labels, dims = _labels_dims(doc, where)
    m = _decode_matrix(doc.get("data"), f"{where}.data")
    side = int(np.prod(dims))
    if m.shape != (side, side):
        raise FormatError(
            f"{where}: matrix side {m.shape[0]} does not match dims product {side}"
        )
    return LabeledOperator(m, labels, dims)


def _require_psd(m: np.ndarray, where: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise FormatError(f"{where}: expected a square matrix, got shape {m.shape}")
    if np.linalg.norm(m - m.conj().T) > 1e-8 * max(1.0, np.linalg.norm(m)):
        raise FormatError(f"{where}: operator is not Hermitian")
    low = float(matcore.eigvalsh(matcore.hermitian_part(m)).min())
    if low < -1e-8 * max(1.0, float(np.abs(m).max())):
        raise FormatError(
            f"{where}: operator has negative eigenvalue {low:.3e}; "
            "this kind requires a positive semidefinite operator"
        )


def _labeled(ops) -> tuple[dict, list]:
    """The ``labels`` and ``dims`` fields of the first operator's spaces, and
    each operator's matrix encoded, read once."""
    first = ops[0]
    spaces = {"labels": list(first.labels),
              "dims": {str(l): d for l, d in zip(first.labels, first.dims)}}
    return spaces, [_encode_matrix(op.matrix) for op in ops]


def to_document(obj, metadata: str | None = None) -> dict:
    tail = {}  # fields after the metadata: a comb's uses
    if isinstance(obj, np.ndarray):
        doc: dict[str, Any] = {"kind": "matrix", "data": _encode_matrix(obj)}
    elif isinstance(obj, LabeledOperator):
        spaces, (data,) = _labeled([obj])
        doc = {"kind": "choi", **spaces, "data": data}
    elif isinstance(obj, MemoryChannel):
        spaces, (data,) = _labeled([obj.choi])
        doc, tail = {"kind": "comb", **spaces, "data": data}, {"uses": obj.uses}
    elif isinstance(obj, Channel):
        doc = {
            "kind": "channel",
            "in_dim": obj.in_dim,
            "out_dim": obj.out_dim,
            "kraus": [_encode_matrix(k) for k in obj.kraus],
        }
    elif isinstance(obj, Tester):
        spaces, data = _labeled(obj.elements + obj.chain)
        n = len(obj.elements)
        doc = {"kind": "tester", "uses": obj.uses, **spaces,
               "elements": data[:n], "chain": data[n:]}
    else:
        raise FormatError(f"cannot serialize object of type {type(obj).__name__}")
    if metadata:
        doc["metadata"] = metadata
    return doc | tail


def from_document(doc: dict, where: str = "document"):
    """The object a document describes; any check it fails, the document's
    own or that of the object built from it, raises :class:`FormatError`
    naming ``where``."""
    try:
        return _decode_document(doc, where)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _decode_document(doc: dict, where: str):
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{where}: 'kind' must be one of {KINDS}, got {kind!r}")
    if kind == "matrix":
        return _decode_matrix(doc.get("data"), f"{where}.data")
    if kind == "choi":
        op = _labeled_from_doc(doc, where)
        _require_psd(op.matrix, where)
        return op
    if kind == "comb":
        if "uses" not in doc:
            raise FormatError(f"{where}: comb requires 'uses'")
        op = _labeled_from_doc(doc, where)
        _require_psd(op.matrix, where)
        return MemoryChannel(op, int(doc["uses"]))
    if kind == "channel":
        for fieldname in ("in_dim", "out_dim", "kraus"):
            if fieldname not in doc:
                raise FormatError(f"{where}: channel requires '{fieldname}'")
        kraus = [
            _decode_matrix(k, f"{where}.kraus[{j}]") for j, k in enumerate(doc["kraus"])
        ]
        return Channel(tuple(kraus), int(doc["in_dim"]), int(doc["out_dim"]))
    # tester
    required = ("uses", "labels", "dims", "elements", "chain")
    missing = [f for f in required if f not in doc]
    if missing:
        raise FormatError(f"{where}: tester requires fields {missing}")
    labels, dims = _labels_dims(doc, where)
    uses = int(doc["uses"])
    elements = []
    for j, e in enumerate(doc["elements"]):
        m = _decode_matrix(e, f"{where}.elements[{j}]")
        _require_psd(m, f"{where}.elements[{j}]")
        elements.append(m)
    chain = [_decode_matrix(x, f"{where}.chain[{j}]") for j, x in enumerate(doc["chain"])]
    return Tester(
        tuple(LabeledOperator(m, labels, dims) for m in elements),
        tuple(LabeledOperator(m, labels[: 2 * n - 1], dims[: 2 * n - 1])
              for n, m in enumerate(chain, start=1)),
        uses,
    )


def save(path, obj, metadata: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(obj, metadata), fh, indent=1)
        fh.write("\n")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    return from_document(doc, where=str(path))
