"""The one file format for saved arrays, model checkpoints and PCA bases
alike: an npz archive of named arrays plus a ``spec`` entry, the JSON text
of an object holding the format ``version``. The zip layer's CRC-32
refuses changed bytes; each loader adds the checks of its own content."""

import json
from pathlib import Path

import numpy as np

from .errors import ContractViolationError

_ZIP_MAGIC = b"PK\x03\x04"  # the signature of a zip's first local file header


def write(path, spec: dict, arrays: dict) -> None:
    """``arrays``, then ``spec``, to ``path`` as given (an open file, so
    ``np.savez`` adds no ".npz")."""
    text = np.frombuffer(json.dumps(spec).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, spec=text)


def invalid(kind: str, path, problem) -> ContractViolationError:
    """The error that refuses the ``kind`` of file at ``path`` (say
    "checkpoint") for ``problem``."""
    return ContractViolationError(f"invalid {kind} {path}: {problem}")


def read(path, kind: str, version: int) -> tuple[dict, dict]:
    """``(spec, arrays)`` of the archive at ``path``. A missing path raises
    FileNotFoundError; a directory, a file that is not such an archive, of
    another version, or with an array not of finite real numbers raises
    ContractViolationError naming the ``kind`` of file and the path."""
    if Path(path).is_dir():
        raise invalid(kind, path, "is a directory")
    if not Path(path).is_file():
        raise FileNotFoundError(f"{kind} not found: {path}")
    with open(path, "rb") as fh:
        # np.load takes any other file for a pickle and suggests allow_pickle
        if fh.read(4) != _ZIP_MAGIC:
            raise invalid(kind, path, f"not a {kind} (not an npz archive)")
    try:
        with np.load(path) as npz:
            arrays = dict(npz)
        spec = json.loads(bytes(arrays.pop("spec")).decode())
        found = spec.get("version")
    except MemoryError:
        raise
    except Exception as exc:
        # an archive the zip, npy or compression layer cannot read, or one
        # without a readable spec object
        raise invalid(kind, path, f"not a {kind} ({exc!r})") from exc
    if found != version:
        raise invalid(kind, path, f"unsupported version {found!r}, expected {version}")
    for name, arr in arrays.items():
        if arr.dtype.kind not in "iuf":
            raise invalid(kind, path, f"{name} has dtype {arr.dtype}, expected real numbers")
        if not np.all(np.isfinite(arr)):
            raise invalid(kind, path, f"non-finite entries in {name}")
    return spec, arrays
