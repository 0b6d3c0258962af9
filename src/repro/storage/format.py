"""The versioned on-disk columnar store format (low level).

One store file holds any number of shredded documents — their columns
and nothing else; the DOM is built from the columns on demand
(:func:`repro.xmldb.shred.unshred`), so there is no second copy of a
document to keep in step::

    magic (8) | format version (u32 LE) | header length (u64 LE)
    | header JSON (UTF-8) | 64-byte-aligned blobs ...

The JSON header carries the format version again (self-describing),
the per-document metadata (URI, doc id, name dictionary, blob
references), and a blob directory mapping each blob name to its
``{offset, nbytes, dtype, crc32}``.  Every numeric column is written
with an explicit little-endian dtype, so a store is byte-identical
across platforms.

Opening a store is **O(1) in the document size**: only the fixed
prefix and the JSON header are read and validated eagerly; the blobs
are returned as ``np.memmap`` slices, so pages fault in lazily and are
shared read-only between every process that maps the same file.
Blob checksums are therefore *not* verified at open (that would touch
every page); :meth:`StoreFile.verify` does the full pass on demand.

All structural validation failures raise
:class:`repro.errors.StorageFormatError` — never a cryptic NumPy or
JSON error.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from repro.errors import StorageFormatError

#: File magic: identifies a repro columnar store.
MAGIC = b"REPROSTO"

#: Current format version.  Readers reject any other version outright;
#: the version is stored both in the fixed prefix (so rejection never
#: needs the JSON parse) and in the header (self-description).
#: Version 1 also embedded each document's serialized XML; since
#: version 2 the columns are the only representation.
FORMAT_VERSION = 2

#: Blob alignment: every blob starts on a 64-byte boundary, so any
#: mapped column is aligned for every NumPy dtype (and for cache
#: lines, which is what makes the zero-copy views cheap to scan).
ALIGNMENT = 64

_PREFIX_BYTES = len(MAGIC) + 4 + 8  # magic + version + header length


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _little_endian(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous little-endian view/copy of *arr*."""
    dt = arr.dtype.newbyteorder("<")
    return np.ascontiguousarray(arr.astype(dt, copy=False))


def write_store(path: str, documents: list[dict]) -> None:
    """Write a store file.

    Each entry of *documents* describes one document::

        {
            "uri": str, "doc_id": int, "n_nodes": int,
            "names": [str, ...],            # name dictionary
            "columns": {blob suffix: np.ndarray, ...},
        }

    Column arrays are coerced to explicit little-endian dtypes; the
    per-document blob names are ``d<i>/<suffix>``.
    """
    blobs: list[tuple[str, bytes, str]] = []  # (name, payload, dtype str)
    doc_metas = []
    for i, doc in enumerate(documents):
        prefix = f"d{i}"
        meta = {key: value for key, value in doc.items()
                if key != "columns"}
        meta["prefix"] = prefix
        meta["columns"] = sorted(doc["columns"])
        doc_metas.append(meta)
        for suffix, column in sorted(doc["columns"].items()):
            arr = _little_endian(column)
            blobs.append((f"{prefix}/{suffix}", arr.tobytes(),
                          arr.dtype.str))

    directory: dict[str, dict] = {}
    header = {
        "format_version": FORMAT_VERSION,
        "alignment": ALIGNMENT,
        "documents": doc_metas,
        "blobs": directory,
    }
    offset = 0
    for name, payload, dtype in blobs:
        offset = _aligned(offset)
        directory[name] = {
            "offset": offset,
            "nbytes": len(payload),
            "dtype": dtype,
            "crc32": zlib.crc32(payload),
        }
        offset += len(payload)

    # The header lists absolute offsets, and its own length decides
    # where the data starts: shift the offsets against that length
    # until their digit counts settle (a few rounds), then pad.
    header_len = data_start = 0
    while True:
        final = json.dumps(header, separators=(",", ":")).encode("utf-8")
        if len(final) <= header_len:
            break
        header_len = len(final) + 1  # newline pad terminator
        delta = _aligned(_PREFIX_BYTES + header_len) - data_start
        data_start += delta
        for entry in directory.values():
            entry["offset"] += delta
    final += b"\n" * (header_len - len(final))

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(FORMAT_VERSION, dtype="<u4").tobytes())
        fh.write(np.array(header_len, dtype="<u8").tobytes())
        fh.write(final)
        pos = _PREFIX_BYTES + header_len
        for name, payload, _dtype in blobs:
            target = directory[name]["offset"]
            fh.write(b"\0" * (target - pos))
            fh.write(payload)
            pos = target + len(payload)
    os.replace(tmp, path)


class StoreFile:
    """A validated, memory-mapped store file.

    Construction reads and checks the fixed prefix and the JSON header
    (O(1) in document size) and maps the file once; :meth:`column`
    hands out zero-copy views of the mapping.
    """

    def __init__(self, path: str):
        self.path = str(path)
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            raise StorageFormatError(
                f"cannot open store {self.path!r}: {exc}") from None
        if size < _PREFIX_BYTES:
            raise StorageFormatError(
                f"store {self.path!r} is truncated: {size} bytes is "
                f"smaller than the {_PREFIX_BYTES}-byte prefix")
        with open(self.path, "rb") as fh:
            prefix = fh.read(_PREFIX_BYTES)
            magic = prefix[:len(MAGIC)]
            if magic != MAGIC:
                raise StorageFormatError(
                    f"{self.path!r} is not a repro store "
                    f"(bad magic {magic!r})")
            self._check_version(int(np.frombuffer(
                prefix, dtype="<u4", count=1, offset=len(MAGIC))[0]))
            header_len = int(np.frombuffer(
                prefix, dtype="<u8", count=1, offset=len(MAGIC) + 4)[0])
            if _PREFIX_BYTES + header_len > size:
                raise StorageFormatError(
                    f"store {self.path!r} is truncated: header claims "
                    f"{header_len} bytes but the file has only "
                    f"{size - _PREFIX_BYTES} after the prefix")
            raw = fh.read(header_len)
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageFormatError(
                f"store {self.path!r} has a corrupt header: {exc}"
            ) from None
        if not isinstance(header, dict) or \
                not isinstance(header.get("blobs"), dict) or \
                not isinstance(header.get("documents"), list):
            raise StorageFormatError(
                f"store {self.path!r} has a malformed header")
        self._check_version(header.get("format_version"))
        for name, entry in header["blobs"].items():
            try:
                end = entry["offset"] + entry["nbytes"]
            except (TypeError, KeyError):
                raise StorageFormatError(
                    f"store {self.path!r}: malformed directory entry "
                    f"for blob {name!r}") from None
            if entry["offset"] < 0 or end > size:
                raise StorageFormatError(
                    f"store {self.path!r} is truncated: blob {name!r} "
                    f"extends to byte {end} of a {size}-byte file")
        self.header = header
        self.file_size = size
        self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")

    def _check_version(self, version: object) -> None:
        if version != FORMAT_VERSION:
            raise StorageFormatError(
                f"store {self.path!r} has format version {version}; "
                f"this reader supports only version {FORMAT_VERSION}")

    def _entry(self, name: str) -> dict:
        try:
            return self.header["blobs"][name]
        except KeyError:
            raise StorageFormatError(
                f"store {self.path!r} has no blob {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        """A zero-copy read-only mapped view of a numeric column."""
        entry = self._entry(name)
        raw = self._mm[entry["offset"]:entry["offset"] + entry["nbytes"]]
        try:
            return raw.view(np.dtype(entry["dtype"]))
        except (TypeError, ValueError) as exc:
            raise StorageFormatError(
                f"store {self.path!r}: blob {name!r} cannot be viewed "
                f"as {entry['dtype']!r}: {exc}") from None

    def verify(self) -> None:
        """Full checksum pass over every blob (touches every page).

        :raises StorageFormatError: on the first CRC mismatch.
        """
        for name, entry in sorted(self.header["blobs"].items()):
            payload = self._mm[entry["offset"]:
                               entry["offset"] + entry["nbytes"]]
            crc = zlib.crc32(payload.tobytes())
            if crc != entry["crc32"]:
                raise StorageFormatError(
                    f"store {self.path!r}: blob {name!r} fails its "
                    f"checksum (stored {entry['crc32']}, computed {crc})")
