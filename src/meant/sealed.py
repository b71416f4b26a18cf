"""The sealed binary envelope chart blobs and checkpoints share.

A sealed file is ``magic + body + CRC32(magic + body)``, the CRC stored
as a little-endian uint32. ``Reader`` walks the body front to back: every
length it reads comes from the file, so every read is bounded by the bytes
left, and bytes left over after the last read are an error.
"""

from __future__ import annotations

import struct
import zlib

from .errors import DatasetFormatError


def seal(magic: bytes, body: bytes) -> bytes:
    head = magic + body
    return head + struct.pack("<I", zlib.crc32(head))


class Reader:
    """Checks a sealed file's magic, then its CRC32; ``what`` names the
    file in every error."""

    def __init__(self, blob: bytes, magic: bytes, what: str):
        self.what = what
        if len(blob) < len(magic) + 4 or blob[:len(magic)] != magic:
            raise DatasetFormatError(f"{what} has bad magic")
        if zlib.crc32(blob[:-4]) != struct.unpack("<I", blob[-4:])[0]:
            raise DatasetFormatError(f"{what} checksum mismatch")
        self.blob = blob
        self.off, self.end = len(magic), len(blob) - 4

    def take(self, n: int) -> bytes:
        if n > self.end - self.off:
            raise DatasetFormatError(f"{self.what} is truncated")
        self.off += n
        return self.blob[self.off - n:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> None:
        if self.off != self.end:
            raise DatasetFormatError(f"{self.what} has {self.end - self.off} "
                                     f"bytes after its last record")
