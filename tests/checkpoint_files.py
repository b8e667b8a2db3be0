"""Byte-level views and edits of checkpoint files, for the tests.

A checkpoint is one text header line, then per tensor the line
``MATRIX <name> <rows> <cols> <f8`` and rows*cols*8 payload bytes. ``blocks``
finds every part of a well-formed file without the reader under test, so a
test can edit the header, a MATRIX line or a payload and know every offset.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Block:
    name: str
    start: int  # offset of the MATRIX line
    payload: int  # offset of the first payload byte
    end: int  # offset just past the payload
    rows: int
    cols: int


def blocks(data: bytes) -> dict[str, Block]:
    """{name: Block} of a well-formed checkpoint, in file order."""
    found = {}
    offset = data.index(b"\n") + 1
    while offset < len(data):
        eol = data.index(b"\n", offset) + 1
        _, name, rows, cols, _ = data[offset:eol].decode().split()
        end = eol + 8 * int(rows) * int(cols)
        found[name] = Block(name, offset, eol, end, int(rows), int(cols))
        offset = end
    return found


def header_end(data: bytes) -> int:
    """The offset just past the header line: the first MATRIX line's offset."""
    return data.index(b"\n") + 1


def rewrite_header(path, edit) -> None:
    """Replace line 1 of path with edit(line 1 as text, no newline); the blocks stay as they are."""
    data = path.read_bytes()
    cut = header_end(data)
    path.write_bytes(edit(data[: cut - 1].decode()).encode() + b"\n" + data[cut:])


def put_value(data: bytes, block: Block, row: int, col: int, value: float) -> tuple[bytes, int]:
    """(data with block's entry (row, col) set to value, the offset of that entry), 0-based."""
    at = block.payload + 8 * (row * block.cols + col)
    return data[:at] + np.array(value, "<f8").tobytes() + data[at + 8 :], at


def text_format(data: bytes) -> bytes:
    """The same checkpoint in the pre-raw text format: rows of %.17g after 4-token MATRIX lines."""
    out = [data[: header_end(data)]]
    for b in blocks(data).values():
        values = np.frombuffer(data[b.payload : b.end], "<f8").reshape(b.rows, b.cols)
        out.append(f"MATRIX {b.name} {b.rows} {b.cols}\n".encode())
        out += [(" ".join(f"{v:.17g}" for v in row) + "\n").encode() for row in values]
    return b"".join(out)
