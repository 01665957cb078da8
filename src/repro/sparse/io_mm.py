"""Matrix Market I/O.

Supports the ``matrix coordinate real {general,symmetric}`` and
``matrix coordinate pattern {general,symmetric}`` headers, which cover the
test-matrix collections this paper family draws from (SuiteSparse /
UF collection exports). Pattern matrices get unit values.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Union

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.util.errors import ShapeError


def read_matrix_market(
    path_or_file: Union[str, Path, IO[str]],
) -> tuple[COOMatrix, dict]:
    """Read a Matrix Market coordinate file.

    Returns ``(coo, info)`` where ``info`` carries the header fields
    (``symmetry``, ``field``). Symmetric files are returned with *both*
    triangles populated (expanded), matching the convention of the rest of
    the library's "full matrix" consumers; use :func:`repro.sparse.ops.tril`
    to get the factorization input.
    """
    close = False
    if isinstance(path_or_file, (str, Path)):
        fh = open(path_or_file, "r", encoding="ascii")
        close = True
    else:
        fh = path_or_file
    try:
        header = fh.readline().strip().split()
        if len(header) != 5 or header[0] != "%%MatrixMarket":
            raise ShapeError(f"not a MatrixMarket file (header: {header})")
        _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
        if obj != "matrix" or fmt != "coordinate":
            raise ShapeError(f"unsupported MatrixMarket object/format {obj}/{fmt}")
        if field not in ("real", "integer", "pattern"):
            raise ShapeError(f"unsupported MatrixMarket field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ShapeError(f"unsupported MatrixMarket symmetry {symmetry!r}")

        lineno = 1  # the header line just consumed

        def next_data_line() -> tuple[list[str], int] | None:
            """Next non-blank, non-comment line's tokens and line number, or
            ``None`` at end of file."""
            nonlocal lineno
            while True:
                line = fh.readline()
                lineno += 1
                if not line:
                    return None
                parts = line.split()
                if parts and not parts[0].startswith("%"):
                    return parts, lineno

        def next_entry_line(what: str) -> tuple[list[str], int]:
            """:func:`next_data_line`, raising :class:`ShapeError` naming the
            line where the file ends instead of silently under-filling the
            entry arrays."""
            got = next_data_line()
            if got is None:
                raise ShapeError(
                    f"truncated MatrixMarket file: expected {what} "
                    f"at line {lineno}, got end of file"
                )
            return got

        parts, at = next_entry_line("size line")
        if len(parts) != 3:
            raise ShapeError(
                f"line {at}: size line must have 3 tokens "
                f"(rows cols nnz); got {len(parts)}: {parts}"
            )
        try:
            n_rows, n_cols, nnz = (int(tok) for tok in parts)
        except ValueError:
            raise ShapeError(
                f"line {at}: size line tokens must be integers; got {parts}"
            ) from None
        if min(n_rows, n_cols, nnz) < 0:
            raise ShapeError(f"line {at}: size line values must be non-negative; got {parts}")
        if symmetry == "symmetric" and n_rows != n_cols:
            raise ShapeError(
                f"line {at}: a symmetric matrix must be square; got {n_rows} x {n_cols}"
            )
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        want = 2 if field == "pattern" else 3
        for k in range(nnz):
            parts, at = next_entry_line(f"entry {k + 1} of {nnz}")
            if len(parts) < want:
                raise ShapeError(
                    f"line {at}: coordinate entry needs {want} tokens "
                    f"for field {field!r}; got {len(parts)}: {parts}"
                )
            try:
                rows[k] = int(parts[0]) - 1
                cols[k] = int(parts[1]) - 1
                vals[k] = 1.0 if field == "pattern" else float(parts[2])
            except ValueError:
                raise ShapeError(
                    f"line {at}: malformed coordinate entry {parts}"
                ) from None
        extra = next_data_line()
        if extra is not None:
            raise ShapeError(
                f"line {extra[1]}: more entries than the {nnz} the size line declares: {extra[0]}"
            )
        if symmetry == "symmetric":
            off = rows != cols
            rows = np.concatenate([rows, cols[off]])
            cols = np.concatenate([cols, rows[: nnz][off]])
            vals = np.concatenate([vals, vals[:nnz][off]])
        coo = COOMatrix((n_rows, n_cols), rows, cols, vals)
        return coo, {"symmetry": symmetry, "field": field}
    finally:
        if close:
            fh.close()


def write_matrix_market(
    path_or_file: Union[str, Path, IO[str]],
    coo: COOMatrix,
    symmetric: bool = False,
) -> None:
    """Write *coo* in Matrix Market coordinate real format.

    With ``symmetric=True`` only the lower triangle is emitted and the
    header declares ``symmetric`` (entries above the diagonal are rejected).
    """
    m = coo.sum_duplicates()
    if symmetric and np.any(m.row < m.col):
        raise ShapeError("symmetric write requires a lower-triangular COO")
    close = False
    if isinstance(path_or_file, (str, Path)):
        fh = open(path_or_file, "w", encoding="ascii")
        close = True
    else:
        fh = path_or_file
    try:
        sym = "symmetric" if symmetric else "general"
        fh.write(f"%%MatrixMarket matrix coordinate real {sym}\n")
        fh.write(f"{m.shape[0]} {m.shape[1]} {m.nnz}\n")
        for r, c, v in zip(m.row.tolist(), m.col.tolist(), m.data.tolist()):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")
    finally:
        if close:
            fh.close()

