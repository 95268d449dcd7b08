"""DSYS model files and frequency-response CSV output.

DSYS is a plain-text format chosen for diffability:

    # optional comments anywhere
    DSYS <n> <m> <p>
    E
    <n rows of n whitespace-separated decimals>
    A
    ...then B (n x m), C (p x n), D (p x m) the same way.

Blocks with zero rows or zero columns carry no data lines. Numbers are
written with ``repr`` (shortest round-tripping decimal), so
parse(write(S)) reproduces S bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .systems import DescriptorSystem

__all__ = [
    "parse_dsys",
    "write_dsys",
    "load_dsys",
    "save_dsys",
    "write_freqresp_csv",
]

_LABELS = ("E", "A", "B", "C", "D")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def parse_dsys(text: str) -> DescriptorSystem:
    """Parse DSYS text into a validated descriptor system."""
    lines = _significant_lines(text)

    def next_line(expect: str):
        try:
            return next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of file, expected {expect}") from None

    lineno, header = next_line("the DSYS header")
    fields = header.split()
    if len(fields) != 4 or fields[0] != "DSYS":
        raise ParseError("expected header 'DSYS <n> <m> <p>'", lineno)
    try:
        n, m, p = (int(f) for f in fields[1:])
    except ValueError:
        raise ParseError("header dimensions must be integers", lineno) from None
    if min(n, m, p) < 0:
        raise ParseError("header dimensions must be nonnegative", lineno)

    shapes = {"E": (n, n), "A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m)}
    blocks = {}
    for label in _LABELS:
        lineno, content = next_line(f"block label {label}")
        if content != label:
            raise ParseError(f"expected block label {label!r}, found {content!r}", lineno)
        # built from the rows read, so a header alone allocates nothing
        rows, cols = shapes[label]
        data = []
        if cols > 0:
            for i in range(rows):
                lineno, content = next_line(f"row {i + 1} of block {label}")
                tokens = content.split()
                if len(tokens) != cols:
                    raise ParseError(
                        f"block {label} row {i + 1} has {len(tokens)} entries, "
                        f"expected {cols}",
                        lineno,
                    )
                try:
                    values = [float(t) for t in tokens]
                except ValueError:
                    raise ParseError(
                        f"block {label} row {i + 1} has a non-numeric entry", lineno
                    ) from None
                if not all(np.isfinite(values)):
                    raise ParseError(
                        f"block {label} row {i + 1} has a non-finite entry", lineno
                    )
                data.append(values)
        blocks[label] = np.array(data, dtype=np.float64).reshape(rows, cols)
    for lineno, content in lines:
        raise ParseError(f"unexpected trailing content {content!r}", lineno)
    return DescriptorSystem(blocks["E"], blocks["A"], blocks["B"], blocks["C"], blocks["D"])


def _format_row(row: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in row)


def write_dsys(s: DescriptorSystem) -> str:
    """Serialize a system to DSYS text (bit-exact round trip)."""
    out = [f"DSYS {s.n} {s.m} {s.p}"]
    for label, mat in zip(_LABELS, (s.e, s.a, s.b, s.c, s.d)):
        out.append(label)
        if mat.shape[1] > 0:
            out.extend(_format_row(row) for row in mat)
    return "\n".join(out) + "\n"


def load_dsys(path) -> DescriptorSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dsys(fh.read())


def save_dsys(path, s: DescriptorSystem) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_dsys(s))


def write_freqresp_csv(omegas, responses) -> str:
    """CSV of sampled frequency responses.

    ``responses`` is a (k, p, m) complex array; columns run column-major
    over the (output, input) entries: re_G_1_1, im_G_1_1, re_G_2_1, ...
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    responses = np.asarray(responses, dtype=complex)
    if responses.ndim != 3 or responses.shape[0] != omegas.shape[0]:
        raise ParseError(
            f"responses must be (k, p, m) matching {omegas.shape[0]} frequencies"
        )
    _, p, m = responses.shape
    header = ["omega"]
    for j in range(1, m + 1):
        for i in range(1, p + 1):
            header.append(f"re_G_{i}_{j}")
            header.append(f"im_G_{i}_{j}")
    rows = [",".join(header)]
    for w, g in zip(omegas, responses):
        cells = [repr(float(w))]
        for j in range(m):
            for i in range(p):
                cells.append(repr(float(g[i, j].real)))
                cells.append(repr(float(g[i, j].imag)))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
