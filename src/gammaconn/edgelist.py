"""The on-disk edge-list format.

Line 1 is "n m"; then exactly m lines "u v" with u < v, sorted
lexicographically, LF endings. Readers additionally accept blank lines,
'#' comments, any whitespace and line break, and edges in either
orientation and any order; writers never emit them, so written output is
byte-stable.
"""

from __future__ import annotations

import numpy as np

from .errors import DuplicateEdge, EdgeListParseError, SelfLoop, VertexOutOfRange
from .graph import Graph, from_edge_list

MAX_VERTICES = 2 ** 20  # a graph's arrays grow with n whatever m is, so headers are capped


def parse_edge_list(text: str) -> Graph:
    """Graph of an edge-list document; EdgeListParseError names the first bad line.

    The header is the first line with tokens once '#' comments are cut.
    Each edge line is checked in this order: one line too many, token
    count, integer tokens (Python int() syntax), range, self-loop,
    duplicate in either orientation; when every edge line passes but
    their count is not m, the error names the document's last line.

    A document in the writer's own format (ASCII, every line "digits SP
    digits LF") is read by one numpy call and goes straight to
    from_edge_list when 1 <= n <= MAX_VERTICES and it holds exactly
    2m + 2 integers. fromstring clamps a token past int64 to 2^63 - 1,
    which no range check accepts. Every other document, and every one
    that path refuses, is read one line at a time by _parse_lines.
    """
    if text.isascii() and text.endswith("\n"):
        data = text.encode("ascii")
        seps = data.translate(None, b"0123456789")
        if seps == b" \n" * (len(seps) // 2):
            vals = np.fromstring(data, dtype=np.int64, sep=" ")
            if len(vals) == len(seps):  # two integers a line: no digit run is empty
                n, m = int(vals[0]), int(vals[1])
                if 1 <= n <= MAX_VERTICES and len(vals) == 2 * m + 2:
                    try:
                        return from_edge_list(n, vals[2:])
                    except (VertexOutOfRange, SelfLoop, DuplicateEdge):
                        pass
    return _parse_lines(text)


def _parse_lines(text):
    """parse_edge_list one line at a time: the graph, or an error at the first bad line."""
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            break
    else:
        raise EdgeListParseError(1, "empty document (missing 'n m' header)")
    if len(tokens) != 2:
        raise EdgeListParseError(line_no, f"expected header 'n m', got {raw!r}")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise EdgeListParseError(line_no, f"non-integer header {raw!r}") from None
    if n < 1 or m < 0:
        raise EdgeListParseError(line_no, f"invalid header values n={n} m={m}")
    if n > MAX_VERTICES or m > n * (n - 1) // 2:
        raise EdgeListParseError(line_no, f"header values n={n} m={m} exceed the caps"
                                 f" n <= {MAX_VERTICES}, m <= n(n-1)/2")
    seen = set()
    pairs = []
    for line_no, raw in lines:
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(seen) == m:
            raise EdgeListParseError(line_no, "more edge lines than the header declared")
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected edge 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer edge {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(line_no, f"duplicate edge {key}")
        seen.add(key)
        pairs += key
    if len(seen) != m:
        raise EdgeListParseError(line_no, f"header declared {m} edges but {len(seen)} were given")
    return from_edge_list(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def read_edge_list(path) -> Graph:
    """parse_edge_list of a UTF-8 file; a byte that is not UTF-8 is named by its line.

    A leading byte-order mark, as some editors write, is dropped after
    decoding, so offsets in the error still count from the file's first byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; the appended character stands for
        # the bad byte, so a line break just before it starts a new line
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise EdgeListParseError(line_no, f"not UTF-8 text: byte 0x{data[exc.start]:02x}"
                                 f" at offset {exc.start}") from None
    return parse_edge_list(text.removeprefix("\ufeff"))


def format_edge_list(g: Graph) -> str:
    return f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % tuple(g.edges.ravel().tolist())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
