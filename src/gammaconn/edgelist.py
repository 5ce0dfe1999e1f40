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

    Each line is checked in this order: one line too many, token count,
    integer tokens (Python int() syntax), range, self-loop, duplicate in
    either orientation. A document in the writer's own format (ASCII,
    every line "digits SP digits LF") is read by one numpy call and goes
    straight to from_edge_list when 1 <= n <= MAX_VERTICES and it holds
    exactly 2m + 2 integers. Other documents have their tokens counted per
    line and go straight to from_edge_list when they hold m edge lines of
    two integer tokens each. A document neither path accepts is read one
    line at a time, header first, then the edge lines in file order, up to
    its first bad line.
    """
    if text.isascii() and text.endswith("\n"):
        data = text.encode("ascii")
        seps = data.translate(None, b"0123456789")
        if seps == b" \n" * (len(seps) // 2):
            vals = np.fromstring(data, dtype=np.int64, sep=" ")
            if len(vals) == len(seps):  # two integers a line: no digit run is empty
                return _parse_writer_format(text, vals)

    raw_lines = text.splitlines()
    lines = [raw.split("#", 1)[0] for raw in raw_lines] if "#" in text else raw_lines
    # token counts only: keeping every line's token list alive costs more than the split
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
    filled = counts.nonzero()[0]
    if not len(filled):
        raise EdgeListParseError(1, "empty document (missing 'n m' header)")
    head = int(filled[0])
    n, m = _parse_header(head + 1, raw_lines[head], lines[head].split())
    rows = filled[1:]  # line index of each edge line, in file order
    if len(rows) == m and not np.count_nonzero(counts[rows] != 2):
        try:
            # tokens stays alive until from_edge_list returns: freeing it
            # first raised peak RSS by 1.8 MB on a 10,000-edge document
            tokens = "\n".join(lines[head + 1:]).split()
            values = list(map(int, tokens))
            return from_edge_list(n, np.array(values, dtype=np.int64).reshape(-1, 2))
        except (ValueError, OverflowError, VertexOutOfRange, SelfLoop, DuplicateEdge):
            pass
    _raise_first_bad_line(raw_lines, lines, rows.tolist(), n, m)


def _parse_writer_format(text, vals):
    """parse_edge_list of a document whose every line is "digits SP digits LF".

    vals are its integers. fromstring clamps a token past int64 to
    2^63 - 1, which no range check accepts, so every refusal goes to the
    line loop, which reads Python ints.
    """
    n, m = int(vals[0]), int(vals[1])
    if 1 <= n <= MAX_VERTICES and len(vals) == 2 * m + 2:
        try:
            return from_edge_list(n, vals[2:])
        except (VertexOutOfRange, SelfLoop, DuplicateEdge):
            pass
    raw_lines = text.splitlines()
    n, m = _parse_header(1, raw_lines[0], raw_lines[0].split())
    _raise_first_bad_line(raw_lines, raw_lines, range(1, len(raw_lines)), n, m)


def _raise_first_bad_line(raw_lines, lines, rows, n, m):
    """Raise EdgeListParseError for the first bad edge line among rows (indices, in file order).

    lines are raw_lines with comments removed; when every edge line passes,
    the fault is the edge count, named at the document's last line.
    """
    seen = set()
    for row in rows:
        raw, tokens = raw_lines[row], lines[row].split()
        if len(seen) == m:
            raise EdgeListParseError(row + 1, "more edge lines than the header declared")
        if len(tokens) != 2:
            raise EdgeListParseError(row + 1, f"expected edge 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(row + 1, f"non-integer edge {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(row + 1, f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise EdgeListParseError(row + 1, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(row + 1, f"duplicate edge {key}")
        seen.add(key)
    raise EdgeListParseError(len(raw_lines),
                             f"header declared {m} edges but {len(seen)} were given")


def _parse_header(line_no, raw, tokens):
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
    return n, m


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    return f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % tuple(g.edges.ravel().tolist())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
