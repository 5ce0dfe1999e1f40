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
    either orientation. The checks run on whole arrays, and the error
    raised is the one a line-by-line reader would meet first. A document
    whose lines all hold two integers goes straight to from_edge_list,
    whose own array checks refuse any range, self-loop or duplicate fault;
    only then do the masks here run, to find the line at fault.
    """
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

    # rows[:stop] have passed every check so far; fault is what stops rows[stop]
    stop = min(len(rows), m)
    fault = "more edge lines than the header declared" if len(rows) > m else None
    wrong = (counts[rows[:stop]] != 2).nonzero()[0]
    if len(wrong):
        stop = int(wrong[0])
        fault = f"expected edge 'u v', got {raw_lines[rows[stop]]!r}"
    tokens = "\n".join(lines[head + 1:rows[stop - 1] + 1]).split() if stop else []
    try:
        values = list(map(int, tokens))
    except ValueError:
        stop = next(j for j, tok in enumerate(tokens) if not _is_int(tok)) // 2
        fault = f"non-integer edge {raw_lines[rows[stop]]!r}"
        values = list(map(int, tokens[:2 * stop]))
    if fault is None and stop == m:
        try:
            return from_edge_list(n, np.array(values, dtype=np.int64).reshape(-1, 2))
        except (OverflowError, VertexOutOfRange, SelfLoop, DuplicateEdge):
            pass

    # a rejected document: -1 marks every id outside [0, n), int64 or not
    arr = np.array([v if 0 <= v < n else -1 for v in values], dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    bad = (lo < 0).nonzero()[0]
    if len(bad):
        stop = int(bad[0])
        u, v = values[2 * stop:2 * stop + 2]
        fault = f"edge ({u}, {v}) outside [0, {n})"
    loops = (lo[:stop] == hi[:stop]).nonzero()[0]
    if len(loops):
        stop = int(loops[0])
        fault = f"self-loop at vertex {values[2 * stop]}"
    keys = lo[:stop] * n + hi[:stop]
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]  # later rows of each repeated key
    if len(repeats):
        stop = int(repeats.min())
        fault = f"duplicate edge {(int(lo[stop]), int(hi[stop]))}"
    if fault is None:
        raise EdgeListParseError(len(raw_lines),
                                 f"header declared {m} edges but {stop} were given")
    raise EdgeListParseError(int(rows[stop]) + 1, fault)


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


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    return f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % tuple(g.edges.ravel().tolist())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
