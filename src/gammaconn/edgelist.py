"""The on-disk edge-list format.

Line 1 is "n m"; then exactly m lines "u v" with u < v, sorted
lexicographically, LF endings. Readers additionally accept blank lines and
'#' comments; writers never emit them, so written output is byte-stable.
"""

from __future__ import annotations

from .errors import EdgeListParseError
from .graph import Graph, from_edge_list

MAX_VERTICES = 2 ** 20  # a graph's arrays grow with n whatever m is, so headers are capped


def parse_edge_list(text: str) -> Graph:
    header = None
    pairs = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
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
            header = (n, m)
            continue
        n, m = header
        if len(pairs) == m:
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
        pairs.append(key)
    if header is None:
        raise EdgeListParseError(1, "empty document (missing 'n m' header)")
    if len(pairs) != header[1]:
        raise EdgeListParseError(
            line_no if text else 1,
            f"header declared {header[1]} edges but {len(pairs)} were given")
    return from_edge_list(header[0], pairs)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
