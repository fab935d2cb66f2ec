"""Duplication and coduplication operators on layer patterns.

``duplicate_v(X, i, "D")`` expands coordinate i of every string into a
pair at positions i and i+1: a 0 becomes 00 and a 1 becomes both 01 and
10.  Coduplication ("D'") is the 0/1-swapped variant: 1 -> 11 and
0 -> {01, 10}.  These mirror edge duplication and edge subdivision on the
underlying graph (with the duplicated pair landing at edge positions i
and i+1), which is the contract the property tests pin down.

On starred strings the star expands to a star-and-constant pair.  The
only convention consistent with the graph operations is that duplication
pads the star with 0 ({s0*, s*0} from s*) and coduplication pads it with
1 ({s1*, s*1}); note the coduplication pad is a 1, not a second star or a
mirrored copy, a point easy to get wrong when transcribing the displayed
set definitions.

Both operators work on the patterns' masks (bit j = coordinate j) by
shift-and-insert: the bits above i move up one place, and the pair's two
bits are written at i and i+1.  An edge's star moves up with them when it
lies above i.
"""

from __future__ import annotations

from .patterns import EdgePattern, VertexPattern

__all__ = ["duplicate_v", "duplicate_e", "DUP", "CODUP"]

DUP = "D"
CODUP = "D'"


def _check(kind: str, i: int, width: int) -> None:
    if kind not in (DUP, CODUP):
        raise ValueError(f"kind must be {DUP!r} or {CODUP!r}")
    if not (0 <= i < width):
        raise ValueError(f"coordinate {i} out of range for width {width}")


def duplicate_v(x: VertexPattern, i: int, kind: str) -> VertexPattern:
    """Expand coordinate i of a vertex pattern; result in L(a+1, b) for
    duplication, L(a, b+1) for coduplication."""
    _check(kind, i, x.a + x.b)
    double = 0 if kind == DUP else 1
    low = (1 << i) - 1
    masks = []
    for m in x.masks:
        base = m & low | m >> (i + 1) << (i + 2)
        if m >> i & 1 == double:
            masks.append(base | double * 3 << i)
        else:
            masks += (base | 1 << i, base | 2 << i)
    if kind == DUP:
        return VertexPattern.from_masks(x.a + 1, x.b, masks)
    return VertexPattern.from_masks(x.a, x.b + 1, masks)


def duplicate_e(y: EdgePattern, i: int, kind: str) -> EdgePattern:
    """Expand coordinate i of an edge pattern.  The star always splits
    into {pad+*, *+pad} where pad is 0 for duplication and 1 for
    coduplication; 0/1 behave as in ``duplicate_v``."""
    _check(kind, i, y.a + y.b + 1)
    pad = 0 if kind == DUP else 1
    low = (1 << i) - 1
    pairs = []
    for lower, star in y.pairs:
        base = lower & low | lower >> (i + 1) << (i + 2)
        if star == i:
            pairs += ((base | pad << (i + 1), i), (base | pad << i, i + 1))
        else:
            moved = star if star < i else star + 1
            if lower >> i & 1 == pad:
                pairs.append((base | pad * 3 << i, moved))
            else:
                pairs += ((base | 1 << i, moved), (base | 2 << i, moved))
    if kind == DUP:
        return EdgePattern.from_pairs(y.a + 1, y.b, pairs)
    return EdgePattern.from_pairs(y.a, y.b + 1, pairs)
