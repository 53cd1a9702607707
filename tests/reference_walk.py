"""A reference walk over every labeled graph, the oracle for graphirr's class table.

Bit k of a mask is pair k of the column order (0,1), (0,2), (1,2), (0,3), ...,
so the masks 0 .. 2^C(n,2) - 1 are the labeled n-vertex graphs.  The walk
visits them in ascending order, a block of masks at a time, and takes each
graph's degrees and connectivity straight from its pair bits.  It is written
to be read, not to be fast, and shares no code with graphirr.
"""

import functools

import numpy as np

BLOCK = 1 << 16


def pairs(n):
    """The vertex pairs in mask-bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def block(n, start):
    """The block of masks from start, as (masks, degrees, connected): the
    ascending masks, the (size, n) per-vertex degrees of their graphs and
    whether each graph is connected."""
    masks = np.arange(start, min(start + BLOCK, 1 << len(pairs(n))), dtype=np.int64)
    # one byte per vertex and graph holds its degree and its neighbours, for n <= 8
    degrees = np.zeros((n, len(masks)), np.uint8)
    neighbours = np.zeros((n, len(masks)), np.uint8)
    for k, (i, j) in enumerate(pairs(n)):
        edge = ((masks >> k) & 1).astype(np.uint8)
        degrees[i] += edge
        degrees[j] += edge
        neighbours[i] |= edge << j
        neighbours[j] |= edge << i
    # the vertices reached from vertex 0: n - 1 rounds reach every vertex of
    # its component
    reach = np.ones(len(masks), np.uint8)
    for _ in range(n - 1):
        for v in range(n):
            reach |= np.where((reach >> v) & 1 == 1, neighbours[v], 0)
    return masks, degrees.T, reach == (1 << n) - 1


def walk(n):
    """Every block of masks, in ascending order."""
    for start in range(0, 1 << len(pairs(n)), BLOCK):
        yield block(n, start)


@functools.cache
def class_table(n, kept=lambda degrees: False):
    """The number of connected labeled graphs per non-increasing degree tuple,
    and the ascending masks of every class that ``kept`` accepts."""
    place = n ** np.arange(n - 1, -1, -1)
    counts, masks = {}, {}
    for block, degrees, connected in walk(n):
        # each sorted degree row read as one base-n number
        keys = np.sort(degrees[connected], axis=1)[:, ::-1] @ place
        classes, inverse, tally = np.unique(keys, return_inverse=True, return_counts=True)
        for index, (key, count) in enumerate(zip(classes.tolist(), tally.tolist())):
            row = tuple(key // n ** k % n for k in range(n - 1, -1, -1))
            counts[row] = counts.get(row, 0) + count
            if kept(row):
                masks.setdefault(row, []).extend(block[connected][inverse == index].tolist())
    return counts, masks
