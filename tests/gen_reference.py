"""Float reference for the generators' triangular pair-code decode.

``reference_decode_tri`` is the decode ``graphs._graph_from_tri_codes`` and
the cross-class filter ran before ``graphs._decode_sorted_tri`` replaced
it: a float ``sqrt`` estimate of each code's block, repaired by integer
correction sweeps. It takes codes in any order. It is kept as the oracle
the exact decode is checked against; it is not imported by the package.

It is exact while the float error stays under two blocks. For the last
codes of n of about 4e8 or more, ``(2n-1)**2`` loses too many bits in
float64 and the sweeps no longer reach the right block, so tests there
check the exact decode by re-encoding instead.
"""

from __future__ import annotations

import numpy as np


def reference_decode_tri(n: int, codes: np.ndarray, ub: np.ndarray, vb: np.ndarray) -> None:
    """Decode triangular pair codes into endpoints, in place.

    Code k enumerates the pairs (u, v), u < v, in ascending lexicographic
    order; block u starts at offset(u) = u*(2n-1-u)/2. The float estimate of
    u is repaired by integer correction sweeps.
    """
    c = codes.shape[0]
    if c == 0:
        return
    f = np.multiply(codes, -8.0)
    np.add(f, float(2 * n - 1) ** 2, out=f)
    np.sqrt(f, out=f)
    np.subtract(float(2 * n - 1), f, out=f)
    np.multiply(f, 0.5, out=f)
    np.copyto(ub, f, casting="unsafe")
    np.clip(ub, 0, max(n - 2, 0), out=ub)
    off = np.empty(c, np.int64)
    mask = np.empty(c, bool)

    def offsets_of(src: np.ndarray) -> None:
        np.subtract(2 * n - 1, src, out=off)
        np.multiply(off, src, out=off)
        np.floor_divide(off, 2, out=off)

    for _ in range(2):  # two sweeps repair a float error below two blocks
        offsets_of(ub)
        np.greater(off, codes, out=mask)
        np.subtract(ub, mask, out=ub)
    t = np.empty(c, np.int64)
    for _ in range(2):
        np.add(ub, 1, out=t)
        offsets_of(t)
        np.less_equal(off, codes, out=mask)
        np.add(ub, mask, out=ub)
    offsets_of(ub)
    np.subtract(codes, off, out=vb)
    np.add(vb, ub, out=vb)
    np.add(vb, 1, out=vb)
