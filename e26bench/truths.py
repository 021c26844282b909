"""Reference volumes computed apart from the program under test.

Closed forms where they exist, scipy's qhull for convex 2-D and 3-D
bodies, and a plain numpy hit-or-miss estimate (with its standard error)
for the random 6-D polytopes.  None of this calls into ``repro``.
"""

from __future__ import annotations

import math

import numpy as np


def cube_volume(sides) -> float:
    return float(np.prod(sides))


def simplex_volume(dimension: int, scale: float = 1.0) -> float:
    return scale**dimension / math.factorial(dimension)


def cross_polytope_volume(dimension: int, scale: float = 1.0) -> float:
    return (2.0 * scale) ** dimension / math.factorial(dimension)


def irwin_hall_cdf(count: int, total: float) -> float:
    """P(U_1 + ... + U_n <= total) for independent uniforms on [0, 1].

    Equals the volume of ``[0, 1]^n ∩ {Σx <= total}``.
    """
    acc = 0.0
    for k in range(int(math.floor(total)) + 1):
        acc += (-1) ** k * math.comb(count, k) * (total - k) ** count
    return acc / math.factorial(count)


def interior_point(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Chebyshev centre of {a x <= b} by scipy's LP, or None when empty."""
    from scipy.optimize import linprog

    norms = np.linalg.norm(a, axis=1)
    dimension = a.shape[1]
    cost = np.zeros(dimension + 1)
    cost[-1] = -1.0
    solution = linprog(
        cost,
        A_ub=np.hstack([a, norms[:, None]]),
        b_ub=b,
        bounds=[(None, None)] * dimension + [(0, None)],
        method="highs",
    )
    if solution.status != 0 or solution.x[-1] <= 1e-12:
        return None
    return solution.x[:-1]


def convex_vertices(a, b) -> np.ndarray | None:
    """Vertices of the bounded polytope {a x <= b} via qhull (None when empty)."""
    from scipy.spatial import HalfspaceIntersection

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    interior = interior_point(a, b)
    if interior is None:
        return None
    halfspaces = np.hstack([a, -b[:, None]])
    return HalfspaceIntersection(halfspaces, interior).intersections


def convex_volume(a, b) -> float:
    """Volume (area in 2-D) of the bounded polytope {a x <= b} via qhull."""
    from scipy.spatial import ConvexHull

    vertices = convex_vertices(a, b)
    return 0.0 if vertices is None else float(ConvexHull(vertices).volume)


def convex_contains(a, b, points, tolerance: float = 1e-7) -> np.ndarray:
    """Rows of ``points`` inside {a x <= b} (up to ``tolerance``)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.all(np.asarray(points) @ a.T <= b + tolerance, axis=1)


def hit_or_miss_volume(
    a, b, bounds, samples: int, seed, block: int = 200_000
) -> tuple[float, float]:
    """Monte-Carlo volume of {a x <= b} inside a box, with its standard error."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    low = np.array([lo for lo, _ in bounds], dtype=float)
    high = np.array([hi for _, hi in bounds], dtype=float)
    box = float(np.prod(high - low))
    rng = np.random.default_rng(seed)
    hits = 0
    drawn = 0
    while drawn < samples:
        size = min(block, samples - drawn)
        points = low + (high - low) * rng.random((size, a.shape[1]))
        hits += int(np.count_nonzero(np.all(points @ a.T <= b, axis=1)))
        drawn += size
    share = hits / drawn
    return box * share, box * math.sqrt(share * (1.0 - share) / drawn)
