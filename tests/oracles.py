"""Independent reference computations used to check the library."""
import itertools
import math


def brute_force_mst_weight(points):
    """Minimum spanning tree weight by enumerating every edge subset of
    size n-1 and keeping the cheapest one that spans."""
    n = len(points)
    if n <= 1:
        return 0.0
    edges = [
        (math.dist(points[i], points[j]), i, j)
        for i in range(n) for j in range(i + 1, n)
    ]
    best = math.inf
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        components = n
        for _, i, j in subset:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
                components -= 1
        if components == 1:
            best = min(best, sum(w for w, _, _ in subset))
    return best


def kruskal_mst_oracle(points, root=0):
    """Reference MST as (parent_id, child_id, weight) triples: pure-Python
    Kruskal over every pair ordered by (math.dist, i, j), oriented by a
    breadth-first walk from `root` that visits children in ascending id."""
    n = len(points)
    edges = sorted(
        (math.dist(points[i], points[j]), i, j)
        for i in range(n) for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    adjacency = {i: [] for i in range(n)}
    accepted = 0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            adjacency[i].append((j, w))
            adjacency[j].append((i, w))
            accepted += 1
            if accepted == n - 1:
                break

    oriented = []
    seen = {root}
    queue = [root]
    while queue:
        node = queue.pop(0)
        for child, w in sorted(adjacency[node]):
            if child not in seen:
                seen.add(child)
                oriented.append((node, child, w))
                queue.append(child)
    return oriented


def fold_2d_oracle(parent3, child3):
    """Recompute the folded 2D deltas directly from the 3D coordinates."""
    dx = child3[0] - parent3[0]
    dy = child3[1] - parent3[1]
    dz = child3[2] - parent3[2]
    sx = 1.0 if dx >= 0 else -1.0
    sy = 1.0 if dy >= 0 else -1.0
    return sx * math.sqrt(dx * dx + dz * dz), sy * math.sqrt(dy * dy + dz * dz)


def dct2_basis_oracle(k, l, x, y, m, n):
    return math.cos(math.pi * k * (2 * x + 1) / (2 * m)) * math.cos(math.pi * l * (2 * y + 1) / (2 * n))


def grid_least_squares_projection(values_grid, m, n):
    """Coefficients of the full 2D least-squares fit on the integer grid,
    computed by explicit normal equations with the separable cosine basis.
    Independent of the greedy path; used to check grid recovery."""
    import numpy as np

    xs, ys = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    flat = values_grid.reshape(-1)
    design = np.empty((m * n, m * n))
    col = 0
    pairs = []
    for k in range(m):
        for l in range(n):
            design[:, col] = (
                np.cos(np.pi * k * (2 * xs.reshape(-1) + 1) / (2 * m))
                * np.cos(np.pi * l * (2 * ys.reshape(-1) + 1) / (2 * n))
            )
            pairs.append((k, l))
            col += 1
    coeffs, *_ = np.linalg.lstsq(design, flat, rcond=None)
    return dict(zip(pairs, coeffs))


def partition_oracle(cloud, block_size):
    """The seed's per-point partition as (cell_index, point_ids) pairs:
    math.floor per coordinate, cells sorted as tuples of Python ints."""
    origin = cloud.positions.min(axis=0).tolist()
    cells = {}
    for pid, coords in enumerate(cloud.positions.tolist()):
        idx = tuple(math.floor((c - o) / block_size) for c, o in zip(coords, origin))
        cells.setdefault(idx, []).append(pid)
    return [(idx, cells[idx]) for idx in sorted(cells)]


def nearest_original_color_oracle(cloud, query):
    """The seed's per-query scan: strict `<` keeps the lowest id on ties."""
    best_d2, best_color = None, None
    points = zip(cloud.positions.tolist(), cloud.colors.tolist(), cloud.original.tolist())
    for (x, y, z), color, is_original in points:
        if not is_original:
            continue
        d2 = (x - query[0]) ** 2 + (y - query[1]) ** 2 + (z - query[2]) ** 2
        if best_d2 is None or d2 < best_d2:
            best_d2, best_color = d2, tuple(color)
    return best_color
