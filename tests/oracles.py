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


def _round_channel_oracle(v):
    """The seed's scalar rounding: half away from zero, clamped to [0, 255]."""
    rounded = math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)
    return min(255, max(0, rounded))


def idw_oracle(positions, colors, queries, power=2.0, round_channel=_round_channel_oracle):
    """The seed's per-query Shepard loop as a list of color tuples: a query
    at distance 0 from an original takes the first such original's color.
    `round_channel=float` keeps the blends unrounded."""
    import numpy as np

    positions = np.asarray(positions, dtype=float)
    queries = np.asarray(queries, dtype=float).reshape(-1, positions.shape[1])
    color_arr = np.asarray(colors, dtype=float)
    out = []
    for q in queries:
        d = np.sqrt(((positions - q) ** 2).sum(axis=1))
        hits = np.flatnonzero(d == 0.0)
        if hits.size:
            out.append(tuple(int(c) for c in colors[int(hits[0])]))
            continue
        weights = d ** -power
        blend = weights @ color_arr / weights.sum()
        out.append(tuple(round_channel(v) for v in blend))
    return out


def lin2_oracle(positions2d, colors, queries2d, round_channel=_round_channel_oracle):
    """The seed's per-query barycentric loop over scipy's Delaunay
    triangulation: None outside the hull and for every query when the
    originals are fewer than 3 or collinear.  `round_channel=float` keeps
    the blends unrounded."""
    import numpy as np

    from cloudcolor.baselines import load_delaunay

    Delaunay, QhullError = load_delaunay()  # scipy on one BLAS thread, whichever test loads it first
    positions2d = np.asarray(positions2d, dtype=float).reshape(-1, 2)
    queries2d = np.asarray(queries2d, dtype=float).reshape(-1, 2)
    if len(positions2d) < 3:
        return [None] * len(queries2d)
    try:
        tri = Delaunay(positions2d)
    except QhullError:
        return [None] * len(queries2d)
    color_arr = np.asarray(colors, dtype=float)
    out = []
    for q, s in zip(queries2d, tri.find_simplex(queries2d)):
        if s < 0:
            out.append(None)
            continue
        transform = tri.transform[s]
        bary = transform[:2] @ (q - transform[2])
        weights = np.append(bary, 1.0 - bary.sum())
        blend = weights @ color_arr[tri.simplices[s]]
        out.append(tuple(round_channel(v) for v in blend))
    return out


def _axis_cosine_oracle(freq, coord, side):
    import numpy as np

    return np.cos(np.pi * freq * (2 * coord + 1) / (2 * side))


def normalize_to_window_oracle(coords, size):
    """The seed's window normalisation, one axis at a time: each axis maps
    affinely onto [0, size - 1], a degenerate one to its center."""
    import numpy as np

    raw = np.asarray(coords, dtype=float).reshape(-1, 2)
    out = np.empty_like(raw)
    for axis in range(2):
        lo, hi = raw[:, axis].min(), raw[:, axis].max()
        if hi > lo:
            out[:, axis] = (raw[:, axis] - lo) * ((size - 1) / (hi - lo))
        else:
            out[:, axis] = (size - 1) / 2
    return out


def generate_model_oracle(samples, config):
    """The seed's greedy fit as a `SparseModel`: the candidate list and the
    frequency weights rebuilt in Python, and every one of the M*N candidate
    basis rows computed along both axes."""
    import numpy as np
    from cloudcolor.fsmmr import SparseModel

    m = n = config.model_size
    candidates = sorted(((k, l) for k in range(m) for l in range(n)), key=lambda kl: (kl[0] ** 2 + kl[1] ** 2, *kl))
    ks = np.array([k for k, _ in candidates], dtype=float)[:, None]
    ls = np.array([l for _, l in candidates], dtype=float)[:, None]
    phi = _axis_cosine_oracle(ks, samples.coords[:, 0][None, :], m) * _axis_cosine_oracle(ls, samples.coords[:, 1][None, :], n)
    w = samples.weights
    denominators = (phi * phi) @ w
    usable = denominators > 0
    wf = np.array([config.sigma ** math.hypot(k, l) for k, l in candidates])

    coefficients, order, selections, energies = {}, [], [], []
    model_at_samples = np.zeros_like(samples.values)
    safe_den = np.where(usable, denominators, 1.0)
    for _ in range(config.max_iterations):
        residual = samples.values - model_at_samples
        numerators = phi @ (w * residual)
        coeff = np.where(usable, numerators / safe_den, 0.0)
        decrease = coeff * coeff * denominators
        best = int(np.argmax(np.where(usable, decrease * wf, -1.0)))
        if decrease[best] == 0.0:
            break
        step = config.gamma * coeff[best]
        if best not in coefficients:
            coefficients[best] = 0.0
            order.append(best)
        coefficients[best] += step
        model_at_samples = model_at_samples + step * phi[best]
        selections.append(candidates[best])
        residual = samples.values - model_at_samples
        energies.append(float(w @ (residual * residual)))
        if energies[-1] <= config.energy_threshold:
            break

    final_residual = samples.values - model_at_samples
    return SparseModel(
        terms=tuple((*candidates[i], coefficients[i]) for i in order),
        size=config.model_size,
        iterations_run=len(selections),
        final_energy=float(w @ (final_residual * final_residual)),
        energy_history=tuple(energies),
        selection_history=tuple(selections),
    )


def evaluate_model_oracle(model, queries):
    """The seed's per-term evaluation: two axis cosines computed per term."""
    import numpy as np

    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    m = n = model.size
    x = np.clip(queries[:, 0], 0.0, m - 1)
    y = np.clip(queries[:, 1], 0.0, n - 1)
    out = np.zeros(len(queries))
    for u, v, c in model.terms:
        out += c * _axis_cosine_oracle(u, x, m) * _axis_cosine_oracle(v, y, n)
    return out
