"""Property-based (hypothesis) tests over the pure numpy kernels — the
invariants that must hold for ANY input, complementing the fixed-fixture
parity tests. No Ray session needed: these kernels are the per-batch
building blocks of the distributed operators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tiff_enrichment_pipeline_ray.functions import bloom as bf
from tiff_enrichment_pipeline_ray.functions import hll
from reference_forms import hex7_cell, hex7_parent, s2_parent
from tiff_enrichment_pipeline_ray.functions.cells import grid_cell_xy, s2_cell
from tiff_enrichment_pipeline_ray.functions.geo import haversine_m

int64s = st.integers(min_value=-(2**62), max_value=2**62)
lats = st.floats(min_value=-89.9, max_value=89.9, allow_nan=False)
lons = st.floats(min_value=-179.9, max_value=179.9, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(int64s, min_size=1, max_size=200),
       st.lists(int64s, min_size=0, max_size=200))
def test_bloom_no_false_negatives_and_merge(added, probed):
    """Every added key must report possibly-present — through add() AND
    through a merge of single-key partials (the exchange path); absent
    keys may false-positive but never crash the predicate."""
    keys = np.array(added, dtype=np.int64)
    bits = bf.add(bf.empty(12), keys)
    assert bf.might_contain(bits, keys).all()
    merged = bf.empty(12)
    for v in added:
        merged = bf.merge(merged, bf.add(bf.empty(12),
                                         np.array([v], dtype=np.int64)))
    assert (merged == bits).all()  # add is order-free / merge-equivalent
    out = bf.might_contain(bits, np.array(probed, dtype=np.int64))
    assert out.shape == (len(probed),) and out.dtype == bool


@settings(max_examples=200, deadline=None)
@given(lats, lons, lats, lons)
def test_haversine_metric_properties(la1, lo1, la2, lo2):
    """Symmetry, identity, and the half-circumference bound — the
    invariants the kNN-weather join relies on for correctness."""
    d12 = float(haversine_m(la1, lo1, la2, lo2))
    d21 = float(haversine_m(la2, lo2, la1, lo1))
    assert d12 == d21
    assert float(haversine_m(la1, lo1, la1, lo1)) == 0.0
    assert 0.0 <= d12 <= 6_371_000.0 * np.pi * 1.0000001


@settings(max_examples=200, deadline=None)
@given(lats, lons)
def test_cell_hierarchies_contain(lat, lon):
    """A point's fine cell must roll up to the SAME parent cell the point
    maps to directly — the property that makes multi-resolution group-bys
    (h3_r9 → h3_r5, s2 parents) consistent with each other. The kernels
    are batch-vectorized: scalar points ride as 1-element arrays."""
    la = np.array([lat]); lo = np.array([lon])
    c9 = hex7_cell(la, lo, res=9)
    c5 = hex7_cell(la, lo, res=5)
    p = c9
    for _ in range(4):
        p = hex7_parent(p)
    assert int(p[0]) == int(c5[0])
    s16 = s2_cell(la, lo, level=16)
    s10 = s2_cell(la, lo, level=10)
    assert int(s2_parent(s16, 10)[0]) == int(s10[0])


@settings(max_examples=200, deadline=None)
@given(lats, lons, st.floats(min_value=1e-3, max_value=10.0,
                             allow_nan=False))
def test_grid_cell_point_in_cell(lat, lon, cell):
    """grid_cell_xy must place the point inside the half-open cell box it
    names (up to one float quantum at the floor boundary) — the invariant
    every PBSM/grid-exchange operator builds on. Coordinates snap to 1e-6
    deg (the corpus lattice); raw denormals are not meaningful inputs."""
    lat, lon = round(lat, 6), round(lon, 6)
    cx, cy = grid_cell_xy(np.array([lat]), np.array([lon]), cell)
    cx, cy = int(cx[0]), int(cy[0])
    eps = cell * 1e-9
    assert cx * cell - eps <= lon < (cx + 1) * cell + eps
    assert cy * cell - eps <= lat < (cy + 1) * cell + eps


@settings(max_examples=100, deadline=None)
@given(st.lists(int64s, min_size=1, max_size=500))
def test_hll_merge_equals_bulk(keys):
    """HLL partial-merge associativity: registers built per-element and
    max-merged must equal the bulk build — the exchange-safety property —
    and the estimate must be exact-ish (>= 50%) for tiny cardinalities."""
    ks = np.array(keys, dtype=np.int64)
    bulk = hll.registers(ks, 12)
    merged = np.zeros_like(bulk)
    for v in keys:
        merged = hll.merge(merged,
                           hll.registers(np.array([v], dtype=np.int64), 12))
    assert (merged == bulk).all()
    est = hll.estimate(bulk)
    n = len(set(keys))
    assert est >= 0.5 * n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8191), min_size=1,
                max_size=64),
       st.lists(st.integers(min_value=0, max_value=8191), min_size=1,
                max_size=64))
def test_morton_roundtrip_and_order(xs, ys):
    """_morton13 invariants for any 13-bit coords: exact de-interleave
    round-trip; keys bounded by 2^26; and quadrant monotonicity — the
    locality property the Z-order layout relies on: halving-grid
    quadrants occupy disjoint contiguous key ranges, i.e. the top
    interleaved bits ARE the quadrant id."""
    from tiff_enrichment_pipeline_ray.pipelines.queries import _morton13

    n = min(len(xs), len(ys))
    ix = np.array(xs[:n], dtype=np.int64)
    iy = np.array(ys[:n], dtype=np.int64)
    z = _morton13(ix, iy)
    assert ((z >= 0) & (z < (1 << 26))).all()
    dx = sum(((z >> (2 * b)) & 1) << b for b in range(13))
    dy = sum(((z >> (2 * b + 1)) & 1) << b for b in range(13))
    assert (dx == ix).all() and (dy == iy).all()
    # quadrant prefix: the top bit pair is (y_msb, x_msb)
    assert (z >> 25 == (iy >> 12)).all()
    assert (((z >> 24) & 1) == (ix >> 12)).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1,
                max_size=50),
       st.integers(min_value=2, max_value=128),
       st.integers(min_value=1, max_value=128))
def test_chunk_overlap_invariants(lens, window, stride):
    """The overlapping-chunker arithmetic for ANY token counts / window /
    stride (stride ≤ window): chunks tile [0, n) exactly — first starts
    at 0, consecutive starts advance by stride, the union covers every
    token, every chunk is non-empty and ≤ window, and only the LAST
    chunk may end early; a doc with n ≤ window is exactly one chunk."""
    stride = min(stride, window)
    n = np.array(lens, dtype=np.int64)
    w, s = np.int64(window), np.int64(stride)
    nch = np.where(n <= w, np.int64(1), (n - w + s - 1) // s + 1)
    for ni, c in zip(n.tolist(), nch.tolist()):
        starts = np.arange(c, dtype=np.int64) * s
        toks = np.minimum(w, ni - starts)
        assert (toks > 0).all() and (toks <= w).all()
        # full coverage: last chunk reaches the end; no gap between
        # consecutive chunks (next start <= previous end)
        assert starts[-1] + toks[-1] == ni
        if c > 1:
            assert (starts[1:] <= starts[:-1] + toks[:-1]).all()
            # all but the last chunk are full windows
            assert (toks[:-1] == w).all()
        if ni <= window:
            assert c == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, width=32),
                min_size=25, max_size=25),
       st.floats(min_value=0.05, max_value=9.95, allow_nan=False))
def test_marching_squares_invariants(vals, level):
    """Marching squares on ANY 5×5 grid: (1) every emitted endpoint lies
    on a cell edge where the linear interpolation equals the level —
    re-evaluating the 1-D interpolation at the endpoint recovers the
    level; (2) segment endpoints stay inside the grid; (3) segments per
    quad ≤ 2."""
    from tiff_enrichment_pipeline_ray.functions.raster import (
        contour_segments,
    )

    z = np.array(vals, dtype=np.float64).reshape(5, 5)
    x0, y0, x1, y1 = contour_segments(z, level)
    for xs, ys in ((x0, y0), (x1, y1)):
        assert ((xs >= 0) & (xs <= 4) & (ys >= 0) & (ys <= 4)).all()
        for x, y in zip(xs.tolist(), ys.tolist()):
            # endpoint is on a grid edge: one coordinate integral
            fx, fy = x - np.floor(x), y - np.floor(y)
            assert fx == 0.0 or fy == 0.0
            if fx != 0.0 or fy != 0.0:
                # strictly interior to an edge: interpolate the two
                # nodes it lies between and recover the level
                if fx != 0.0:
                    r, c = int(y), int(np.floor(x))
                    v0, v1 = z[r, c], z[r, c + 1]
                    t = fx
                else:
                    r, c = int(np.floor(y)), int(x)
                    v0, v1 = z[r, c], z[r + 1, c]
                    t = fy
                assert np.isclose(v0 + t * (v1 - v0), level, atol=1e-9)
    assert len(x0) <= 2 * 16  # <= 2 segments per quad


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, width=16),
                min_size=36, max_size=36))
def test_flow_accumulation_mass_conservation(vals):
    """D8 on ANY 6×6 terrain: every cell drains to at most one receiver
    (a forest), so total mass is conserved — the accumulations of the
    SINK cells (no receiver) sum to the cell count; every accumulation
    is ≥ 1; receivers are strictly downhill."""
    from tiff_enrichment_pipeline_ray.functions.raster import (
        flow_accumulation,
        flow_d8,
    )

    z = np.array(vals, dtype=np.float64).reshape(6, 6)
    recv = flow_d8(z)
    acc = flow_accumulation(recv, z.shape)
    assert (acc >= 1.0).all()
    sinks = recv.ravel() == -1
    assert np.isclose(acc.ravel()[sinks].sum(), 36.0)
    flat = z.ravel()
    r = recv.ravel()
    ok = r >= 0
    assert (flat[r[ok]] < flat[np.flatnonzero(ok)]).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0,
                          allow_nan=False, width=16),
                min_size=64, max_size=64),
       st.integers(min_value=5, max_value=55),
       st.integers(min_value=5, max_value=55))
def test_line_of_sight_symmetry(vals, ai, bi):
    """LOS is symmetric: the interior samples of a→b are the reverse of
    b→a and the sight line is the same chord, so visibility and max
    obstruction are identical in both directions."""
    from tiff_enrichment_pipeline_ray.functions.raster import (
        ElevationGrid,
    )
    from tiff_enrichment_pipeline_ray.pipelines.queries import _los_pairs

    z = np.array(vals, dtype=np.float64).reshape(8, 8)
    eg = ElevationGrid({
        "tile_id": np.array([0]),
        "min_lon": np.array([0.0]), "min_lat": np.array([0.0]),
        "res_deg": np.array([0.01]),
        "nx": np.array([8], dtype=np.int32),
        "ny": np.array([8], dtype=np.int32),
        "data": [z.astype("<f4").tobytes()]})
    # endpoints strictly inside the covered extent
    alat, alon = 0.005 + ai * 0.001, 0.01
    blat, blon = 0.005 + bi * 0.001, 0.07
    v1, o1 = _los_pairs(eg, np.array([alat]), np.array([alon]),
                        np.array([blat]), np.array([blon]))
    v2, o2 = _los_pairs(eg, np.array([blat]), np.array([blon]),
                        np.array([alat]), np.array([alon]))
    assert v1[0] == v2[0]
    assert np.isclose(o1[0], o2[0], atol=1e-9)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=60))
def test_cc_pointer_jumping_matches_union_find(ray_session, raw_edges):
    """_cc_label_prop (neighbor-min + pointer jumping + per-round lineage
    cut) computes exactly the per-component MIN label on random graphs —
    the shared loop behind doc_dup_clusters / DBSCAN / mosaic groups."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from tiff_enrichment_pipeline_ray.pipelines.queries import _cc_label_prop

    edges = [(a, b) for a, b in raw_edges if a != b]
    if not edges:
        return
    nodes = sorted({x for e in edges for x in e})
    both = pd.DataFrame({
        "src": [a for a, b in edges] + [b for a, b in edges],
        "node": [b for a, b in edges] + [a for a, b in edges]})
    labels = rd.from_pandas(pd.DataFrame({
        "node": np.array(nodes, dtype=np.int64),
        "lbl": np.array(nodes, dtype=np.int64)}))
    got = (_cc_label_prop(labels, rd.from_pandas(both),
                          len(nodes), 2 * len(edges))
           .to_pandas().sort_values("node").reset_index(drop=True))

    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comp = {}
    for n in nodes:
        comp.setdefault(find(n), []).append(n)
    want = {}
    for members in comp.values():
        m = min(members)
        for x in members:
            want[x] = m
    assert dict(zip(got.node, got.lbl)) == want
