//! A uniform-grid spatial index over point sets.
//!
//! Radius queries back two parts of the reproduction: the paper's *spatial
//! neighbours* `S_p = {p' : dist(p, p') < d}` (Definition 3.1, `d` = 1.15 km)
//! and the dataset generator's proximity-dependent relation sampling. Cells
//! are sized to the query radius so a query touches at most 9 cells, unless
//! that would make the grid too large; then cells widen, which changes what
//! a query costs but not what it answers.
//!
//! The index is mutable after construction: [`GridIndex::insert`] appends a
//! point (inside or outside the original bounding box) into an overflow list
//! that every query scans exactly, and [`GridIndex::retire`] tombstones a
//! point so it never appears as a candidate again. The projection reference
//! latitude is frozen at build time — mutations never shift it, so projected
//! distances between surviving points are bitwise stable across any mutation
//! sequence (see `build_with_ref_lat`).

use crate::location::Location;
use std::ops::Range;

/// Spatial index with fixed-radius cell decomposition.
///
/// Coordinates are projected once with an equirectangular approximation
/// centred on the data, so all internal distances are Euclidean km.
#[derive(Clone)]
pub struct GridIndex {
    points_km: Vec<(f64, f64)>,
    cell_km: f64,
    /// Frozen projection reference latitude (degrees). All points — original
    /// and inserted — are projected against this latitude, so distances
    /// never drift as the point set mutates.
    ref_lat: f64,
    min_x: f64,
    min_y: f64,
    n_cols: usize,
    n_rows: usize,
    /// CSR layout: `cell_start[c]..cell_start[c+1]` indexes into `cell_items`.
    cell_start: Vec<usize>,
    cell_items: Vec<u32>,
    /// Points appended after the CSR was built. They may fall outside the
    /// original bounding box, so instead of clamping them into a border cell
    /// (which would silently mis-bucket them for queries near that border)
    /// every query scans this list exactly. [`Self::rebuilt`] folds them
    /// back into a fresh CSR with an expanded bounding box.
    extras: Vec<u32>,
}

/// Mean latitude of a location set — the reference latitude used by the
/// equirectangular projection.
pub fn mean_lat(locations: &[Location]) -> f64 {
    if locations.is_empty() {
        return 0.0;
    }
    locations.iter().map(|l| l.lat).sum::<f64>() / locations.len() as f64
}

const KM_PER_DEG: f64 = std::f64::consts::PI / 180.0 * crate::location::EARTH_RADIUS_KM;

/// Most cells a grid allocates (8 MiB of CSR offsets). A request for finer
/// cells over a wider extent gets wider cells instead: radius answers do
/// not depend on the cell size, only their cost does. The largest grid
/// the tests, benches and benchmark workloads build, 114 × 114 cells of
/// 1.15 km over a 65 km-radius metro city, is far below it.
const MAX_CELLS: usize = 1 << 20;

/// Column and row counts of a grid of `cell_km` cells over a
/// `span_x × span_y` km box, or `None` past [`MAX_CELLS`].
fn grid_dims(span_x: f64, span_y: f64, cell_km: f64) -> Option<(usize, usize)> {
    // A saturated cast fails the checked add, so no span overflows.
    let cells = |span: f64| ((span / cell_km).floor() as usize).checked_add(1);
    let (n_cols, n_rows) = (cells(span_x)?, cells(span_y)?);
    (n_cols.checked_mul(n_rows)? <= MAX_CELLS).then_some((n_cols, n_rows))
}

/// Projects locations to local km coordinates around `ref_lat`.
fn project_with(locations: &[Location], ref_lat: f64) -> Vec<(f64, f64)> {
    let cos_lat = ref_lat.to_radians().cos();
    locations
        .iter()
        .map(|l| (l.lon * KM_PER_DEG * cos_lat, l.lat * KM_PER_DEG))
        .collect()
}

impl GridIndex {
    /// Builds an index over `locations` with cells sized for radius queries
    /// of about `cell_km` kilometres. The projection is centred on the mean
    /// latitude of `locations`.
    pub fn build(locations: &[Location], cell_km: f64) -> Self {
        Self::build_with_ref_lat(locations, cell_km, mean_lat(locations))
    }

    /// Builds an index whose projection is centred on an explicit reference
    /// latitude instead of the mean of `locations`.
    ///
    /// The online-ingest pipeline uses this to keep the projection *frozen*
    /// at its checkpoint-time value: rebuilding the index over a mutated
    /// point set with the same `ref_lat` reproduces every surviving pairwise
    /// distance bitwise, which is what makes incremental re-embedding of
    /// only the affected neighbourhood sound.
    pub fn build_with_ref_lat(locations: &[Location], cell_km: f64, ref_lat: f64) -> Self {
        assert!(cell_km > 0.0, "GridIndex: cell size must be positive");
        let points_km = project_with(locations, ref_lat);
        Self::build_from_points(points_km, cell_km, ref_lat)
    }

    /// Core constructor: CSR over the finite points of `points_km`.
    /// Tombstoned (NaN) points are kept in `points_km` so indices stay
    /// stable, but excluded from the cells — they can never match a query.
    /// Cells double in size until the grid fits in [`MAX_CELLS`].
    fn build_from_points(points_km: Vec<(f64, f64)>, mut cell_km: f64, ref_lat: f64) -> Self {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut n_live = 0usize;
        for &(x, y) in &points_km {
            if x.is_nan() {
                continue;
            }
            n_live += 1;
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        if n_live == 0 {
            return GridIndex {
                points_km,
                cell_km,
                ref_lat,
                min_x: 0.0,
                min_y: 0.0,
                n_cols: 1,
                n_rows: 1,
                cell_start: vec![0, 0],
                cell_items: Vec::new(),
                extras: Vec::new(),
            };
        }
        let (n_cols, n_rows) = loop {
            match grid_dims(max_x - min_x, max_y - min_y, cell_km) {
                Some(dims) => break dims,
                None => cell_km *= 2.0,
            }
        };
        let n_cells = n_cols * n_rows;

        // Counting sort into CSR.
        let cell_of = |x: f64, y: f64| -> usize {
            let cx = (((x - min_x) / cell_km) as usize).min(n_cols - 1);
            let cy = (((y - min_y) / cell_km) as usize).min(n_rows - 1);
            cy * n_cols + cx
        };
        let mut counts = vec![0usize; n_cells + 1];
        for &(x, y) in &points_km {
            if x.is_nan() {
                continue;
            }
            counts[cell_of(x, y) + 1] += 1;
        }
        for c in 0..n_cells {
            counts[c + 1] += counts[c];
        }
        let cell_start = counts.clone();
        let mut fill = counts;
        let mut cell_items = vec![0u32; n_live];
        for (i, &(x, y)) in points_km.iter().enumerate() {
            if x.is_nan() {
                continue;
            }
            let c = cell_of(x, y);
            cell_items[fill[c]] = i as u32;
            fill[c] += 1;
        }

        GridIndex {
            points_km,
            cell_km,
            ref_lat,
            min_x,
            min_y,
            n_cols,
            n_rows,
            cell_start,
            cell_items,
            extras: Vec::new(),
        }
    }

    /// Number of indexed points (live, retired and overflow alike — point
    /// indices are stable for the lifetime of the index).
    pub fn len(&self) -> usize {
        self.points_km.len()
    }

    /// True if the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points_km.is_empty()
    }

    /// The frozen projection reference latitude (degrees).
    pub fn ref_lat(&self) -> f64 {
        self.ref_lat
    }

    /// Number of points currently in the overflow list (inserted since the
    /// last full build). Each query scans these exactly, so callers should
    /// fold them back in with [`Self::rebuilt`] once the list grows large.
    pub fn extras_len(&self) -> usize {
        self.extras.len()
    }

    /// True if point `i` has not been retired.
    pub fn is_live(&self, i: usize) -> bool {
        !self.points_km[i].0.is_nan()
    }

    /// Appends a point and returns its index. The point is projected with
    /// the frozen reference latitude, so it may land outside the original
    /// bounding box; it goes into the exactly-scanned overflow list rather
    /// than being clamped into a border cell.
    pub fn insert(&mut self, location: Location) -> usize {
        let cos_lat = self.ref_lat.to_radians().cos();
        let p = (
            location.lon * KM_PER_DEG * cos_lat,
            location.lat * KM_PER_DEG,
        );
        let i = self.points_km.len();
        self.points_km.push(p);
        self.extras.push(i as u32);
        i
    }

    /// Tombstones point `i`: it keeps its index but is excluded from every
    /// future query result (its distance to anything is NaN, which fails
    /// every `d < radius` filter). Queries *from* a retired point return
    /// nothing.
    pub fn retire(&mut self, i: usize) {
        self.points_km[i] = (f64::NAN, f64::NAN);
    }

    /// Rebuilds the CSR over the current point set: the bounding box expands
    /// to cover overflow inserts, tombstones drop out of the cells, and the
    /// overflow list empties. The projection reference latitude — and
    /// therefore every pairwise distance — is unchanged, so query results
    /// are identical before and after; only the scan cost changes.
    pub fn rebuilt(&self) -> GridIndex {
        Self::build_from_points(self.points_km.clone(), self.cell_km, self.ref_lat)
    }

    /// Euclidean (projected) distance in km between two indexed points.
    /// NaN if either endpoint has been retired.
    pub fn distance_km(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.points_km[a];
        let (bx, by) = self.points_km[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Indices of all points strictly within `radius_km` of point `query`
    /// (excluding `query` itself), with their distances.
    ///
    /// The result is sorted by `(distance, index)` — a total order, so the
    /// candidate lists feeding top-k queries (and any truncation of them)
    /// are deterministic regardless of cell-visit order, co-located points
    /// included.
    pub fn within_radius(&self, query: usize, radius_km: f64) -> Vec<(usize, f64)> {
        let (qx, qy) = self.points_km[query];
        let mut out = Vec::new();
        self.for_cells_around(qx, qy, radius_km, |i| {
            if i != query {
                let d = self.distance_km(query, i);
                if d < radius_km {
                    out.push((i, d));
                }
            }
        });
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Like [`Self::within_radius`] but keeps only the `k` nearest. The
    /// `(distance, index)` order of [`Self::within_radius`] makes the
    /// truncation deterministic: ties at the cut-off resolve to the lower
    /// point index.
    pub fn k_nearest_within(&self, query: usize, radius_km: f64, k: usize) -> Vec<(usize, f64)> {
        let mut all = self.within_radius(query, radius_km);
        debug_assert!(
            all.windows(2)
                .all(|w| w[0].1.total_cmp(&w[1].1).then(w[0].0.cmp(&w[1].0)).is_lt()),
            "within_radius must return a strict (distance, index) order"
        );
        all.truncate(k);
        all
    }

    /// Like [`Self::within_radius`] but *unsorted* (cell-visit order): the
    /// cheapest way to enumerate the candidate set when the caller ranks by
    /// something other than distance (e.g. the serving layer's quantized
    /// relation scores). Distances are returned too — the radius filter
    /// computes them anyway, and callers binning by distance would
    /// otherwise pay a second projection per candidate.
    pub fn within_radius_unsorted(&self, query: usize, radius_km: f64) -> Vec<(usize, f64)> {
        let (qx, qy) = self.points_km[query];
        let mut out = Vec::new();
        self.for_cells_around(qx, qy, radius_km, |i| {
            if i != query {
                let d = self.distance_km(query, i);
                if d < radius_km {
                    out.push((i, d));
                }
            }
        });
        out
    }

    /// Upper bound on the number of in-radius candidates around `query`:
    /// the total population of every cell a radius query would touch (plus
    /// all overflow inserts), read straight off the CSR offsets with no
    /// per-point work. The serving layer uses it to choose between exact
    /// scan, quantized scan and the ANN beam before generating candidates.
    pub fn count_in_cells_around(&self, query: usize, radius_km: f64) -> usize {
        let (qx, qy) = self.points_km[query];
        let in_cells: usize = self.cell_runs(qx, qy, radius_km).map(|run| run.len()).sum();
        self.extras.len() + in_cells
    }

    /// Brute-force reference implementation (used by tests and small inputs).
    pub fn within_radius_brute(&self, query: usize, radius_km: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for i in 0..self.points_km.len() {
            if i != query {
                let d = self.distance_km(query, i);
                if d < radius_km {
                    out.push((i, d));
                }
            }
        }
        out
    }

    /// The `cell_items` ranges a radius query around `(qx, qy)` reads, one
    /// per row of its cell window. The window is clamped to the grid, its
    /// span as an f64 before the cast, so a huge radius costs at most the
    /// grid. A row's cells are contiguous in the CSR, so each range lists
    /// the window's cells of one row in cell order.
    fn cell_runs(
        &self,
        qx: f64,
        qy: f64,
        radius_km: f64,
    ) -> impl Iterator<Item = Range<usize>> + '_ {
        let limit = self.n_cols.max(self.n_rows) as f64;
        let span = (radius_km / self.cell_km).ceil().clamp(0.0, limit) as usize;
        let window = |q: f64, min: f64, n: usize| {
            let c = (((q - min) / self.cell_km) as usize).min(n - 1);
            c.saturating_sub(span)..=(c + span).min(n - 1)
        };
        let xs = window(qx, self.min_x, self.n_cols);
        window(qy, self.min_y, self.n_rows).map(move |y| {
            let row = y * self.n_cols;
            self.cell_start[row + xs.start()]..self.cell_start[row + xs.end() + 1]
        })
    }

    fn for_cells_around(&self, qx: f64, qy: f64, radius_km: f64, mut visit: impl FnMut(usize)) {
        for run in self.cell_runs(qx, qy, radius_km) {
            for &i in &self.cell_items[run] {
                visit(i as usize);
            }
        }
        // Overflow inserts are not in any cell yet; scan them exactly. The
        // distance filter in the caller keeps correctness, and the list is
        // bounded by the rebuild policy upstream.
        for &i in &self.extras {
            visit(i as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Vec<Location> {
        // Deterministic pseudo-random points in a ~10 km square near Beijing.
        let mut pts = Vec::with_capacity(n);
        let mut s = 12345u64;
        for _ in 0..n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 33) as f64 / (1u64 << 31) as f64) * 0.1;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((s >> 33) as f64 / (1u64 << 31) as f64) * 0.1;
            pts.push(Location::new(116.3 + a, 39.9 + b));
        }
        pts
    }

    #[test]
    fn grid_matches_brute_force() {
        let pts = cluster(300);
        let idx = GridIndex::build(&pts, 1.15);
        for q in [0, 17, 123, 299] {
            let mut fast = idx.within_radius(q, 1.15);
            let mut brute = idx.within_radius_brute(q, 1.15);
            fast.sort_by_key(|a| a.0);
            brute.sort_by_key(|a| a.0);
            assert_eq!(fast.len(), brute.len(), "query {q}");
            for (f, b) in fast.iter().zip(brute.iter()) {
                assert_eq!(f.0, b.0);
                assert!((f.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn query_excludes_self() {
        let pts = cluster(50);
        let idx = GridIndex::build(&pts, 2.0);
        for q in 0..50 {
            assert!(idx.within_radius(q, 5.0).iter().all(|&(i, _)| i != q));
        }
    }

    #[test]
    fn k_nearest_sorted_and_truncated() {
        let pts = cluster(200);
        let idx = GridIndex::build(&pts, 1.0);
        let nn = idx.k_nearest_within(5, 3.0, 10);
        assert!(nn.len() <= 10);
        assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
        // All must actually be within the radius.
        assert!(nn.iter().all(|&(_, d)| d < 3.0));
    }

    #[test]
    fn within_radius_orders_by_distance_then_index() {
        let pts = cluster(250);
        let idx = GridIndex::build(&pts, 0.7);
        for q in [0, 42, 249] {
            let fast = idx.within_radius(q, 2.5);
            // Strictly increasing under the (distance, index) total order.
            assert!(fast.windows(2).all(|w| w[0]
                .1
                .total_cmp(&w[1].1)
                .then(w[0].0.cmp(&w[1].0))
                .is_lt()));
            // Same set and same order as the sorted brute-force reference.
            let mut brute = idx.within_radius_brute(q, 2.5);
            brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            assert_eq!(fast, brute, "query {q}");
        }
    }

    #[test]
    fn co_located_points_tie_break_on_index() {
        // Five copies of the same point around a distinct query point: all
        // neighbours are exactly equidistant, so ordering must fall back to
        // the point index, and truncation must keep the lowest indices.
        let mut pts = vec![Location::new(116.30, 39.90)];
        for _ in 0..5 {
            pts.push(Location::new(116.31, 39.91));
        }
        let idx = GridIndex::build(&pts, 1.0);
        let all = idx.within_radius(0, 10.0);
        assert_eq!(
            all.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        let top2 = idx.k_nearest_within(0, 10.0, 2);
        assert_eq!(top2.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(&[], 1.0);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn single_point_has_no_neighbours() {
        let idx = GridIndex::build(&[Location::new(116.0, 40.0)], 1.0);
        assert!(idx.within_radius(0, 100.0).is_empty());
    }

    #[test]
    fn distance_km_is_plausible() {
        // Two points ~1.11 km apart in latitude (0.01°).
        let idx = GridIndex::build(
            &[Location::new(116.0, 40.0), Location::new(116.0, 40.01)],
            1.0,
        );
        let d = idx.distance_km(0, 1);
        assert!((d - 1.11).abs() < 0.02, "d = {d}");
    }

    #[test]
    fn unsorted_radius_matches_sorted_set() {
        let pts = cluster(220);
        let idx = GridIndex::build(&pts, 0.9);
        for q in [0, 50, 219] {
            let mut unsorted = idx.within_radius_unsorted(q, 2.0);
            unsorted.sort_unstable_by_key(|a| a.0);
            let mut sorted = idx.within_radius(q, 2.0);
            sorted.sort_unstable_by_key(|a| a.0);
            assert_eq!(unsorted.len(), sorted.len(), "query {q}");
            for (u, s) in unsorted.iter().zip(&sorted) {
                assert_eq!(u.0, s.0, "query {q}");
                assert!((u.1 - s.1).abs() < 1e-12, "query {q}");
            }
        }
    }

    #[test]
    fn cell_count_bounds_candidates() {
        let pts = cluster(180);
        let idx = GridIndex::build(&pts, 1.15);
        // 1e300 km: the window is clamped to the grid before any loop.
        for q in [0, 90, 179] {
            for r in [0.5, 1.15, 4.0, 1e300] {
                let est = idx.count_in_cells_around(q, r);
                let actual = idx.within_radius(q, r).len();
                assert!(est >= actual, "query {q} r {r}: est {est} < {actual}");
                // The estimate includes the query point itself.
                assert!(est >= 1);
            }
        }
    }

    #[test]
    fn tiny_cells_widen_to_the_cap() {
        // 1e-9 km cells over a ~10 km city would number ~1e26; the build
        // doubles them until the grid fits, and answers stay exact.
        let pts = cluster(200);
        let idx = GridIndex::build(&pts, 1e-9);
        let rebuilt = idx.rebuilt();
        assert!(idx.n_cols * idx.n_rows <= MAX_CELLS);
        assert!(rebuilt.n_cols * rebuilt.n_rows <= MAX_CELLS);
        for q in [0, 100, 199] {
            for r in [1e-9, 0.05, 0.4, 3.0] {
                let mut fast = idx.within_radius(q, r);
                let mut brute = idx.within_radius_brute(q, r);
                fast.sort_by_key(|a| a.0);
                brute.sort_by_key(|a| a.0);
                assert_eq!(fast, brute, "query {q} r {r}");
            }
        }
    }

    #[test]
    fn radius_larger_than_cell_still_correct() {
        let pts = cluster(150);
        let idx = GridIndex::build(&pts, 0.5); // cells much smaller than query
        let mut fast = idx.within_radius(3, 4.0);
        let mut brute = idx.within_radius_brute(3, 4.0);
        fast.sort_by_key(|a| a.0);
        brute.sort_by_key(|a| a.0);
        assert_eq!(fast, brute);
    }

    #[test]
    fn insert_outside_bbox_matches_brute_force() {
        // Original cluster spans ~10 km; inserts land far outside the
        // original bounding box in every direction. Queries from and around
        // them must match brute force exactly — no silent mis-bucketing.
        let pts = cluster(120);
        let mut idx = GridIndex::build(&pts, 1.15);
        let far = [
            Location::new(116.0, 39.7),  // south-west of the bbox
            Location::new(116.7, 40.2),  // north-east
            Location::new(116.35, 39.5), // far south
        ];
        let mut new_ids = Vec::new();
        for &loc in &far {
            new_ids.push(idx.insert(loc));
        }
        // Plus one insert inside the original bbox.
        new_ids.push(idx.insert(Location::new(116.35, 39.95)));
        assert_eq!(idx.extras_len(), 4);
        for q in new_ids.iter().copied().chain([0usize, 60]) {
            for r in [1.15, 5.0, 60.0, 1e300] {
                let mut fast = idx.within_radius(q, r);
                let mut unsorted = idx.within_radius_unsorted(q, r);
                let mut brute = idx.within_radius_brute(q, r);
                fast.sort_by_key(|a| a.0);
                unsorted.sort_by_key(|a| a.0);
                brute.sort_by_key(|a| a.0);
                assert_eq!(fast, brute, "query {q} r {r}");
                assert_eq!(unsorted, brute, "query {q} r {r}");
            }
        }
    }

    #[test]
    fn insert_freezes_projection() {
        // Inserting a point far to the south would shift the mean latitude
        // if the projection were recomputed; distances between pre-existing
        // points must not move by a single bit.
        let pts = cluster(40);
        let mut idx = GridIndex::build(&pts, 1.15);
        let before: Vec<f64> = (1..40).map(|i| idx.distance_km(0, i)).collect();
        idx.insert(Location::new(116.3, 30.0));
        let after: Vec<f64> = (1..40).map(|i| idx.distance_km(0, i)).collect();
        assert_eq!(before, after);
        assert_eq!(idx.ref_lat(), mean_lat(&pts));
    }

    #[test]
    fn retired_points_are_excluded_everywhere() {
        let pts = cluster(80);
        let mut idx = GridIndex::build(&pts, 1.15);
        let extra = idx.insert(Location::new(116.35, 39.95));
        idx.retire(7);
        idx.retire(extra);
        assert!(!idx.is_live(7) && !idx.is_live(extra));
        for q in [0, 20, 50] {
            for list in [
                idx.within_radius(q, 50.0),
                idx.within_radius_unsorted(q, 50.0),
            ] {
                assert!(list.iter().all(|&(i, _)| i != 7 && i != extra), "query {q}");
            }
        }
        // Queries from a retired point return nothing.
        assert!(idx.within_radius(7, 50.0).is_empty());
        assert!(idx.distance_km(7, 0).is_nan());
    }

    #[test]
    fn rebuilt_preserves_query_results_and_projection() {
        let pts = cluster(100);
        let mut idx = GridIndex::build(&pts, 1.15);
        let a = idx.insert(Location::new(116.1, 39.8)); // outside bbox
        let b = idx.insert(Location::new(116.36, 39.93));
        idx.retire(3);
        idx.retire(b);
        let rebuilt = idx.rebuilt();
        assert_eq!(rebuilt.extras_len(), 0);
        assert_eq!(rebuilt.len(), idx.len());
        assert_eq!(rebuilt.ref_lat(), idx.ref_lat());
        for q in [0usize, 10, 99, a] {
            for r in [1.15, 6.0, 40.0] {
                assert_eq!(
                    idx.within_radius(q, r),
                    rebuilt.within_radius(q, r),
                    "query {q} r {r}"
                );
            }
        }
        // Distances are bitwise identical — the projection did not move.
        for i in 0..idx.len() {
            let (d0, d1) = (idx.distance_km(a, i), rebuilt.distance_km(a, i));
            assert!(d0 == d1 || (d0.is_nan() && d1.is_nan()), "point {i}");
        }
        // Estimates still bound the candidates after rebuild.
        for q in [0, 50, a] {
            assert!(rebuilt.count_in_cells_around(q, 2.0) >= rebuilt.within_radius(q, 2.0).len());
        }
    }
}
