//! `score_pairs_all` allocates only its output: each thread keeps one
//! projection scratch, regrown when a wider store comes along, so a warm
//! call at any pair count that fits one chunk makes exactly one
//! allocation. The binary holds a single test, so nothing else allocates
//! while it counts.

use prim_geo::{DistanceBins, GridIndex, Location};
use prim_serve::{score_pairs_all, EmbeddingStore};
use prim_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator and counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A random `n`-POI store of width `dim` with three relations and distance
/// scoring on.
fn store(n: usize, dim: usize, seed: u64) -> EmbeddingStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rand_mat = |rows: usize| {
        Matrix::from_vec(
            rows,
            dim,
            (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    };
    let pois = rand_mat(n);
    let relations = rand_mat(4);
    let bins = DistanceBins::new(vec![0.5, 1.0, 2.0, 5.0]);
    let bin_normals = rand_mat(bins.len());
    let locations: Vec<Location> = (0..n)
        .map(|i| Location::new(103.8 + i as f64 * 1e-3, 1.35))
        .collect();
    let grid = GridIndex::build(&locations, 1.0);
    EmbeddingStore {
        pois,
        relations,
        bin_normals,
        relation_names: vec!["serve".into(), "compete".into(), "complement".into()],
        locations,
        bins,
        use_distance_scoring: true,
        grid,
        ann: None,
    }
}

/// `count` pairs and their bins over an `n`-POI store.
fn pairs(count: usize, n: usize) -> (Vec<(u32, u32)>, Vec<usize>) {
    let pairs: Vec<(u32, u32)> = (0..count)
        .map(|i| ((i * 7 % n) as u32, ((i * 13 + 5) % n) as u32))
        .collect();
    let bins = (0..count).map(|i| i % 5).collect();
    (pairs, bins)
}

#[test]
fn a_warm_call_allocates_only_its_output() {
    const DIM: usize = 16;
    const COUNTS: [usize; 4] = [1, 3, 16, 200];
    let n = 64;
    let narrow = store(n, DIM, 1);
    let inputs: Vec<_> = COUNTS.iter().map(|&c| pairs(c, n)).collect();

    // A fresh thread's scratch is fitted to exactly this dim: the
    // reference scores.
    let want: Vec<Vec<f32>> = std::thread::scope(|s| {
        s.spawn(|| {
            inputs
                .iter()
                .map(|(p, b)| score_pairs_all(&narrow, p, b))
                .collect()
        })
        .join()
        .unwrap()
    });

    // This thread scores a wider store first, so its scratch is larger
    // than the narrow store needs; the scores must not change.
    let wide = store(n, 2 * DIM + 3, 2);
    for (p, b) in &inputs {
        score_pairs_all(&wide, p, b);
    }
    for ((p, b), want) in inputs.iter().zip(&want) {
        let got = score_pairs_all(&narrow, p, b);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(want), "{} pairs", p.len());
    }

    for (&count, (p, b)) in COUNTS.iter().zip(&inputs) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = score_pairs_all(&narrow, p, b);
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(out.len(), count * 4);
        assert_eq!(
            made, 1,
            "{count} pairs: {made} allocations, expected the output only"
        );
    }
}
