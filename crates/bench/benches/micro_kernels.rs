//! Microbenchmarks for the kernel layer underneath every model: the
//! cache-blocked matmul family versus the retained naive references, the
//! parallel segment primitives versus their serial references, and the
//! eager prediction path. These back the per-component cost claims in
//! DESIGN.md §5 and §7 and guard against performance regressions.
//!
//! Besides printing a table, the harness asserts bitwise parity between the
//! blocked/parallel kernels and their references (and a 2× floor over
//! naive on fma builds, for the 512³ product and for a training step's
//! narrow products at one thread), counts heap allocations
//! of a steady-state training step through a counting global allocator
//! (the pooled tape must stay within a small fixed budget), and records
//! every measurement in `BENCH_kernels.json` (sections `micro_kernels` and
//! `train_epoch`, path overridable via `PRIM_BENCH_JSON`) so before/after
//! numbers are diffable across commits.

use prim_bench::{emit, json};
use prim_core::{train_step, EpochSampler, ModelInputs, PrimConfig, PrimModel, TripleBatch};
use prim_data::{Dataset, Scale};
use prim_eval::Table;
use prim_graph::PoiId;
use prim_nn::Adam;
use prim_tensor::check::TestRng;
use prim_tensor::segment::{
    segment_max_into, segment_max_serial_into, segment_sum_into, segment_sum_serial_into,
};
use prim_tensor::{kernel, Graph, Matrix, SegmentPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wraps the system allocator and counts every allocation, so the harness
/// can verify that steady-state pooled training steps stay allocation-free
/// (up to a small fixed budget of bookkeeping vectors).
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Best-of-`reps` wall time in seconds (minimum filters scheduler noise).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn assert_bits_equal(name: &str, a: &Matrix, b: &Matrix) {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "{name}: shape mismatch"
    );
    let drift = a
        .data()
        .iter()
        .zip(b.data())
        .position(|(x, y)| x.to_bits() != y.to_bits());
    assert!(
        drift.is_none(),
        "{name}: optimised kernel drifts from reference at flat index {drift:?}"
    );
}

struct MatmulRecord {
    name: String,
    naive_s: f64,
    blocked_s: f64,
}

impl MatmulRecord {
    fn speedup(&self) -> f64 {
        self.naive_s / self.blocked_s
    }

    fn json(&self) -> String {
        json::obj(&[
            ("kernel", json::str(&self.name)),
            ("naive_ms", json::num(self.naive_s * 1e3)),
            ("blocked_ms", json::num(self.blocked_s * 1e3)),
            ("speedup", json::num(self.speedup())),
        ])
    }
}

/// Times all three matmul variants (blocked vs naive) at `m×k×n`, asserting
/// bitwise parity on every comparison.
fn bench_matmuls(m: usize, k: usize, n: usize, reps: usize, out: &mut Vec<MatmulRecord>) {
    let mut rng = TestRng::new(0xB1_0C + (m + k + n) as u64);
    let a = rng.matrix(m, k);
    let b = rng.matrix(k, n);
    let at = rng.matrix(k, m); // k×m operand for `matmul_tn` (computes aᵀb)
    let bt = rng.matrix(n, k); // n×k operand for `matmul_nt` (computes abᵀ)
    let dims = format!("{m}x{k}x{n}");

    assert_bits_equal(
        &format!("matmul_{dims}"),
        &a.matmul(&b),
        &a.matmul_naive(&b),
    );
    assert_bits_equal(
        &format!("matmul_tn_{dims}"),
        &at.matmul_tn(&b),
        &at.matmul_tn_naive(&b),
    );
    assert_bits_equal(
        &format!("matmul_nt_{dims}"),
        &a.matmul_nt(&bt),
        &a.matmul_nt_naive(&bt),
    );

    out.push(MatmulRecord {
        name: format!("matmul_{dims}"),
        naive_s: best_of(reps, || a.matmul_naive(&b)),
        blocked_s: best_of(reps, || a.matmul(&b)),
    });
    out.push(MatmulRecord {
        name: format!("matmul_tn_{dims}"),
        naive_s: best_of(reps, || at.matmul_tn_naive(&b)),
        blocked_s: best_of(reps, || at.matmul_tn(&b)),
    });
    out.push(MatmulRecord {
        name: format!("matmul_nt_{dims}"),
        naive_s: best_of(reps, || a.matmul_nt_naive(&bt)),
        blocked_s: best_of(reps, || a.matmul_nt(&bt)),
    });
}

/// The message projection of a quick-config training step at the
/// benchmark city's size (55,200 directed edges, 36 features, 24 message
/// columns) and its two backward products, blocked vs naive at one thread
/// with bitwise parity asserted: `matmul` (`E×36 · 36×24`), `matmul_tn`
/// (`(E×36)ᵀ · E×24`, the weight gradient, a 55,200-long reduction) and
/// `matmul_nt` (`E×24 · (36×24)ᵀ`, the input gradient). None of them is
/// 32 columns wide, so they run the narrow register tiles.
fn bench_training_matmuls(reps: usize, out: &mut Vec<MatmulRecord>) {
    let (e, k, n) = (55_200, 36, 24);
    let mut rng = TestRng::new(0x7EA1);
    let msg = rng.matrix(e, k);
    let w = rng.matrix(k, n);
    let g = rng.matrix(e, n);
    kernel::set_threads(1);
    assert_bits_equal("matmul_training", &msg.matmul(&w), &msg.matmul_naive(&w));
    assert_bits_equal(
        "matmul_tn_training",
        &msg.matmul_tn(&g),
        &msg.matmul_tn_naive(&g),
    );
    assert_bits_equal(
        "matmul_nt_training",
        &g.matmul_nt(&w),
        &g.matmul_nt_naive(&w),
    );
    out.push(MatmulRecord {
        name: format!("matmul_{e}x{k}x{n}_1t"),
        naive_s: best_of(reps, || msg.matmul_naive(&w)),
        blocked_s: best_of(reps, || msg.matmul(&w)),
    });
    out.push(MatmulRecord {
        name: format!("matmul_tn_{e}x{k}x{n}_1t"),
        naive_s: best_of(reps, || msg.matmul_tn_naive(&g)),
        blocked_s: best_of(reps, || msg.matmul_tn(&g)),
    });
    out.push(MatmulRecord {
        name: format!("matmul_nt_{e}x{n}x{k}_1t"),
        naive_s: best_of(reps, || g.matmul_nt_naive(&w)),
        blocked_s: best_of(reps, || g.matmul_nt(&w)),
    });
    kernel::set_threads(0);
}

struct SerialParRecord {
    name: String,
    serial_s: f64,
    parallel_s: f64,
    threads: usize,
}

impl SerialParRecord {
    fn speedup(&self) -> f64 {
        self.serial_s / self.parallel_s
    }

    fn json(&self) -> String {
        json::obj(&[
            ("kernel", json::str(&self.name)),
            ("serial_ms", json::num(self.serial_s * 1e3)),
            ("parallel_ms", json::num(self.parallel_s * 1e3)),
            ("threads", json::num(self.threads as f64)),
            ("speedup", json::num(self.speedup())),
        ])
    }
}

/// Serial-vs-parallel timings for the deterministic segment reductions:
/// segment-sum, the segment-softmax reduction pair, and the gather-rows
/// backward scatter-add. Every comparison asserts bitwise parity — the
/// output-partitioned kernels must match the serial references exactly at
/// any thread count (DESIGN.md §7). Sizes below `SEG_PAR_MIN_WORK` take the
/// serial path inside the parallel entry points, so small reductions can
/// never lose to their references.
fn bench_segment_parallel(
    par_threads: usize,
    n_edges: usize,
    n_nodes: usize,
    d: usize,
    out: &mut Vec<SerialParRecord>,
) {
    let mut rng = TestRng::new(3);
    let x = rng.matrix(n_edges, d);
    let seg: Vec<usize> = (0..n_edges).map(|_| rng.below(n_nodes)).collect();
    let plan = SegmentPlan::new(seg.clone(), n_nodes);
    let reps = 20;

    // Segment-sum: the aggregation behind every GNN message pass.
    let mut par = Matrix::zeros(n_nodes, d);
    let mut ser = Matrix::zeros(n_nodes, d);
    kernel::set_threads(par_threads);
    segment_sum_into(&x, &plan, &mut par);
    segment_sum_serial_into(&x, &seg, &mut ser);
    assert_bits_equal("segment_sum_parallel", &par, &ser);
    kernel::set_threads(1);
    let serial_s = best_of(reps, || {
        ser.fill_zero();
        segment_sum_serial_into(&x, &seg, &mut ser);
    });
    kernel::set_threads(par_threads);
    let parallel_s = best_of(reps, || {
        par.fill_zero();
        segment_sum_into(&x, &plan, &mut par);
    });
    out.push(SerialParRecord {
        name: format!("segment_sum_{n_edges}_edges_d{d}"),
        serial_s,
        parallel_s,
        threads: par_threads,
    });

    // Segment-softmax: max + sum reductions with identical scalar passes in
    // between, so the only difference between the two closures is the
    // reduction kernels themselves.
    let logits = rng.matrix(n_edges, 1);
    let mut stats = Matrix::zeros(n_nodes, 1);
    let mut y_par = Matrix::zeros(n_edges, 1);
    let mut y_ser = Matrix::zeros(n_edges, 1);
    let softmax_serial = |y: &mut Matrix, stats: &mut Matrix| {
        stats.fill(f32::NEG_INFINITY);
        segment_max_serial_into(&logits, &seg, stats);
        for (i, &s) in seg.iter().enumerate() {
            y.data_mut()[i] = (logits.data()[i] - stats.data()[s]).exp();
        }
        stats.fill_zero();
        segment_sum_serial_into(y, &seg, stats);
        for (i, &s) in seg.iter().enumerate() {
            y.data_mut()[i] /= stats.data()[s].max(1e-12);
        }
    };
    let softmax_parallel = |y: &mut Matrix, stats: &mut Matrix| {
        stats.fill(f32::NEG_INFINITY);
        segment_max_into(&logits, &plan, stats);
        for (i, &s) in seg.iter().enumerate() {
            y.data_mut()[i] = (logits.data()[i] - stats.data()[s]).exp();
        }
        stats.fill_zero();
        segment_sum_into(y, &plan, stats);
        for (i, &s) in seg.iter().enumerate() {
            y.data_mut()[i] /= stats.data()[s].max(1e-12);
        }
    };
    softmax_serial(&mut y_ser, &mut stats);
    kernel::set_threads(par_threads);
    softmax_parallel(&mut y_par, &mut stats);
    assert_bits_equal("segment_softmax_parallel", &y_par, &y_ser);
    kernel::set_threads(1);
    let serial_s = best_of(reps, || softmax_serial(&mut y_ser, &mut stats));
    kernel::set_threads(par_threads);
    let parallel_s = best_of(reps, || softmax_parallel(&mut y_par, &mut stats));
    out.push(SerialParRecord {
        name: format!("segment_softmax_{n_edges}_edges"),
        serial_s,
        parallel_s,
        threads: par_threads,
    });

    // Gather-rows backward: scatter-add of per-edge gradients into the
    // source table — the same output-partitioned reduction, driven by the
    // gather plan instead of a destination segment map.
    let upstream = rng.matrix(n_edges, d);
    let mut da_par = Matrix::zeros(n_nodes, d);
    let mut da_ser = Matrix::zeros(n_nodes, d);
    kernel::set_threads(par_threads);
    segment_sum_into(&upstream, &plan, &mut da_par);
    segment_sum_serial_into(&upstream, &seg, &mut da_ser);
    assert_bits_equal("gather_backward_scatter_add", &da_par, &da_ser);
    kernel::set_threads(1);
    let serial_s = best_of(reps, || {
        da_ser.fill_zero();
        segment_sum_serial_into(&upstream, &seg, &mut da_ser);
    });
    kernel::set_threads(par_threads);
    let parallel_s = best_of(reps, || {
        da_par.fill_zero();
        segment_sum_into(&upstream, &plan, &mut da_par);
    });
    out.push(SerialParRecord {
        name: format!("gather_backward_scatter_add_{n_edges}_d{d}"),
        serial_s,
        parallel_s,
        threads: par_threads,
    });
    kernel::set_threads(0);
}

struct TimedRecord {
    name: String,
    seconds: f64,
}

impl TimedRecord {
    fn json(&self) -> String {
        json::obj(&[
            ("kernel", json::str(&self.name)),
            ("ms", json::num(self.seconds * 1e3)),
        ])
    }
}

fn bench_model_paths(out: &mut Vec<TimedRecord>) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.4, 5);
    let cfg = PrimConfig::quick();
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let model = PrimModel::new(cfg, &inputs);

    out.push(TimedRecord {
        name: "prim_forward_quick_city".into(),
        seconds: best_of(5, || model.embed(&inputs)),
    });

    let table = model.embed(&inputs);
    out.push(TimedRecord {
        name: "prim_score_pair_eager".into(),
        seconds: best_of(50, || {
            model.score_pair_eager(&table, PoiId(3), 0, PoiId(17), 1)
        }),
    });

    let n = ds.graph.num_pois() as u32;
    let mut rng = TestRng::new(7);
    let pairs: Vec<(PoiId, PoiId)> = (0..5_000)
        .map(|_| {
            (
                PoiId(rng.below(n as usize) as u32),
                PoiId(rng.below(n as usize) as u32),
            )
        })
        .collect();
    out.push(TimedRecord {
        name: "prim_predict_pairs_5k".into(),
        seconds: best_of(5, || model.predict_pairs(&table, &inputs, &pairs)),
    });
}

/// Steady-state pooled training steps may allocate only this many times —
/// small bookkeeping vectors (the `Binding`, per-layer head lists, a few
/// `ConcatCols` part lists), never the tape's value or gradient buffers.
const STEADY_ALLOC_BUDGET: u64 = 64;

/// Measures the full-batch PRIM training step on a fixed triple batch:
/// pooled tape vs a fresh tape per step (the pre-arena behaviour), serial
/// vs multi-threaded kernels, and the steady-state allocation count.
fn bench_train_epoch(par_threads: usize) -> String {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.4, 5);
    let cfg = PrimConfig::quick();
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let mut model = PrimModel::new(cfg, &inputs);

    // One fixed epoch of triples: resampling is per-epoch work outside the
    // steady-state path this section measures.
    let mut rng = StdRng::seed_from_u64(11);
    let et = EpochSampler::new(
        &ds.graph,
        ds.graph.edges(),
        inputs.n_pois,
        inputs.n_relations,
        model.config().omega,
        None,
    )
    .sample(&mut rng);
    let bins = inputs.pair_bins(&et.src, &et.dst, model.config());
    let batch = TripleBatch::from_vecs(&model, &inputs, et.src, et.rel, et.dst, bins, &et.labels);
    let grad_clip = model.config().grad_clip;
    let mut adam = Adam::new(model.config().lr).with_weight_decay(model.config().weight_decay);

    // Allocation counts at one thread (spawning workers allocates, which
    // would obscure the tape's own behaviour).
    kernel::set_threads(1);
    let mut g = Graph::new();
    let before = allocations();
    train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip);
    let first_step_allocs = allocations() - before;
    train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip);
    let before = allocations();
    train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip);
    let steady_allocs = allocations() - before;
    assert!(
        steady_allocs <= STEADY_ALLOC_BUDGET,
        "steady-state train step allocated {steady_allocs} times \
         (budget {STEADY_ALLOC_BUDGET}); the tape arena is leaking work to \
         the allocator"
    );

    // The pooled tape against the pre-arena behaviour (a fresh tape every
    // step, every buffer from the allocator), both on serial kernels. The
    // two alternate, one step each per round, so a burst of host load
    // lands on both sides rather than on one.
    let rounds = 9;
    let (mut pooled, mut fresh) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for _ in 0..rounds {
        pooled.push(best_of(1, || {
            train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip)
        }));
        fresh.push(best_of(1, || {
            let mut fresh = Graph::new();
            train_step(
                &mut model, &inputs, &mut fresh, &mut adam, &batch, grad_clip,
            )
        }));
    }
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        prim_bench::percentile(v, 0.5)
    };
    let (pooled_serial_s, fresh_serial_s) = (best(&pooled), best(&fresh));
    let (pooled_median_s, fresh_median_s) = (median(&mut pooled), median(&mut fresh));
    kernel::set_threads(par_threads);
    let pooled_par_s = best_of(8, || {
        train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip)
    });
    kernel::set_threads(0);

    let mut t = Table::new(
        "Steady-state training step (fixed batch)",
        &["variant", "ms", "allocs/step"],
    );
    t.row(&[
        "fresh tape, 1 thread".into(),
        format!("{:.3}", fresh_serial_s * 1e3),
        format!("{first_step_allocs}"),
    ]);
    t.row(&[
        "pooled tape, 1 thread".into(),
        format!("{:.3}", pooled_serial_s * 1e3),
        format!("{steady_allocs}"),
    ]);
    t.row(&[
        format!("pooled tape, {par_threads} threads"),
        format!("{:.3}", pooled_par_s * 1e3),
        format!("{steady_allocs}"),
    ]);
    emit(&t);

    json::obj(&[
        ("n_triples", json::num(batch.len() as f64)),
        ("n_pois", json::num(inputs.n_pois as f64)),
        ("threads", json::num(par_threads as f64)),
        ("hw_threads", json::num(hw_threads() as f64)),
        ("first_step_allocs", json::num(first_step_allocs as f64)),
        ("steady_allocs_per_step", json::num(steady_allocs as f64)),
        ("alloc_budget", json::num(STEADY_ALLOC_BUDGET as f64)),
        ("fresh_serial_ms", json::num(fresh_serial_s * 1e3)),
        ("pooled_serial_ms", json::num(pooled_serial_s * 1e3)),
        ("interleaved_rounds", json::num(rounds as f64)),
        ("fresh_serial_median_ms", json::num(fresh_median_s * 1e3)),
        ("pooled_serial_median_ms", json::num(pooled_median_s * 1e3)),
        ("pooled_parallel_ms", json::num(pooled_par_s * 1e3)),
        (
            "speedup_pooled_serial",
            json::num(fresh_serial_s / pooled_serial_s),
        ),
        (
            "speedup_pooled_serial_median",
            json::num(fresh_median_s / pooled_median_s),
        ),
        ("speedup_vs_fresh", json::num(fresh_serial_s / pooled_par_s)),
    ])
}

/// Physical threads the host offers — recorded alongside every timing so
/// speedups are read in context (a 1-core CI box cannot show parallel wins;
/// the CI bench-regression gate runs on multi-core runners).
fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Thread-scaling sweep of the pooled training step on the synthetic
/// Singapore-scale generator (`Dataset::scalability`): one fixed triple
/// batch, measured at 1/2/4/8 threads. `PRIM_BENCH_SCALE=full` runs the
/// 100k-POI city of the paper's scalability study; the default quick scale
/// keeps CI fast with a 20k-POI city.
fn bench_train_scaling() -> String {
    let (n_pois, rel_per_poi, max_triples) = match Scale::from_env() {
        Scale::Full => (100_000, 8, 262_144),
        Scale::Quick => (20_000, 4, 65_536),
    };
    let ds = Dataset::scalability(n_pois, rel_per_poi, 6);
    let cfg = PrimConfig::quick();
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let mut model = PrimModel::new(cfg, &inputs);

    let mut rng = StdRng::seed_from_u64(17);
    let et = EpochSampler::new(
        &ds.graph,
        ds.graph.edges(),
        inputs.n_pois,
        inputs.n_relations,
        model.config().omega,
        None,
    )
    .sample(&mut rng);
    let n = et.src.len().min(max_triples);
    let bins = inputs.pair_bins(&et.src[..n], &et.dst[..n], model.config());
    let batch = TripleBatch::new(
        &model,
        &inputs,
        &et.src[..n],
        &et.rel[..n],
        &et.dst[..n],
        &bins,
        &et.labels[..n],
    );
    let grad_clip = model.config().grad_clip;
    let mut adam = Adam::new(model.config().lr).with_weight_decay(model.config().weight_decay);
    let mut g = Graph::new();

    // Warm the tape arena and the worker pool before timing.
    kernel::set_threads(1);
    train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip);
    train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip);

    let reps = 3;
    let sweep = [1usize, 2, 4, 8];
    let mut times = Vec::new();
    for &threads in &sweep {
        kernel::set_threads(threads);
        times.push(best_of(reps, || {
            train_step(&mut model, &inputs, &mut g, &mut adam, &batch, grad_clip)
        }));
    }
    kernel::set_threads(0);
    let serial_s = times[0];

    let mut t = Table::new(
        format!("Pooled train step scaling ({n_pois} synthetic POIs)"),
        &["threads", "ms", "speedup vs 1 thread"],
    );
    let mut entries = Vec::new();
    for (&threads, &s) in sweep.iter().zip(&times) {
        t.row(&[
            format!("{threads}"),
            format!("{:.3}", s * 1e3),
            format!("{:.2}x", serial_s / s),
        ]);
        // More threads than the host has measure oversubscription, not
        // scaling; the flag says so and no gate reads those entries.
        entries.push(json::obj(&[
            ("threads", json::num(threads as f64)),
            ("ms", json::num(s * 1e3)),
            ("comparable", (threads <= hw_threads()).to_string()),
            ("speedup_vs_serial", json::num(serial_s / s)),
        ]));
    }
    emit(&t);

    json::obj(&[
        ("n_pois", json::num(n_pois as f64)),
        ("n_triples", json::num(batch.len() as f64)),
        ("hw_threads", json::num(hw_threads() as f64)),
        ("entries", json::arr(&entries)),
    ])
}

fn main() {
    prim_bench::ensure_run_report("micro_kernels");
    let threads = kernel::configured_threads();
    let par_threads = threads.max(4);
    let mut matmuls = Vec::new();
    bench_matmuls(256, 128, 64, 10, &mut matmuls);
    bench_matmuls(512, 512, 512, 4, &mut matmuls);
    bench_training_matmuls(5, &mut matmuls);

    let mut segments = Vec::new();
    // One size well above the SEG_PAR_MIN_WORK threshold (parallel path) and
    // one below it (the parallel entry points fall through to the serial
    // loop, so small reductions pay no pool overhead).
    bench_segment_parallel(par_threads, 40_000, 2_000, 32, &mut segments);
    bench_segment_parallel(par_threads, 4_000, 500, 8, &mut segments);

    let mut others = Vec::new();
    bench_model_paths(&mut others);

    let mut t = Table::new(
        "Micro-kernels: optimised vs reference",
        &["kernel", "reference (ms)", "optimised (ms)", "speedup"],
    );
    for r in &matmuls {
        t.row(&[
            r.name.clone(),
            format!("{:.3}", r.naive_s * 1e3),
            format!("{:.3}", r.blocked_s * 1e3),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    for r in &segments {
        t.row(&[
            format!("{} ({}t)", r.name, r.threads),
            format!("{:.3}", r.serial_s * 1e3),
            format!("{:.3}", r.parallel_s * 1e3),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    for r in &others {
        t.row(&[
            r.name.clone(),
            "-".into(),
            format!("{:.4}", r.seconds * 1e3),
            "-".into(),
        ]);
    }
    emit(&t);

    // Acceptance shape: the blocked kernel must beat the naive reference by
    // >=2x on the 512^3 multiply (with bitwise-identical output, asserted
    // above) — the headline claim of the kernel rework. Only asserted on
    // fma-enabled builds: without fused multiply-add the naive axpy loop
    // already saturates the same ALU ceiling as the register tiles.
    let headline = matmuls
        .iter()
        .find(|r| r.name == "matmul_512x512x512")
        .expect("512^3 matmul record");
    // The same floor for the narrow training-step products at one thread,
    // which only the narrow register tiles and the transposed `nt` path
    // reach.
    let narrow = matmuls.iter().filter(|r| r.name.ends_with("_1t"));
    if kernel::fused_multiply_add() {
        assert!(
            headline.speedup() >= 2.0,
            "512^3 blocked matmul speedup {:.2}x < 2x over naive",
            headline.speedup()
        );
        for r in narrow {
            assert!(
                r.speedup() >= 2.0,
                "{} blocked speedup {:.2}x < 2x over naive at one thread",
                r.name,
                r.speedup()
            );
        }
    } else {
        eprintln!(
            "note: fma not enabled in this build; skipping the 2x speedup assertion \
             ({:.2}x measured)",
            headline.speedup()
        );
    }

    let section = json::obj(&[
        ("threads", json::num(threads as f64)),
        ("hw_threads", json::num(hw_threads() as f64)),
        (
            "matmul",
            json::arr(&matmuls.iter().map(MatmulRecord::json).collect::<Vec<_>>()),
        ),
        (
            "segment",
            json::arr(
                &segments
                    .iter()
                    .map(SerialParRecord::json)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "ops",
            json::arr(&others.iter().map(TimedRecord::json).collect::<Vec<_>>()),
        ),
    ]);
    let path = json::bench_json_path("BENCH_kernels.json");
    json::update_section(&path, "micro_kernels", &section);

    let train_section = bench_train_epoch(par_threads);
    json::update_section(&path, "train_epoch", &train_section);
    let scaling_section = bench_train_scaling();
    json::update_section(&path, "train_scaling", &scaling_section);
    println!(
        "micro_kernels: parity, speedup and allocation checks passed; recorded to {}",
        path.display()
    );
}
