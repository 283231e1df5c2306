//! The repository's benchmark: one command runs one workload as a fixed,
//! seeded amount of work and prints its metrics as the last line of
//! standard output.
//!
//! ```text
//! perfbench --workload query|onboard|train --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! passes and prints the per-layer metrics. See README.md.

mod alloc;
mod common;
mod fixture;
mod onboard;
mod procfs;
mod query;
mod read;
mod stats;
mod trace;
mod train;

use common::Outcome;
use prim_obs::json;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up repetitions of the served workloads before the timed phase,
/// and again after it; `setup_s` is the median of all of them. The two
/// groups are a timed phase apart, so they see more of the host's faster
/// and slower spells than one group would.
pub const SETUP_REPS_EACH_SIDE: usize = 3;

pub const WORKLOADS: [&str; 3] = ["query", "onboard", "train"];

/// `(name, unit)` of every end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
];

/// `(name, unit)` of every per-layer metric, printed by `--trace 1`. A
/// layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("server.self_us", "us"),
    ("proto.self_us", "us"),
    ("proto.allocs_per_req", "count"),
    ("engine.score_us", "us"),
    ("engine.batch_us", "us"),
    ("engine.topk_exact_us", "us"),
    ("engine.topk_scan_us", "us"),
    ("engine.topk_beam_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("kernel.ns_per_pair", "ns"),
    ("grid.within_radius_us", "us"),
    ("grid.candidates_per_topk", "count"),
    ("ann.visited_per_topk", "count"),
    ("ann.rescored_per_topk", "count"),
    ("ann.kept_ratio", "ratio"),
    ("ann.delta_rows", "count"),
    ("pool.parallel_runs_per_op", "count"),
    ("pool.worker_share", "ratio"),
    ("store.rebuild_ms", "ms"),
    ("store.embed_ms", "ms"),
    ("store.ann_build_ms", "ms"),
    ("store.peak_mb", "MiB"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_mutation", "B"),
    ("wal.segments_pruned", "count"),
    ("ingest.stage_self_us", "us"),
    ("ingest.apply_ms", "ms"),
    ("ingest.targets_per_flush", "count"),
    ("ingest.support_per_flush", "count"),
    ("ingest.frontier_share", "ratio"),
    ("ingest.reseals", "count"),
    ("ingest.snapshot_ms", "ms"),
    ("ingest.snapshot_mb", "MiB"),
    ("onboard.read_us", "us"),
    ("train.sampling_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("train.eval_ms", "ms"),
    ("train.allocs_per_step", "count"),
    ("train.triples_per_epoch", "count"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload query|onboard|train --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    // Only `onboard`'s cost depends on which allocator arena its serving
    // thread draws (see `alloc::single_arena`); the other workloads keep
    // glibc's default, under which `query` costs about 8% less.
    let one_arena = args.workload == "onboard" && alloc::single_arena();
    let host0 = procfs::host_cpu();
    println!(
        "# run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host: nproc={} cpu={:?} shards={} kernel_threads={} malloc_arenas={}",
        common::nproc(),
        procfs::cpu_model(),
        common::default_shards(),
        prim_tensor::kernel::configured_threads(),
        if one_arena { "1" } else { "default" }
    );

    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("query", false) => query::run(&args, &mut out),
        ("query", true) => query::run_traced(&args, &mut out),
        ("onboard", false) => onboard::run(&args, &mut out),
        ("onboard", true) => onboard::run_traced(&args, &mut out),
        ("train", false) => train::run(&args, &mut out),
        ("train", true) => train::run_traced(&args, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    if args.trace {
        out.metric("host.steal_pct", procfs::host_cpu().steal_pct_since(&host0));
    }

    for (k, v) in &out.record {
        println!("# {k}: {v}");
    }
    for e in &out.errors {
        println!("# error: {e}");
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in out.metrics.keys() {
        assert!(
            expected.iter().any(|(n, _)| n == name),
            "metric {name} is not in the list this run prints"
        );
    }
    let metrics: Vec<(&str, String)> = expected
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is {value}");
            let value = format!("{value}");
            (
                name,
                json::obj(&[("value", value), ("unit", json::str(unit))]),
            )
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        json::obj(&[
            ("correct", correct.to_string()),
            ("attempted", json::int(out.attempted)),
            ("failed", json::int(out.failed)),
            ("metrics", json::obj(&metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload query --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query", 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload train")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train --seed")).is_err());
    }

    /// The metric lists the binary prints are the ones `BENCHMARK.json`
    /// declares, in name and unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(|m| m.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(|w| w.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
