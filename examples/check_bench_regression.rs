//! CI bench-regression gate over the bench JSON reports.
//!
//! ```text
//! cargo run --release --example check_bench_regression -- [path ...]
//! ```
//!
//! Each argument is a bench JSON file (default: `BENCH_kernels.json`).
//! Gates are dispatched by the top-level sections present in each file,
//! so the same binary checks every report the bench suite writes:
//!
//! `train_epoch` / `micro_kernels` (from `micro_kernels`):
//!
//! * `train_epoch.speedup_vs_fresh` — one pooled multi-thread training step
//!   vs the pre-arena baseline (fresh tape, serial kernels) — must be at
//!   least 1.0: batch-level parallelism must never make training slower
//!   than the code it replaced. On hosts with fewer than 4 hardware threads a
//!   parallel win is physically impossible, so the gate falls back to
//!   requiring `speedup_pooled_serial >= 1.0` (the arena itself must still
//!   pay for itself).
//! * Segment reductions below the `SEG_PAR_MIN_WORK` threshold share the
//!   serial code path with their references, so their measured ratio is
//!   pure noise around 1.0 — anything under 0.8x means the threshold
//!   dispatch itself regressed.
//!
//! `topk_scaling` (from `topk_scaling`, written to `BENCH_topk.json`):
//!
//! * recall@10 vs the exact oracle must be ≥ 0.95 for both the quantized
//!   scan profile and the HNSW beam profile at every store tier;
//! * at the 200k-POI tier the ANN scan p99 must beat the exact p99 — the
//!   quantized tier has to pay for itself where the store is dense;
//! * the beam profile's ANN p99 may grow at most 2x per tier while the
//!   store grows 10x — the fixed evaluation budget must keep broad-radius
//!   top-k near-flat (the exact path grows ~10x per tier there).
//!
//! `loadtest` (from the open-loop `loadtest` bench, `BENCH_loadtest.json`):
//!
//! * at least two connection tiers, each with at least three measured
//!   arrival rates and a positive saturation rate;
//! * every ladder point must be transport-error-free — sheds are load
//!   policy, errors are bugs;
//! * each tier carries an overload probe (2× saturation) whose shed rate
//!   is a sane fraction — overload must be answered, not dropped.
//!
//! `loadtest_smoke` (CI's low-rate end-to-end probe): lenient — some
//! requests completed, none errored.
//!
//! `ingest` (from the streaming-ingest bench, `BENCH_ingest.json`):
//!
//! * time-to-visibility of one onboarded POI through the incremental
//!   k-hop apply must be at least 5× faster than a full checkpoint
//!   reload (load + full re-embed + ANN build);
//! * fsynced WAL staging throughput must stay above a coarse floor.
//!
//! `failover` (from the warm-standby bench, `BENCH_failover.json`):
//!
//! * crash recovery of a 10×-longer mutation history must be at least
//!   1.25× faster with snapshot-coupled compaction than from the raw
//!   WAL — compaction must keep recovery time coupled to the snapshot
//!   cadence (one WAL segment), not to total history length;
//! * follower catch-up p99 must stay within 2.5× of the primary's
//!   flush interval — the standby keeps pace with the flush cadence,
//!   so steady-state lag stays bounded by roughly one interval;
//! * promotion must complete in under a second — flipping the standby
//!   to writable is a pointer swap, not a rebuild.
//!
//! `resilience` (from the resilience bench, `BENCH_resilience.json`):
//!
//! * the run killed mid-checkpoint must resume from a durable checkpoint
//!   past its first epoch and before its last (`1 ≤ resumed_at_epoch <
//!   epochs`) — recovery found the newest checkpoint that survived;
//! * the saved checkpoint must store at most 4.5 bytes per value
//!   (`ckpt_bytes ≤ 4.5 × ckpt_values`): the format keeps f32 and u32
//!   tensors at 4 bytes (4.19 measured), and a writer that widened them
//!   back to f64 reads about 8.1.
//!
//! Exits 0 on pass, 1 on regression, 2 on usage/parse errors.

use prim::obs::json;

fn fetch<'v>(root: &'v json::Value, path: &[&str]) -> Option<&'v json::Value> {
    let mut v = root;
    for key in path {
        v = v.get(key)?;
    }
    Some(v)
}

fn num(root: &json::Value, path: &[&str]) -> f64 {
    fetch(root, path)
        .and_then(json::Value::as_f64)
        .unwrap_or_else(|| {
            eprintln!("check_bench_regression: missing numeric field {path:?}");
            std::process::exit(2);
        })
}

fn check_kernels(root: &json::Value, failures: &mut Vec<String>) -> String {
    let threads = num(root, &["train_epoch", "threads"]);
    let hw = num(root, &["train_epoch", "hw_threads"]);
    let vs_fresh = num(root, &["train_epoch", "speedup_vs_fresh"]);
    let pooled_serial = num(root, &["train_epoch", "speedup_pooled_serial"]);
    if hw >= 4.0 && threads >= 4.0 {
        if vs_fresh < 1.0 {
            failures.push(format!(
                "train_epoch speedup_vs_fresh {vs_fresh:.3} < 1.0 at {threads} threads \
                 ({hw} hw threads): the pooled parallel step lost to the fresh-tape \
                 serial baseline"
            ));
        }
    } else if pooled_serial < 1.0 {
        failures.push(format!(
            "train_epoch speedup_pooled_serial {pooled_serial:.3} < 1.0: the pooled \
             tape lost to a fresh tape per step even serially ({hw} hw threads)"
        ));
    }

    // Below-threshold segment kernels: same code path as the serial
    // reference, so the ratio is noise around 1.0.
    if let Some(entries) = fetch(root, &["micro_kernels", "segment"]).and_then(|v| v.as_arr()) {
        for entry in entries {
            let name = entry.get("kernel").and_then(|v| v.as_str()).unwrap_or("?");
            let small = name.contains("_4000_");
            let speedup = entry
                .get("speedup")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0);
            if small && speedup < 0.8 {
                failures.push(format!(
                    "below-threshold segment kernel {name} at {speedup:.3}x (< 0.8x): \
                     the serial-path dispatch regressed"
                ));
            }
        }
    }
    format!("speedup_vs_fresh {vs_fresh:.3} at {threads} threads, {hw} hw threads")
}

fn check_topk(root: &json::Value, failures: &mut Vec<String>) -> String {
    let tiers = fetch(root, &["topk_scaling", "tiers"])
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| {
            eprintln!("check_bench_regression: missing topk_scaling.tiers array");
            std::process::exit(2);
        });
    if tiers.len() < 2 {
        failures.push(format!(
            "topk_scaling has {} tier(s); the scaling gates need at least two",
            tiers.len()
        ));
    }
    let mut prev_beam_p99 = f64::NAN;
    let mut summary = String::from("topk tiers:");
    for tier in tiers {
        let n = num(tier, &["n_pois"]);
        for profile in ["scan", "beam"] {
            let recall = num(tier, &[profile, "recall_at_10"]);
            if recall < 0.95 {
                failures.push(format!(
                    "topk tier {n}: {profile} recall@10 {recall:.4} < 0.95 vs the exact oracle"
                ));
            }
        }
        let scan_ann = num(tier, &["scan", "ann_p99_us"]);
        let scan_exact = num(tier, &["scan", "exact_p99_us"]);
        if n >= 200_000.0 && scan_ann >= scan_exact {
            failures.push(format!(
                "topk tier {n}: ANN scan p99 {scan_ann:.1}us does not beat exact \
                 p99 {scan_exact:.1}us"
            ));
        }
        let beam_p99 = num(tier, &["beam", "ann_p99_us"]);
        if prev_beam_p99.is_finite() && beam_p99 > prev_beam_p99 * 2.0 {
            failures.push(format!(
                "topk tier {n}: beam ANN p99 {beam_p99:.1}us grew more than 2x over \
                 the previous tier's {prev_beam_p99:.1}us"
            ));
        }
        prev_beam_p99 = beam_p99;
        summary.push_str(&format!(
            " [n {n} scan {scan_ann:.0}us/exact {scan_exact:.0}us beam {beam_p99:.0}us]"
        ));
    }
    summary
}

fn check_loadtest(root: &json::Value, failures: &mut Vec<String>) -> String {
    let tiers = fetch(root, &["loadtest", "tiers"])
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| {
            eprintln!("check_bench_regression: missing loadtest.tiers array");
            std::process::exit(2);
        });
    if tiers.len() < 2 {
        failures.push(format!(
            "loadtest has {} connection tier(s); the scaling story needs at least two",
            tiers.len()
        ));
    }
    let mut summary = String::from("loadtest tiers:");
    for tier in tiers {
        let conns = num(tier, &["conns"]);
        let rates = tier.get("rates").and_then(|v| v.as_arr()).unwrap_or(&[]);
        if rates.len() < 3 {
            failures.push(format!(
                "loadtest tier {conns}: {} rate point(s); the ladder needs at least three",
                rates.len()
            ));
        }
        for point in rates {
            let errors = num(point, &["errors"]);
            if errors > 0.0 {
                let rate = num(point, &["offered_rps"]);
                failures.push(format!(
                    "loadtest tier {conns} at {rate:.0} rps: {errors} transport errors \
                     (sheds are policy, errors are bugs)"
                ));
            }
        }
        let saturation = num(tier, &["saturation_rps"]);
        if saturation <= 0.0 {
            failures.push(format!(
                "loadtest tier {conns}: saturation_rps {saturation} is not positive"
            ));
        }
        let shed_rate = num(tier, &["overload", "shed_rate"]);
        if !(0.0..=1.0).contains(&shed_rate) {
            failures.push(format!(
                "loadtest tier {conns}: overload shed_rate {shed_rate} outside [0, 1]"
            ));
        }
        summary.push_str(&format!(
            " [{conns} conns: {} rates, saturates {saturation:.0} rps, \
             overload sheds {shed_rate:.2}]",
            rates.len()
        ));
    }
    summary
}

fn check_ingest(root: &json::Value, failures: &mut Vec<String>) -> String {
    let speedup = num(root, &["ingest", "speedup_visibility"]);
    let vis = num(root, &["ingest", "visibility_ms_mean"]);
    let reload = num(root, &["ingest", "full_reload_ms"]);
    let staged_per_sec = num(root, &["ingest", "staged_per_sec"]);
    let n_pois = num(root, &["ingest", "n_pois"]);
    if speedup < 5.0 {
        failures.push(format!(
            "ingest speedup_visibility {speedup:.2}x < 5.0x: incremental apply \
             ({vis:.1}ms) no longer clearly beats a full checkpoint reload \
             ({reload:.1}ms) at {n_pois} POIs"
        ));
    }
    if staged_per_sec < 100.0 {
        failures.push(format!(
            "ingest staged_per_sec {staged_per_sec:.0} < 100: fsynced WAL staging \
             throughput collapsed"
        ));
    }
    format!(
        "ingest: visibility {vis:.1}ms vs reload {reload:.1}ms ({speedup:.1}x), \
         staging {staged_per_sec:.0}/s at {n_pois} POIs"
    )
}

fn check_failover(root: &json::Value, failures: &mut Vec<String>) -> String {
    let speedup = num(root, &["failover", "compaction_speedup_10x"]);
    let compact_10x = num(root, &["failover", "recover_compact_10x_ms"]);
    let nocompact_10x = num(root, &["failover", "recover_nocompact_10x_ms"]);
    let flush_ms = num(root, &["failover", "flush_interval_ms"]);
    let lag_p99 = num(root, &["failover", "lag_ms_p99"]);
    let lag_p50 = num(root, &["failover", "lag_ms_p50"]);
    let promote_ms = num(root, &["failover", "promote_ms"]);
    if speedup < 1.25 {
        failures.push(format!(
            "failover compaction_speedup_10x {speedup:.2}x < 1.25x: recovery of the \
             compacted 10x history ({compact_10x:.1}ms) no longer clearly beats raw \
             WAL replay ({nocompact_10x:.1}ms) — compaction stopped decoupling \
             recovery time from history length"
        ));
    }
    if lag_p99 > flush_ms * 2.5 {
        failures.push(format!(
            "failover catch-up p99 {lag_p99:.1}ms > 2.5x the primary's flush \
             interval ({flush_ms:.1}ms): the standby cannot keep pace with the \
             flush cadence, so steady-state lag is unbounded"
        ));
    }
    if promote_ms > 1000.0 {
        failures.push(format!(
            "failover promote_ms {promote_ms:.1} > 1000: promotion should be a \
             pointer swap, not a rebuild"
        ));
    }
    format!(
        "failover: 10x recovery {compact_10x:.0}ms compacted vs {nocompact_10x:.0}ms \
         raw ({speedup:.1}x), catch-up p50 {lag_p50:.0}ms/p99 {lag_p99:.0}ms vs \
         flush {flush_ms:.0}ms, promote {promote_ms:.2}ms"
    )
}

fn check_resilience(root: &json::Value, failures: &mut Vec<String>) -> String {
    let resumed = num(root, &["resilience", "resumed_at_epoch"]);
    let epochs = num(root, &["resilience", "epochs"]);
    let bytes = num(root, &["resilience", "ckpt_bytes"]);
    let values = num(root, &["resilience", "ckpt_values"]);
    if resumed < 1.0 || resumed >= epochs {
        failures.push(format!(
            "resilience resumed_at_epoch {resumed} outside [1, {epochs}): the killed \
             run did not resume from a checkpoint it wrote"
        ));
    }
    let per_value = bytes / values;
    if per_value > 4.5 {
        failures.push(format!(
            "resilience checkpoint stores {per_value:.2} bytes per value ({bytes} B for \
             {values} values) > 4.5: tensors are no longer kept at their native width"
        ));
    }
    format!(
        "resilience: resumed at epoch {resumed} of {epochs}, checkpoint {bytes} B \
         ({per_value:.2} B per value)"
    )
}

fn check_loadtest_smoke(root: &json::Value, failures: &mut Vec<String>) -> String {
    let ok = num(root, &["loadtest_smoke", "point", "ok"]);
    let errors = num(root, &["loadtest_smoke", "point", "errors"]);
    let tenants = num(root, &["loadtest_smoke", "tenants"]);
    if ok < 1.0 {
        failures.push("loadtest_smoke completed no requests".to_string());
    }
    if errors > 0.0 {
        failures.push(format!("loadtest_smoke saw {errors} transport errors"));
    }
    format!("loadtest smoke: {tenants} tenant(s), {ok} ok, {errors} errors")
}

fn main() {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        paths.push("BENCH_kernels.json".to_string());
    }

    let mut failures = Vec::new();
    let mut summaries = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("check_bench_regression: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let root = json::parse(&text).unwrap_or_else(|e| {
            eprintln!("check_bench_regression: {path} is not valid JSON: {e}");
            std::process::exit(2);
        });
        let summary = if fetch(&root, &["topk_scaling"]).is_some() {
            check_topk(&root, &mut failures)
        } else if fetch(&root, &["loadtest"]).is_some() {
            let mut s = check_loadtest(&root, &mut failures);
            if fetch(&root, &["loadtest_smoke"]).is_some() {
                s.push_str("; ");
                s.push_str(&check_loadtest_smoke(&root, &mut failures));
            }
            s
        } else if fetch(&root, &["loadtest_smoke"]).is_some() {
            check_loadtest_smoke(&root, &mut failures)
        } else if fetch(&root, &["ingest"]).is_some() {
            check_ingest(&root, &mut failures)
        } else if fetch(&root, &["failover"]).is_some() {
            check_failover(&root, &mut failures)
        } else if fetch(&root, &["resilience"]).is_some() {
            check_resilience(&root, &mut failures)
        } else {
            check_kernels(&root, &mut failures)
        };
        summaries.push(format!("{path}: {summary}"));
    }

    if failures.is_empty() {
        for s in &summaries {
            println!("check_bench_regression: {s} — pass");
        }
    } else {
        for f in &failures {
            eprintln!("check_bench_regression: {f}");
        }
        std::process::exit(1);
    }
}
