//! The serve protocol boundary is *total*: whatever bytes a client sends
//! — garbage, truncated JSON, oversized lines, frames split anywhere by
//! the transport — the server must answer every complete line with exactly
//! one well-formed JSON response and never panic. These properties are
//! what lets the event loop handle requests inline on its shard threads:
//! a panic there would take down every connection the shard owns.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_obs::json::{self, Value};
use prim_obs::Recorder;
use prim_serve::{
    handle_line, handle_request, serve_stdin, EmbeddingStore, EngineOpts, LineEvent, LineFramer,
    ServeCtx, ServeEngine, ServeLimits,
};
use proptest::prelude::*;
use std::io::Read;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One small engine context shared by every property below.
fn ctx() -> &'static ServeCtx {
    static CTX: OnceLock<ServeCtx> = OnceLock::new();
    CTX.get_or_init(|| {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.1, 3);
        let cfg = PrimConfig {
            dim: 8,
            cat_dim: 4,
            epochs: 1,
            val_check_every: 0,
            ..PrimConfig::quick()
        };
        let inputs = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        let model = PrimModel::new(cfg, &inputs);
        let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
        let engine = Arc::new(ServeEngine::new(
            store,
            &EngineOpts::default(),
            Recorder::enabled("proto-fuzz"),
        ));
        ServeCtx::direct(engine)
    })
}

/// Every response must be one line of valid JSON carrying a boolean "ok".
fn assert_well_formed(input: &str, response: &str) {
    assert!(
        !response.contains('\n'),
        "response to {input:?} spans lines: {response:?}"
    );
    let v = json::parse(response)
        .unwrap_or_else(|e| panic!("response to {input:?} is not JSON ({e}): {response:?}"));
    match v.get("ok") {
        Some(Value::Bool(_)) => {}
        other => panic!("response to {input:?} lacks boolean \"ok\": {other:?}"),
    }
}

/// A reader that hands out a byte stream in the same pieces the split
/// list cuts it into, then the remainder. Empty pieces are skipped: a
/// zero-byte read means EOF.
struct SplitReader<'a> {
    rest: &'a [u8],
    splits: std::slice::Iter<'a, usize>,
}

impl Read for SplitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut want = self.rest.len();
        for s in self.splits.by_ref() {
            let cut = s % (self.rest.len() + 1);
            if cut > 0 {
                want = cut;
                break;
            }
        }
        let n = want.min(buf.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// A pool of realistic request fragments so truncation/splitting hits the
/// interesting parse paths, not just instant `bad_request`.
const SEEDS: &[&str] = &[
    r#"{"op": "health"}"#,
    r#"{"op": "score", "src": 0, "dst": 1}"#,
    r#"{"op": "batch", "pairs": [[0, 1], [1, 2]]}"#,
    r#"{"op": "top_k", "src": 0, "k": 3, "radius_km": 0.5}"#,
    r#"{"op": "reload", "path": "/nonexistent/ckpt.prim"}"#,
    r#"{"op": "score", "src": 0, "dst": 1, "city": "beijing"}"#,
    r#"{"op": 42, "src": []}"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup (lossily decoded, as the framer would) never
    /// panics the handler and always yields one well-formed response.
    #[test]
    fn byte_soup_gets_a_structured_response(
        data in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let line = String::from_utf8_lossy(&data);
        if line.trim().is_empty() {
            return Ok(()); // the front ends skip blank lines before handling
        }
        let h = handle_line(ctx(), &line);
        assert_well_formed(&line, &h.response);
        prop_assert!(!h.shutdown || line.contains("shutdown"));
    }

    /// Any prefix of a realistic request — a frame truncated by a vanishing
    /// client — is answered with structured JSON, never a panic.
    #[test]
    fn truncated_requests_get_structured_errors(
        seed in 0..SEEDS.len(),
        raw_cut in 0usize..1_000_000,
    ) {
        let full = SEEDS[seed];
        let cut = raw_cut % full.len();
        // Cutting can land mid-UTF-8 only for ASCII seeds; all seeds are
        // ASCII so any cut is a valid str boundary.
        let line = &full[..cut];
        if line.trim().is_empty() {
            return Ok(());
        }
        let h = handle_line(ctx(), line);
        assert_well_formed(line, &h.response);
        prop_assert!(!h.shutdown);
    }

    /// An already-expired deadline still produces a well-formed response
    /// (the structured `deadline_exceeded` path) for any seed request.
    #[test]
    fn expired_deadlines_stay_structured(seed in 0..SEEDS.len()) {
        let h = handle_request(ctx(), SEEDS[seed], Some(Instant::now()));
        assert_well_formed(SEEDS[seed], &h.response);
    }

    /// Framing is chunk-invariant: however the transport splits the byte
    /// stream across reads, the framer emits the identical event sequence.
    /// This is the property that makes request handling independent of
    /// TCP segmentation.
    #[test]
    fn framer_is_split_invariant(
        lines in prop::collection::vec(
            prop::collection::vec(0u8..=255, 0..64), 0..8),
        splits in prop::collection::vec(0usize..1_000, 0..8),
        max_sel in 0usize..3,
    ) {
        let max = [0usize, 16, 48][max_sel];
        let mut stream = Vec::new();
        for l in &lines {
            stream.extend_from_slice(l);
            stream.push(b'\n');
        }

        let mut one_shot = Vec::new();
        let mut f = LineFramer::new(max);
        f.push(&stream, &mut |e| one_shot.push(e));

        let mut chunked = Vec::new();
        let mut f = LineFramer::new(max);
        let mut rest: &[u8] = &stream;
        for s in &splits {
            if rest.is_empty() {
                break;
            }
            let cut = s % (rest.len() + 1);
            f.push(&rest[..cut], &mut |e| chunked.push(e));
            rest = &rest[cut..];
        }
        f.push(rest, &mut |e| chunked.push(e));

        prop_assert_eq!(&one_shot, &chunked);
        // Complete (non-oversized) lines round-trip through the handler
        // without panicking, whatever bytes they held.
        for ev in &one_shot {
            match ev {
                LineEvent::Line(line) => {
                    let h = handle_line(ctx(), line);
                    assert_well_formed(line, &h.response);
                }
                LineEvent::Oversized(len) => prop_assert!(max > 0 && *len > max),
            }
        }

        // The stdin front end frames the same stream, read in the same
        // pieces, into one response line per framer event.
        let stdin_ctx = ctx().clone().with_limits(ServeLimits {
            max_line_bytes: max,
            ..ServeLimits::default()
        });
        let reader = SplitReader { rest: &stream, splits: splits.iter() };
        let mut out = Vec::new();
        serve_stdin(&stdin_ctx, reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let responses: Vec<&str> = text.lines().collect();
        prop_assert_eq!(responses.len(), one_shot.len(), "{}", text);
        for (ev, response) in one_shot.iter().zip(&responses) {
            assert_well_formed(&format!("{ev:?}"), response);
        }
    }

    /// Oversized lines are rejected at the bound and the framer resyncs:
    /// a request after the junk parses normally.
    #[test]
    fn oversized_lines_reject_then_resync(
        extra in 1usize..512,
        max in 16usize..64, // the health probe itself is 16 bytes
    ) {
        let junk_len = max + extra;
        let mut f = LineFramer::new(max);
        let mut events = Vec::new();
        f.push(&vec![b'x'; junk_len], &mut |e| events.push(e));
        f.push(b"\n", &mut |e| events.push(e));
        f.push(b"{\"op\": \"health\"}\n", &mut |e| events.push(e));
        prop_assert_eq!(events.len(), 2, "{:?}", events);
        prop_assert!(matches!(events[0], LineEvent::Oversized(_)));
        prop_assert_eq!(&events[1], &LineEvent::Line("{\"op\": \"health\"}".into()));
    }
}
