//! Property coverage of the wire codec (DESIGN.md §13).
//!
//! * **Round trip**: every [`Request`] and [`Reply`] variant, and every
//!   control frame (handshake, tenant open/close and their answers, every
//!   error body), survives [`FrameEncoder`] → [`FrameDecoder`] → decode →
//!   re-encode with byte-identical frames. Replies are real service
//!   answers (verify mode on), not hand-built values, so the payload
//!   schema is exercised at full depth — cuts, assignments, delay
//!   reports, frontier envelopes with exact rational breakpoints, session
//!   outcomes, anytime answers with their gap certificates.
//! * **Robustness**: arbitrary garbage bytes never panic or hang the
//!   frame decoder, and arbitrary headers/payloads never panic the
//!   payload decoders — malformed input always surfaces as a typed
//!   [`WireError`].
//!
//! Green under `PROPTEST_SEED` 1–3 (and the default stream).

use hsa_engine::net::wire::{
    self, Decoded, Frame, FrameDecoder, FrameEncoder, NetReply, NetRequest, WireError,
};
use hsa_engine::{Engine, EngineConfig, Reply, Request, Service, ServiceConfig, TenantId};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CruId, Delta};
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use proptest::prelude::*;
use proptest::TestCaseError;

fn small_instance(seed: u64) -> (hsa_tree::CruTree, hsa_tree::CostModel) {
    random_instance(
        &RandomTreeParams {
            n_crus: 10,
            n_satellites: 3,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        seed,
    )
}

fn fail(what: &str) -> impl FnOnce(WireError) -> TestCaseError + '_ {
    move |e| TestCaseError::fail(format!("{what}: {e}"))
}

/// Parses `bytes` as exactly one frame through the decoder. The byte
/// layer must be lossless: the decoded header and payload print back to
/// the very same bytes.
fn parse_one(bytes: &[u8]) -> Result<Frame, TestCaseError> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let frame = match dec.next(wire::DEFAULT_MAX_FRAME_LEN) {
        Some(Decoded::Frame(f)) => f.to_frame(),
        other => {
            return Err(TestCaseError::fail(format!(
                "encoded frame did not parse: {other:?}"
            )))
        }
    };
    prop_assert_eq!(dec.buffered(), 0, "a frame must consume exactly its bytes");
    prop_assert_eq!(frame.version, wire::PROTOCOL_VERSION);
    let mut again = Vec::new();
    wire::put_raw_frame(
        &mut again,
        frame.kind,
        frame.tenant,
        frame.corr,
        &frame.payload,
    );
    prop_assert_eq!(&again[..], bytes, "frame changed across the byte layer");
    Ok(frame)
}

/// Decodes a client→server frame and prints it back with the encoder.
fn reencode_request(frame: &Frame) -> Result<Vec<u8>, TestCaseError> {
    let decoded = wire::decode_request_parts(frame.kind, frame.tenant, &frame.payload)
        .map_err(fail("request decode failed"))?;
    let (mut enc, mut out) = (FrameEncoder::new(), Vec::new());
    match decoded {
        NetRequest::Hello => enc.put_hello(&mut out, frame.corr),
        NetRequest::Submit(req) => enc.put_request(&mut out, frame.corr, &req),
        NetRequest::OpenTenant(tenant, tree, costs) => {
            enc.put_open_tenant(&mut out, frame.corr, tenant, &tree, &costs)
        }
        NetRequest::CloseTenant(tenant) => enc.put_close_tenant(&mut out, frame.corr, tenant),
    }
    Ok(out)
}

/// Decodes a server→client frame and prints it back with the encoder.
fn reencode_server(frame: &Frame) -> Result<Vec<u8>, TestCaseError> {
    let decoded = wire::decode_server_frame(frame).map_err(fail("server decode failed"))?;
    let (corr, tenant) = (frame.corr, frame.tenant);
    let (mut enc, mut out) = (FrameEncoder::new(), Vec::new());
    match decoded {
        NetReply::HelloAck(cap) => enc.put_hello_ack(&mut out, corr, usize::try_from(cap).unwrap()),
        NetReply::Reply(reply) => {
            enc.put_reply(&mut out, corr, tenant, &reply);
        }
        NetReply::TenantOpened => enc.put_tenant_opened(&mut out, corr, TenantId(tenant)),
        NetReply::TenantClosed(stats) => {
            enc.put_tenant_closed(&mut out, corr, TenantId(tenant), &stats)
        }
        NetReply::Error(err) => enc.put_error(&mut out, corr, tenant, &err),
    }
    Ok(out)
}

/// encode → wire bytes → parse → decode → re-encode must reproduce the
/// frame byte-for-byte (the codec is canonical on its own output).
fn roundtrip(
    bytes: &[u8],
    reencode: fn(&Frame) -> Result<Vec<u8>, TestCaseError>,
) -> Result<(), TestCaseError> {
    let frame = parse_one(bytes)?;
    let again = reencode(&frame)?;
    prop_assert_eq!(
        &again[..],
        bytes,
        "kind {:#04x} round trip is not byte-identical",
        frame.kind
    );
    Ok(())
}

fn roundtrip_request(req: &Request, corr: u64) -> Result<(), TestCaseError> {
    let mut bytes = Vec::new();
    FrameEncoder::new().put_request(&mut bytes, corr, req);
    let frame = parse_one(&bytes)?;
    let decoded = wire::decode_request_parts(frame.kind, frame.tenant, &frame.payload)
        .map_err(fail("decode failed"))?;
    prop_assert!(
        matches!(decoded, NetRequest::Submit(_)),
        "request decoded as a control frame"
    );
    roundtrip(&bytes, reencode_request)
}

fn roundtrip_reply(reply: &Reply, corr: u64, tenant: u64) -> Result<(), TestCaseError> {
    let mut bytes = Vec::new();
    FrameEncoder::new().put_reply(&mut bytes, corr, tenant, reply);
    let frame = parse_one(&bytes)?;
    let decoded = wire::decode_server_frame(&frame).map_err(fail("decode failed"))?;
    prop_assert!(
        matches!(decoded, NetReply::Reply(_)),
        "reply decoded as a control frame"
    );
    roundtrip(&bytes, reencode_server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every request variant, and every client→server control frame,
    /// round-trips byte-identically.
    #[test]
    fn every_request_variant_roundtrips(
        seed in 0u64..500,
        corr in 0u64..u64::MAX,
        raw_id in 0u64..u64::MAX,
        lam in 0u32..=8,
        budget_ms in 0u64..10_000,
    ) {
        let (tree, costs) = small_instance(seed);
        let lambda = Lambda::new(lam, 8).unwrap();
        let id = hsa_engine::InstanceId::from_raw(raw_id);
        let delta = Delta::new().set_host_time(CruId(0), Cost::new(seed % 997 + 1));
        let requests = [
            Request::solve(&tree, &costs, lambda),
            Request::solve_by_id(id, lambda),
            Request::frontier(&tree, &costs),
            Request::frontier_by_id(id),
            Request::delta(TenantId(seed), delta, lambda),
            Request::solve_anytime(&tree, &costs, lambda, budget_ms),
        ];
        for req in &requests {
            roundtrip_request(req, corr)?;
        }

        let mut enc = FrameEncoder::new();
        let mut control = vec![Vec::new(); 3];
        enc.put_hello(&mut control[0], corr);
        enc.put_open_tenant(&mut control[1], corr, TenantId(seed), &tree, &costs);
        enc.put_close_tenant(&mut control[2], corr, TenantId(seed));
        for bytes in &control {
            roundtrip(bytes, reencode_request)?;
        }
    }

    /// Every reply variant — produced by a real verify-mode service, so
    /// the payloads carry full solutions, frontiers and anytime
    /// certificates — round-trips byte-identically, and so does every
    /// server→client control frame and error body.
    #[test]
    fn every_reply_variant_roundtrips(
        seed in 0u64..500,
        corr in 0u64..u64::MAX,
        lam in 0u32..=8,
    ) {
        let (tree, costs) = small_instance(seed);
        let lambda = Lambda::new(lam, 8).unwrap();
        let engine = std::sync::Arc::new(Engine::new(EngineConfig::default()));
        let service = Service::new(engine, ServiceConfig {
            workers: 1,
            verify: true,
            ..ServiceConfig::default()
        });
        let tenant = TenantId(seed);
        service.open_tenant(tenant, &tree, &costs).unwrap();
        let delta = Delta::new().set_host_time(tree.root(), Cost::new(seed % 997 + 1));
        let replies = [
            service.submit(Request::solve(&tree, &costs, lambda)).wait().unwrap(),
            service.submit(Request::frontier(&tree, &costs)).wait().unwrap(),
            service.submit(Request::delta(tenant, delta, lambda)).wait().unwrap(),
            service
                .submit(Request::solve_anytime(&tree, &costs, lambda, 1_000))
                .wait()
                .unwrap(),
        ];
        prop_assert!(matches!(replies[3], Reply::Anytime { .. }));
        for reply in &replies {
            roundtrip_reply(reply, corr, tenant.0)?;
        }

        let stats = service.close_tenant(tenant).unwrap();
        let refused = service
            .submit(Request::delta(tenant, Delta::new(), lambda))
            .wait()
            .expect_err("a closed tenant refuses deltas");
        let errors = [
            WireError::from(&refused),
            WireError::UnsupportedVersion(lam as u8, wire::PROTOCOL_VERSION),
            WireError::UnknownKind(seed as u8),
            WireError::Oversized(corr, seed),
            WireError::Malformed(format!("bad \"payload\"\n#{seed} – ü")),
            WireError::Quota(tenant.0),
            WireError::ConnLimit(seed),
        ];
        let mut enc = FrameEncoder::new();
        let mut control = vec![Vec::new(); 3];
        enc.put_hello_ack(&mut control[0], corr, usize::try_from(corr >> 16).unwrap());
        enc.put_tenant_opened(&mut control[1], corr, tenant);
        enc.put_tenant_closed(&mut control[2], corr, tenant, &stats);
        for err in &errors {
            let mut frame = Vec::new();
            enc.put_error(&mut frame, corr, tenant.0, err);
            control.push(frame);
        }
        for bytes in &control {
            roundtrip(bytes, reencode_server)?;
        }
    }

    /// Arbitrary bytes: the frame decoder stops within a bounded number
    /// of steps without panicking, each outcome is the typed one its
    /// prefix calls for, every byte is either consumed as a frame or still
    /// buffered, and whatever frame it produces decodes to a value or a
    /// typed error — never a panic.
    #[test]
    fn garbage_never_panics_the_codec(
        bytes in proptest::collection::vec(0u8..=255, 256),
        len in 0usize..=256,
    ) {
        const MAX: usize = 4096;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..len]);
        let mut consumed = 0usize;
        let mut stopped = false;
        // Every frame consumes at least a prefix and a header, which
        // bounds how many steps a terminating decoder can take.
        for _ in 0..=len / (4 + wire::HEADER_LEN) {
            match dec.next(MAX) {
                Some(Decoded::Frame(f)) => {
                    consumed += 4 + wire::HEADER_LEN + f.payload.len();
                    let frame = f.to_frame();
                    if let Err(e) =
                        wire::decode_request_parts(frame.kind, frame.tenant, &frame.payload)
                    {
                        prop_assert!(matches!(e, WireError::UnknownKind(_) | WireError::Malformed(_)));
                    }
                    if let Err(e) = wire::decode_server_frame(&frame) {
                        prop_assert!(matches!(e, WireError::UnknownKind(_) | WireError::Malformed(_)));
                    }
                }
                Some(Decoded::Oversized(n)) => {
                    prop_assert!(n as usize > MAX);
                    stopped = true;
                    break;
                }
                Some(Decoded::Undersized(n)) => {
                    prop_assert!((n as usize) < wire::HEADER_LEN);
                    stopped = true;
                    break;
                }
                None => {
                    stopped = true;
                    break;
                }
            }
        }
        prop_assert!(stopped, "the decoder kept producing frames past its input");
        prop_assert_eq!(consumed + dec.buffered(), len);
    }

    /// Incremental reassembly is fragmentation-blind: a frame stream cut
    /// into arbitrary chunks (the decoder's nonblocking-read diet) comes
    /// back out as exactly the frames that went in, byte-identically —
    /// and mid-frame truncation simply leaves the tail buffered.
    #[test]
    fn fragmented_streams_reassemble_byte_identically(
        seed in 0u64..500,
        lam in 0u32..=8,
        cuts in proptest::collection::vec(1usize..64, 16),
        truncate in 0usize..32,
    ) {
        let (tree, costs) = small_instance(seed);
        let lambda = Lambda::new(lam, 8).unwrap();
        let mut enc = FrameEncoder::new();
        let mut frames = vec![Vec::new(); 4];
        enc.put_hello(&mut frames[0], 1);
        enc.put_request(&mut frames[1], 2, &Request::solve(&tree, &costs, lambda));
        enc.put_request(&mut frames[2], 3, &Request::frontier(&tree, &costs));
        enc.put_error(&mut frames[3], 4, 7, &WireError::Quota(7));
        let stream = frames.concat();
        // Drop up to `truncate` tail bytes: the last frame may arrive cut.
        let cut_off = truncate.min(stream.len() - 1);
        let fed = &stream[..stream.len() - cut_off];

        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0usize;
        let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(17));
        while pos < fed.len() {
            let step = cut_iter.next().unwrap_or(17).min(fed.len() - pos);
            dec.push(&fed[pos..pos + step]);
            pos += step;
            while let Some(d) = dec.next(wire::DEFAULT_MAX_FRAME_LEN) {
                match d {
                    Decoded::Frame(f) => {
                        let mut out = Vec::new();
                        wire::put_raw_frame(&mut out, f.kind, f.tenant, f.corr, f.payload);
                        got.push(out);
                    }
                    other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
                }
            }
        }
        let whole = if cut_off == 0 { frames.len() } else { frames.len() - 1 };
        prop_assert!(got.len() >= whole, "lost complete frames to fragmentation");
        for (g, f) in got.iter().zip(&frames) {
            prop_assert_eq!(g, f);
        }
        // Whatever was withheld is still buffered, not silently dropped.
        let consumed: usize = got.iter().map(Vec::len).sum();
        prop_assert_eq!(consumed + dec.buffered(), fed.len());
    }

    /// Arbitrary headers over arbitrary payloads: unknown kinds and
    /// unparseable bodies answer typed errors.
    #[test]
    fn random_frames_decode_to_typed_errors(
        kind in 0u8..=255,
        tenant in 0u64..u64::MAX,
        corr in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 48),
        plen in 0usize..=48,
    ) {
        let frame = Frame {
            version: wire::PROTOCOL_VERSION,
            kind,
            tenant,
            corr,
            payload: payload[..plen].to_vec(),
        };
        if let Err(e) = wire::decode_request_parts(kind, tenant, &frame.payload) {
            prop_assert!(matches!(e, WireError::UnknownKind(_) | WireError::Malformed(_)));
        }
        if let Err(e) = wire::decode_server_frame(&frame) {
            prop_assert!(matches!(e, WireError::UnknownKind(_) | WireError::Malformed(_)));
        }
    }
}
