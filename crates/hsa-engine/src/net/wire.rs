//! The framed wire schema (DESIGN.md §13).
//!
//! Every frame is a big-endian length prefix followed by a fixed header
//! and a JSON payload:
//!
//! ```text
//! u32  len       bytes after this field (HEADER_LEN + payload length)
//! u8   version   PROTOCOL_VERSION
//! u8   kind      one of the `kind::*` bytes
//! u64  tenant    TenantId for tenant-scoped kinds, 0 otherwise
//! u64  corr      correlation id, echoed verbatim on the answer frame
//! [u8] payload   compact JSON of the kind-specific body
//! ```
//!
//! The header layout (version first, then kind/tenant/corr) is **frozen
//! across protocol versions**: a server that rejects `version` can still
//! read the correlation id and answer a well-addressed
//! [`WireError::UnsupportedVersion`] frame instead of dropping the
//! connection. Everything behind the header — the kind table and the
//! payload bodies — is owned by the version byte and free to evolve.
//!
//! Payload bodies are derived from the service's own [`Request`] /
//! [`Reply`] / [`ServiceError`] enums (the single source of truth for the
//! schema); this module only maps between those enums and frames. Unknown
//! kind bytes and undecodable payloads answer explicit error frames
//! ([`WireError`]), never a panic or a silent drop.
//!
//! There is one encoder and one decoder: [`FrameEncoder`] (bottoming out
//! in [`put_raw_frame`]) prints every frame, and [`FrameDecoder`]
//! reassembles every frame, whether the stream is a nonblocking reactor
//! socket or a blocking client. Byte identity on the wire holds by
//! construction, because no second printer exists to disagree.

use crate::service::{Reply, Request, ServiceError, TenantId};
use crate::session::SessionStats;
use crate::{EngineError, InstanceId};
use hsa_tree::{CostModel, CruTree};
use serde::{value, DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Header bytes after the length prefix: version, kind, tenant, corr.
pub const HEADER_LEN: usize = 1 + 1 + 8 + 8;

/// Default cap on `len` (a 60-second Zipf stream's largest tree payload is
/// well under 1 MiB; the cap only exists to bound a hostile prefix).
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Frame kind bytes. Client→server kinds have the high bit clear,
/// server→client kinds have it set; [`kind::ERROR`] is reserved at `0xFF`.
pub mod kind {
    /// Client handshake; answered by [`HELLO_ACK`].
    pub const HELLO: u8 = 0x01;
    /// [`crate::Request::Solve`].
    pub const SOLVE: u8 = 0x02;
    /// [`crate::Request::SolveById`].
    pub const SOLVE_BY_ID: u8 = 0x03;
    /// [`crate::Request::Frontier`].
    pub const FRONTIER: u8 = 0x04;
    /// [`crate::Request::FrontierById`].
    pub const FRONTIER_BY_ID: u8 = 0x05;
    /// [`crate::Request::Delta`] (tenant travels in the header).
    pub const DELTA: u8 = 0x06;
    /// Open a tenant session (tenant in the header, instance in the body).
    pub const OPEN_TENANT: u8 = 0x07;
    /// Close a tenant session (tenant in the header, empty body).
    pub const CLOSE_TENANT: u8 = 0x08;
    /// [`crate::Request::SolveAnytime`].
    pub const SOLVE_ANYTIME: u8 = 0x09;
    /// Handshake answer, carrying the server's frame cap.
    pub const HELLO_ACK: u8 = 0x81;
    /// [`crate::Reply::Solution`].
    pub const SOLUTION: u8 = 0x82;
    /// [`crate::Reply::Frontier`].
    pub const FRONTIER_REPLY: u8 = 0x83;
    /// [`crate::Reply::Applied`].
    pub const APPLIED: u8 = 0x84;
    /// A tenant session opened (empty body).
    pub const TENANT_OPENED: u8 = 0x85;
    /// A tenant session closed, with its final counters.
    pub const TENANT_CLOSED: u8 = 0x86;
    /// [`crate::Reply::Anytime`].
    pub const ANYTIME: u8 = 0x87;
    /// A [`super::WireError`] body.
    pub const ERROR: u8 = 0xFF;
}

/// A borrowed view of one frame inside a [`FrameDecoder`]'s buffer: the
/// fixed header plus the payload *in place* (no per-frame payload `Vec`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Protocol version byte.
    pub version: u8,
    /// Kind byte (`kind::*`).
    pub kind: u8,
    /// Tenant id for tenant-scoped kinds, 0 otherwise.
    pub tenant: u64,
    /// Correlation id, echoed on the answer.
    pub corr: u64,
    /// Kind-specific JSON body, borrowed from the decode buffer.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// An owned [`Frame`] (copies the payload) — the client's received
    /// value, which outlives the decoder's next refill.
    pub fn to_frame(&self) -> Frame {
        Frame {
            version: self.version,
            kind: self.kind,
            tenant: self.tenant,
            corr: self.corr,
            payload: self.payload.to_vec(),
        }
    }
}

/// One received frame, owned: the fixed header plus the raw payload
/// bytes ([`FrameRef::to_frame`], [`crate::net::Client::recv_raw`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version byte.
    pub version: u8,
    /// Kind byte (`kind::*`).
    pub kind: u8,
    /// Tenant id for tenant-scoped kinds, 0 otherwise.
    pub tenant: u64,
    /// Correlation id, echoed on the answer.
    pub corr: u64,
    /// Kind-specific JSON body (may be empty).
    pub payload: Vec<u8>,
}

/// What [`FrameDecoder::next`] found at the head of the buffer.
#[derive(Debug)]
pub enum Decoded<'a> {
    /// A complete frame (version/kind/payload still unvalidated),
    /// borrowed from the decode buffer and already consumed from it.
    Frame(FrameRef<'a>),
    /// The announced length exceeds the cap; the stream cannot be
    /// re-synchronised (the offending prefix is left in the buffer).
    Oversized(u32),
    /// The announced length is shorter than the fixed header; same
    /// desynchronisation story as [`Decoded::Oversized`].
    Undersized(u32),
}

/// Incremental frame reassembly over a nonblocking stream: bytes go in
/// whenever the socket is readable (any split, down to one byte at a
/// time), complete frames come out borrowed — no per-frame allocation.
/// One long-lived decoder per connection; the buffer is compacted and
/// reused across frames, so steady state costs zero allocations once the
/// high-water mark is reached.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends raw stream bytes (any fragmentation).
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads up to `chunk` bytes from `r` straight into the buffer
    /// (compacting first), returning what `read` returned. `Ok(0)` is
    /// end-of-stream.
    pub fn fill_from(&mut self, r: &mut impl Read, chunk: usize) -> io::Result<usize> {
        self.compact();
        let len = self.buf.len();
        self.buf.resize(len + chunk, 0);
        match r.read(&mut self.buf[len..]) {
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e)
            }
        }
    }

    /// Drops everything buffered (shutdown: frames not yet parsed are
    /// abandoned, matching a half-closed read side).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// The next complete frame, if the buffer holds one. `None` means
    /// more bytes are needed; [`Decoded::Oversized`]/[`Decoded::Undersized`]
    /// mean the stream is unrecoverable past this point.
    pub fn next(&mut self, max_frame_len: usize) -> Option<Decoded<'_>> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return None;
        }
        let p = self.pos;
        let len = u32::from_be_bytes(self.buf[p..p + 4].try_into().expect("4 bytes"));
        if (len as usize) < HEADER_LEN {
            return Some(Decoded::Undersized(len));
        }
        if len as usize > max_frame_len {
            return Some(Decoded::Oversized(len));
        }
        if avail < 4 + len as usize {
            return None;
        }
        let h = p + 4;
        let end = h + len as usize;
        self.pos = end;
        Some(Decoded::Frame(FrameRef {
            version: self.buf[h],
            kind: self.buf[h + 1],
            tenant: u64::from_be_bytes(self.buf[h + 2..h + 10].try_into().expect("8 bytes")),
            corr: u64::from_be_bytes(self.buf[h + 10..h + 18].try_into().expect("8 bytes")),
            payload: &self.buf[h + HEADER_LEN..end],
        }))
    }

    /// Reclaims the consumed prefix once it dominates the buffer, so the
    /// allocation is bounded by the largest in-flight frame, not by the
    /// total bytes ever streamed.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// A protocol-level error, carried in an [`kind::ERROR`] frame. The
/// explicit variants let a client react (back off on [`Quota`], renegotiate
/// on [`UnsupportedVersion`]) without parsing message strings.
///
/// [`Quota`]: WireError::Quota
/// [`UnsupportedVersion`]: WireError::UnsupportedVersion
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum WireError {
    /// The frame's version byte is not spoken here: `(got, want)`.
    UnsupportedVersion(u8, u8),
    /// The kind byte is not in this version's table.
    UnknownKind(u8),
    /// A length prefix exceeded the receiver's cap: `(len, max)`. The
    /// stream cannot be re-synchronised, so the sender of this error
    /// closes the connection right after it.
    Oversized(u64, u64),
    /// The payload failed to decode (detail message).
    Malformed(String),
    /// The per-tenant admission quota refused the request (tenant id) —
    /// the wire-level sibling of [`ServiceError::Saturated`].
    Quota(u64),
    /// The server's connection cap refused this connection at accept time
    /// (carries the cap). The refusal frame is the connection's only
    /// traffic; the socket closes right after it — the explicit overload
    /// mode that keeps the reactor's fd tables bounded instead of letting
    /// accept run into `EMFILE`.
    ConnLimit(u64),
    /// The service answered an error: `(stable code, display message)`.
    Service(String, String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnsupportedVersion(got, want) => {
                write!(
                    f,
                    "unsupported protocol version {got} (this side speaks {want})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Oversized(len, max) => {
                write!(f, "frame length {len} exceeds the cap {max}")
            }
            WireError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
            WireError::Quota(tenant) => {
                write!(f, "tenant-{tenant} admission quota exceeded")
            }
            WireError::ConnLimit(cap) => {
                write!(f, "server connection cap {cap} reached, connection refused")
            }
            WireError::Service(code, msg) => write!(f, "service error [{code}]: {msg}"),
        }
    }
}

/// The stable machine-readable code a [`ServiceError`] travels under.
pub fn service_error_code(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Engine(EngineError::UnknownInstance { .. }) => "engine.unknown_instance",
        ServiceError::Engine(EngineError::HashCollision { .. }) => "engine.hash_collision",
        ServiceError::Engine(_) => "engine.assign",
        ServiceError::Apply(_) => "apply",
        ServiceError::UnknownTenant(_) => "unknown_tenant",
        ServiceError::TenantExists(_) => "tenant_exists",
        ServiceError::VerifyFailed { .. } => "verify_failed",
        ServiceError::Saturated => "saturated",
    }
}

impl From<&ServiceError> for WireError {
    fn from(e: &ServiceError) -> WireError {
        WireError::Service(service_error_code(e).to_string(), e.to_string())
    }
}

/// A client→server frame, decoded: either a request for the service or a
/// connection-level action the server handles itself.
#[derive(Debug)]
pub enum NetRequest {
    /// Handshake.
    Hello,
    /// Submit to [`crate::Service::submit`].
    Submit(Request),
    /// Open a tenant session on the carried instance.
    OpenTenant(TenantId, CruTree, CostModel),
    /// Close a tenant session.
    CloseTenant(TenantId),
}

/// A server→client frame, decoded.
// The size spread (an anytime Reply dwarfs HelloAck) is accepted: the
// enum lives for one match on the receive path, and boxing the large
// variant would cost an allocation per answered frame.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NetReply {
    /// Handshake answer: the server's frame cap.
    HelloAck(u64),
    /// A fulfilled request.
    Reply(Reply),
    /// A tenant session opened.
    TenantOpened,
    /// A tenant session closed, with its final counters.
    TenantClosed(SessionStats),
    /// An error frame.
    Error(WireError),
}

fn obj_value(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The payload body of a request, plus its kind byte and header tenant.
fn request_body(req: &Request) -> (u8, u64, Value) {
    match req {
        Request::Solve {
            tree,
            costs,
            lambda,
        } => (
            kind::SOLVE,
            0,
            obj_value(vec![
                ("tree", tree.to_value()),
                ("costs", costs.to_value()),
                ("lambda", lambda.to_value()),
            ]),
        ),
        Request::SolveById { id, lambda } => (
            kind::SOLVE_BY_ID,
            0,
            obj_value(vec![
                ("id", id.raw().to_value()),
                ("lambda", lambda.to_value()),
            ]),
        ),
        Request::Frontier { tree, costs } => (
            kind::FRONTIER,
            0,
            obj_value(vec![("tree", tree.to_value()), ("costs", costs.to_value())]),
        ),
        Request::FrontierById { id } => (
            kind::FRONTIER_BY_ID,
            0,
            obj_value(vec![("id", id.raw().to_value())]),
        ),
        Request::Delta {
            tenant,
            delta,
            lambda,
        } => (
            kind::DELTA,
            tenant.0,
            obj_value(vec![
                ("delta", delta.to_value()),
                ("lambda", lambda.to_value()),
            ]),
        ),
        Request::SolveAnytime {
            tree,
            costs,
            lambda,
            budget_ms,
        } => (
            kind::SOLVE_ANYTIME,
            0,
            obj_value(vec![
                ("tree", tree.to_value()),
                ("costs", costs.to_value()),
                ("lambda", lambda.to_value()),
                ("budget_ms", budget_ms.to_value()),
            ]),
        ),
    }
}

/// The payload body of a reply, plus its kind byte.
fn reply_body(reply: &Reply) -> (u8, Value) {
    match reply {
        Reply::Solution { id, solution } => (
            kind::SOLUTION,
            obj_value(vec![
                ("id", id.raw().to_value()),
                ("solution", solution.to_value()),
            ]),
        ),
        Reply::Frontier { id, frontier } => (
            kind::FRONTIER_REPLY,
            obj_value(vec![
                ("id", id.raw().to_value()),
                ("frontier", frontier.to_value()),
            ]),
        ),
        Reply::Applied { outcome, solution } => (
            kind::APPLIED,
            obj_value(vec![
                ("outcome", outcome.to_value()),
                ("solution", solution.to_value()),
            ]),
        ),
        Reply::Anytime { id, answer } => (
            kind::ANYTIME,
            obj_value(vec![
                ("id", id.raw().to_value()),
                ("answer", answer.to_value()),
            ]),
        ),
    }
}

/// An encoder with reusable scratch: frames go **appended** into a
/// caller-owned `Vec<u8>` (the per-connection write queue), the payload
/// JSON is printed into one retained `String` — steady state allocates
/// nothing per frame, and pipelined replies coalesce in the output buffer
/// for a single `write(2)`.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    json: String,
}

/// Appends one frame whose payload bytes are already encoded: length
/// prefix + header written fresh (big-endian), `payload` copied verbatim.
/// This is the hit path of the reactor's encode memo and the primitive
/// every [`FrameEncoder`] append bottoms out in.
pub fn put_raw_frame(out: &mut Vec<u8>, kind_: u8, tenant: u64, corr: u64, payload: &[u8]) {
    out.extend_from_slice(&((HEADER_LEN + payload.len()) as u32).to_be_bytes());
    out.extend_from_slice(&[PROTOCOL_VERSION, kind_]);
    out.extend_from_slice(&tenant.to_be_bytes());
    out.extend_from_slice(&corr.to_be_bytes());
    out.extend_from_slice(payload);
}

impl FrameEncoder {
    /// An encoder with empty scratch.
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    fn put_frame(
        &mut self,
        out: &mut Vec<u8>,
        kind: u8,
        tenant: u64,
        corr: u64,
        body: Option<&Value>,
    ) {
        self.json.clear();
        if let Some(v) = body {
            serde_json::to_string_into(v, &mut self.json)
                .expect("value-tree JSON printing is infallible");
        }
        put_raw_frame(out, kind, tenant, corr, self.json.as_bytes());
    }

    /// Appends a request frame. The tenant header field is taken from the
    /// request itself ([`Request::Delta`]); other kinds travel with
    /// tenant 0.
    pub fn put_request(&mut self, out: &mut Vec<u8>, corr: u64, req: &Request) {
        let (kind, tenant, body) = request_body(req);
        self.put_frame(out, kind, tenant, corr, Some(&body));
    }

    /// Appends a reply frame, returning its kind and the byte range the
    /// payload occupies inside `out` — callers that memoise encoded
    /// payloads (the reactor, for deterministic id-addressed answers) copy
    /// the range out and replay it later via [`put_raw_frame`],
    /// byte-identical by construction.
    pub fn put_reply(
        &mut self,
        out: &mut Vec<u8>,
        corr: u64,
        tenant: u64,
        reply: &Reply,
    ) -> (u8, std::ops::Range<usize>) {
        let (kind, body) = reply_body(reply);
        self.put_frame(out, kind, tenant, corr, Some(&body));
        (kind, out.len() - self.json.len()..out.len())
    }

    /// Appends an error frame.
    pub fn put_error(&mut self, out: &mut Vec<u8>, corr: u64, tenant: u64, err: &WireError) {
        self.put_frame(out, kind::ERROR, tenant, corr, Some(&err.to_value()));
    }

    /// Appends the handshake frame.
    pub fn put_hello(&mut self, out: &mut Vec<u8>, corr: u64) {
        self.put_frame(out, kind::HELLO, 0, corr, None);
    }

    /// Appends the handshake answer, carrying the server's frame cap.
    pub fn put_hello_ack(&mut self, out: &mut Vec<u8>, corr: u64, max_frame_len: usize) {
        let body = obj_value(vec![("max_frame_len", (max_frame_len as u64).to_value())]);
        self.put_frame(out, kind::HELLO_ACK, 0, corr, Some(&body));
    }

    /// Appends an open-tenant frame (instance in the body, tenant in the
    /// header).
    pub fn put_open_tenant(
        &mut self,
        out: &mut Vec<u8>,
        corr: u64,
        tenant: TenantId,
        tree: &CruTree,
        costs: &CostModel,
    ) {
        let body = obj_value(vec![("tree", tree.to_value()), ("costs", costs.to_value())]);
        self.put_frame(out, kind::OPEN_TENANT, tenant.0, corr, Some(&body));
    }

    /// Appends a close-tenant frame.
    pub fn put_close_tenant(&mut self, out: &mut Vec<u8>, corr: u64, tenant: TenantId) {
        self.put_frame(out, kind::CLOSE_TENANT, tenant.0, corr, None);
    }

    /// Appends the tenant-opened acknowledgement.
    pub fn put_tenant_opened(&mut self, out: &mut Vec<u8>, corr: u64, tenant: TenantId) {
        self.put_frame(out, kind::TENANT_OPENED, tenant.0, corr, None);
    }

    /// Appends the tenant-closed acknowledgement, carrying the session's
    /// counters.
    pub fn put_tenant_closed(
        &mut self,
        out: &mut Vec<u8>,
        corr: u64,
        tenant: TenantId,
        stats: &SessionStats,
    ) {
        let body = obj_value(vec![("stats", stats.to_value())]);
        self.put_frame(out, kind::TENANT_CLOSED, tenant.0, corr, Some(&body));
    }
}

/// The canonical wire JSON of a reply — what t13's byte-identity check
/// compares between a loopback answer and an in-process one.
pub fn reply_json(reply: &Reply) -> String {
    let mut out = Vec::new();
    let (_, payload) = FrameEncoder::new().put_reply(&mut out, 0, 0, reply);
    String::from_utf8(out.split_off(payload.start)).expect("wire JSON is UTF-8")
}

/// A decoded JSON object body: its `(key, value)` entries.
type Fields<'a> = &'a [(String, Value)];

fn body(payload: &[u8]) -> Result<Value, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Malformed(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str::<Value>(text).map_err(|e| WireError::Malformed(e.to_string()))
}

fn field<T: Deserialize>(m: Fields<'_>, name: &str) -> Result<T, WireError> {
    let v = value::field(m, name).map_err(|e| WireError::Malformed(e.to_string()))?;
    T::from_value(v).map_err(|e: DeError| WireError::Malformed(format!("{name}: {e}")))
}

fn as_map(v: &Value) -> Result<Fields<'_>, WireError> {
    v.as_map()
        .ok_or_else(|| WireError::Malformed("body is not a JSON object".to_string()))
}

/// Decodes a client→server frame from its header parts and borrowed
/// payload (the reactor decodes straight out of a connection's
/// reassembly buffer, a [`FrameRef`]). The version byte must already have
/// been checked by the caller, so a version mismatch can echo the
/// correlation id without attempting to parse a future payload layout.
pub fn decode_request_parts(
    kind_: u8,
    tenant: u64,
    payload: &[u8],
) -> Result<NetRequest, WireError> {
    let tenant = TenantId(tenant);
    // The kind picks a field reader first: empty-body kinds answer, and
    // unknown kinds refuse, before any payload parse.
    let read: fn(Fields<'_>, TenantId) -> Result<NetRequest, WireError> = match kind_ {
        kind::HELLO => return Ok(NetRequest::Hello),
        kind::CLOSE_TENANT => return Ok(NetRequest::CloseTenant(tenant)),
        kind::SOLVE => |m, _| {
            Ok(NetRequest::Submit(Request::solve_arc(
                Arc::new(field(m, "tree")?),
                Arc::new(field(m, "costs")?),
                field(m, "lambda")?,
            )))
        },
        kind::SOLVE_BY_ID => |m, _| {
            Ok(NetRequest::Submit(Request::solve_by_id(
                InstanceId::from_raw(field(m, "id")?),
                field(m, "lambda")?,
            )))
        },
        kind::FRONTIER => |m, _| {
            Ok(NetRequest::Submit(Request::frontier_arc(
                Arc::new(field(m, "tree")?),
                Arc::new(field(m, "costs")?),
            )))
        },
        kind::FRONTIER_BY_ID => |m, _| {
            Ok(NetRequest::Submit(Request::frontier_by_id(
                InstanceId::from_raw(field(m, "id")?),
            )))
        },
        kind::DELTA => |m, tenant| {
            Ok(NetRequest::Submit(Request::delta_arc(
                tenant,
                Arc::new(field(m, "delta")?),
                field(m, "lambda")?,
            )))
        },
        kind::SOLVE_ANYTIME => |m, _| {
            Ok(NetRequest::Submit(Request::solve_anytime_arc(
                Arc::new(field(m, "tree")?),
                Arc::new(field(m, "costs")?),
                field(m, "lambda")?,
                field(m, "budget_ms")?,
            )))
        },
        kind::OPEN_TENANT => |m, tenant| {
            Ok(NetRequest::OpenTenant(
                tenant,
                field(m, "tree")?,
                field(m, "costs")?,
            ))
        },
        k => return Err(WireError::UnknownKind(k)),
    };
    let v = body(payload)?;
    read(as_map(&v)?, tenant)
}

/// Decodes a server→client frame.
pub fn decode_server_frame(frame: &Frame) -> Result<NetReply, WireError> {
    // As for requests: the kind picks the reader before any payload parse.
    let read: fn(Fields<'_>) -> Result<NetReply, WireError> = match frame.kind {
        kind::TENANT_OPENED => return Ok(NetReply::TenantOpened),
        kind::ERROR => {
            let v = body(&frame.payload)?;
            let err = WireError::from_value(&v).map_err(|e| WireError::Malformed(e.to_string()))?;
            return Ok(NetReply::Error(err));
        }
        kind::HELLO_ACK => |m| Ok(NetReply::HelloAck(field(m, "max_frame_len")?)),
        kind::SOLUTION => |m| {
            Ok(NetReply::Reply(Reply::Solution {
                id: InstanceId::from_raw(field(m, "id")?),
                solution: field(m, "solution")?,
            }))
        },
        kind::FRONTIER_REPLY => |m| {
            Ok(NetReply::Reply(Reply::Frontier {
                id: InstanceId::from_raw(field(m, "id")?),
                frontier: field(m, "frontier")?,
            }))
        },
        kind::APPLIED => |m| {
            Ok(NetReply::Reply(Reply::Applied {
                outcome: field(m, "outcome")?,
                solution: field(m, "solution")?,
            }))
        },
        kind::ANYTIME => |m| {
            Ok(NetReply::Reply(Reply::Anytime {
                id: InstanceId::from_raw(field(m, "id")?),
                answer: field(m, "answer")?,
            }))
        },
        kind::TENANT_CLOSED => |m| Ok(NetReply::TenantClosed(field(m, "stats")?)),
        k => return Err(WireError::UnknownKind(k)),
    };
    let v = body(&frame.payload)?;
    read(as_map(&v)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_graph::Lambda;

    /// Six frames, each encoded on its own.
    fn sample_frames() -> Vec<Vec<u8>> {
        let sc = hsa_workloads::paper_scenario();
        let mut enc = FrameEncoder::new();
        let mut frames = vec![Vec::new(); 6];
        enc.put_hello(&mut frames[0], 1);
        enc.put_hello_ack(&mut frames[1], 1, DEFAULT_MAX_FRAME_LEN);
        let solve = Request::solve(&sc.tree, &sc.costs, Lambda::HALF);
        enc.put_request(&mut frames[2], 2, &solve);
        enc.put_request(&mut frames[3], 3, &Request::frontier(&sc.tree, &sc.costs));
        enc.put_error(&mut frames[4], 4, 9, &WireError::Quota(9));
        enc.put_tenant_opened(&mut frames[5], 5, TenantId(9));
        frames
    }

    /// A decoded frame printed back to bytes.
    fn reencode(f: &FrameRef<'_>) -> Vec<u8> {
        assert_eq!(f.version, PROTOCOL_VERSION);
        let mut out = Vec::new();
        put_raw_frame(&mut out, f.kind, f.tenant, f.corr, f.payload);
        out
    }

    /// The frozen header, pinned byte for byte: big-endian length prefix,
    /// then version, kind, tenant and corr, then the payload.
    #[test]
    fn header_layout_is_frozen() {
        let mut out = Vec::new();
        FrameEncoder::new().put_close_tenant(
            &mut out,
            0x0102_0304_0506_0708,
            TenantId(0x1112_1314_1516_1718),
        );
        put_raw_frame(&mut out, 0xAB, 7, 9, b"{}");
        #[rustfmt::skip]
        let golden = [
            0, 0, 0, 18,
            PROTOCOL_VERSION, kind::CLOSE_TENANT,
            0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18,
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
            0, 0, 0, 20,
            PROTOCOL_VERSION, 0xAB,
            0, 0, 0, 0, 0, 0, 0, 7,
            0, 0, 0, 0, 0, 0, 0, 9,
            b'{', b'}',
        ];
        assert_eq!(PROTOCOL_VERSION, 1);
        assert_eq!(out, golden);
    }

    /// Reassembly is fragmentation-blind: feeding the same byte stream
    /// one byte at a time yields exactly the frames that encoded it.
    #[test]
    fn decoder_reassembles_byte_at_a_time() {
        let frames = sample_frames();
        let stream = frames.concat();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in stream {
            dec.push(&[byte]);
            while let Some(d) = dec.next(DEFAULT_MAX_FRAME_LEN) {
                match d {
                    Decoded::Frame(f) => got.push(reencode(&f)),
                    other => panic!("unexpected decode: {other:?}"),
                }
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    /// Chunked feeds that split frames at every possible boundary of the
    /// first two frames still reassemble the whole stream.
    #[test]
    fn decoder_survives_all_split_points() {
        let frames = sample_frames();
        let stream = frames.concat();
        let cut_range = frames[0].len() + frames[1].len();
        for cut in 0..=cut_range {
            let mut dec = FrameDecoder::new();
            let mut got = 0usize;
            for part in [&stream[..cut], &stream[cut..]] {
                dec.push(part);
                while let Some(d) = dec.next(DEFAULT_MAX_FRAME_LEN) {
                    match d {
                        Decoded::Frame(_) => got += 1,
                        other => panic!("unexpected decode: {other:?}"),
                    }
                }
            }
            assert_eq!(got, frames.len(), "split at byte {cut}");
        }
    }

    /// A partial length prefix (under 4 bytes) never decodes.
    #[test]
    fn decoder_waits_for_the_length_prefix() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0, 0, 0]);
        assert!(dec.next(DEFAULT_MAX_FRAME_LEN).is_none());
        assert_eq!(dec.buffered(), 3);
    }

    /// Oversized and undersized prefixes surface as unrecoverable
    /// markers, even arriving after valid frames on the same stream.
    #[test]
    fn decoder_flags_bad_prefixes() {
        let mut good = Vec::new();
        FrameEncoder::new().put_hello(&mut good, 1);

        let mut dec = FrameDecoder::new();
        dec.push(&good);
        dec.push(
            &u32::try_from(DEFAULT_MAX_FRAME_LEN + 1)
                .unwrap()
                .to_be_bytes(),
        );
        assert!(matches!(
            dec.next(DEFAULT_MAX_FRAME_LEN),
            Some(Decoded::Frame(_))
        ));
        match dec.next(DEFAULT_MAX_FRAME_LEN) {
            Some(Decoded::Oversized(len)) => {
                assert_eq!(len as usize, DEFAULT_MAX_FRAME_LEN + 1);
            }
            other => panic!("expected oversized, got {other:?}"),
        }

        let mut dec = FrameDecoder::new();
        dec.push(&(HEADER_LEN as u32 - 1).to_be_bytes());
        assert!(matches!(
            dec.next(DEFAULT_MAX_FRAME_LEN),
            Some(Decoded::Undersized(_))
        ));
    }
}
