//! Real-socket federation transport.
//!
//! Everything the simulator accounts for — broadcasts, uploads, retries,
//! corrupted payloads — can instead travel over localhost TCP between the
//! engine (acting as the federation server) and a pool of client workers
//! (threads in this process or separate worker processes). The engine
//! selects the path through [`crate::engine::RunOptions::socket`]: `None`
//! keeps the closed-form accounting, a [`SocketConfig`] replaces it with
//! bytes measured at the socket.
//!
//! Design rules that keep socket runs bit-identical to in-process runs:
//!
//! * **All randomness stays in the engine.** The transport *enacts* an
//!   already-drawn [`RoundPlan`]; it never touches an RNG, so the
//!   sampling and fault streams are byte-for-byte the streams a plain
//!   run consumes, and checkpoint/resume replay works unchanged.
//! * **Faults are injected at the payload layer, on real frames.** A
//!   client planned as `DroppedAfterDownload` receives a broadcast with
//!   one byte flipped in transit; a planned upload failure has
//!   its report corrupted before server-side validation. The frame
//!   header stays consistent with what is actually sent, so the stream
//!   never desyncs — the damage surfaces exactly where the simulator
//!   says it does: payload validation (checksums, [`CompressError`])
//!   and lifecycle outcomes, never a panic.
//! * **Byte counters come from the wire.** The per-round [`RoundComm`]
//!   is accumulated from payload bytes as they cross the socket; framing
//!   overhead is tracked separately in [`TransportStats`] so the
//!   simulated accounting stays comparable. Damage corrupts a payload and
//!   never shortens one, so measured bytes equal `plan.comm(payload)`.
//!
//! * **Frames and their bodies are laid out by `kemf_nn::codec`.** A
//!   body is parsed through its bounds-checked `Reader`, so a peer's
//!   short, over-long or length-lying frame is a typed
//!   [`TransportError::Protocol`]; the one stream-side rule of its own is
//!   that [`read_frame`] buffers a body only as its bytes arrive, and to
//!   its declared length exactly. The frame and payload functions are
//!   `pub` but `#[doc(hidden)]`: outside this module only the byte-format
//!   tests at the workspace root (`tests/golden_bytes.rs`,
//!   `tests/decoders.rs`) call them.
//! * **Payload bytes are checksummed, not copied.** The pinned format
//!   puts every payload byte through CRC-32 four times per direction
//!   (envelope build, frame write, frame read, envelope verify);
//!   `codec::crc32` runs those passes at memory speed where the host has
//!   carry-less multiply. A body's fixed fields and its payload go out as
//!   two parts of one [`write_frame`], the frame CRC chained over both,
//!   and an upload's report is verified where it landed in its frame
//!   body: no payload-sized buffer is copied between codec and socket.
//!   Deterministic filler, most of a model-sized payload, is generated
//!   as four runs side by side with the serial stream's bytes.
//!   A body over the 256 MiB cap is refused before a byte is sent —
//!   `write_frame` returns `InvalidInput`, and `run_round` turns such a
//!   plan away as [`TransportError::Config`] before building anything.
//!   Worker threads run on the caller's kernel tier, so a forced-scalar
//!   run checksums through the table on both ends.
//! * **Every worker link is busy at once, with the sequential bytes.** A
//!   round's transacting clients (all but those dropped before download)
//!   are dealt to the links in transaction order — the k-th to link
//!   `k % workers`, so loads differ by at most one — and the links are
//!   enacted through `kemf_tensor::par::fork_join`, each on its own
//!   connection and in plan order, while the server builds one link's
//!   broadcast as another's worker checks its own. A link's frames depend
//!   only on its clients and the counters merge as u64 sums, so frames,
//!   bytes, history and [`TransportStats`] are those of a run that enacts
//!   the links one after another — which is what width 1 does, on the
//!   calling thread. The round's model is quantized once, before the
//!   fork; when several links fail, the lowest link's error is returned.
//!
//! Worker processes are spawned from any binary that calls
//! [`worker_entry_if_requested`] early in `main` (or the dedicated
//! `kemf_worker` binary, which is just [`worker_main_from_env`]); the
//! server passes `KEMF_SOCKET_WORKER=1`, the rendezvous address
//! (`KEMF_WORKER_ADDR`), the worker id (`KEMF_WORKER_ID`) and the socket
//! timeout (`KEMF_WORKER_IO_TIMEOUT_S`) through the environment. A worker
//! sleeps an enacted delay at a fixed 1 µs per simulated second, capped
//! at 100 ms.

use crate::compress::{self, CompressError, QuantizedWeights};
use crate::lifecycle::{ClientOutcome, ClientPlan, ModelView, RoundComm, RoundPlan, WirePayload};
use kemf_nn::codec::{self, fnv1a64, CodecError, Reader, Writer, FNV_OFFSET};
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use kemf_tensor::par::fork_join;
use kemf_tensor::simd::{force_scalar, scalar_forced};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Frame magic: `KMFT` in big-endian byte order on the wire.
const MAGIC: [u8; 4] = *b"KMFT";
/// Largest frame body the protocol allows (256 MiB): anything longer is
/// refused from the header alone.
const MAX_FRAME_BODY: u32 = 1 << 28;
/// Fixed framing overhead per frame: magic + kind + body_len + trailing CRC.
const FRAME_OVERHEAD: u64 = 4 + 1 + 4 + 4;

/// Real seconds a worker sleeps per simulated second of an enacted delay,
/// so straggler injection is a real sleep without a run taking simulated
/// hours; every sleep is further capped at [`MAX_SLEEP_S`].
const SLEEP_PER_SIM_S: f64 = 1e-6;
/// Longest real sleep a worker enacts, so fault-heavy runs stay fast
/// whatever delays were drawn.
const MAX_SLEEP_S: f64 = 0.1;

/// Worker → server greeting carrying the worker id.
const K_HELLO: u8 = 1;
/// Server → worker broadcast for one client transaction.
const K_DOWN: u8 = 2;
/// Worker → server upload attempt.
const K_UP: u8 = 3;
/// Worker → server terminal failure report (decode failure / timeout).
const K_UP_ERR: u8 = 4;
/// Server → worker verdict on an upload attempt.
const K_ACK: u8 = 5;
/// Server → worker end of federation.
const K_SHUTDOWN: u8 = 6;

/// `K_UP_ERR` codes.
const ERR_DECODE: u8 = 1;
const ERR_TIMED_OUT: u8 = 2;

/// `K_ACK` statuses.
const ACK_ACCEPTED: u8 = 0;
const ACK_RETRY: u8 = 1;
const ACK_GIVE_UP: u8 = 2;

/// Payload-stream direction tags for the deterministic filler seed.
const DIR_DOWN: u8 = 0;
const DIR_UP: u8 = 1;

/// Smallest payload that can carry the integrity envelope (tag byte +
/// trailing CRC32). The fault model corrupts payloads and expects the
/// receiver to notice; below this size nothing protects the content, so
/// the transport refuses to run rather than silently accept corruption.
pub const MIN_WIRE_PAYLOAD: u64 = 5;

/// Where the client workers live.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMode {
    /// Worker threads inside this process (no spawn cost, same protocol).
    Threads,
    /// Separate worker processes running `exe`, which must call
    /// [`worker_entry_if_requested`] early in `main` (the `kemf_worker`
    /// binary does).
    Process {
        /// Path of the worker executable to spawn.
        exe: PathBuf,
    },
}

/// Socket-transport configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SocketConfig {
    /// Number of workers; a round's k-th transacting client is served by
    /// worker `k % workers`.
    pub workers: usize,
    /// Threads in-process or spawned worker processes.
    pub mode: WorkerMode,
    /// Socket read/write timeout; a worker silent for this long is a
    /// transport error, not a hang.
    pub io_timeout: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig { workers: 2, mode: WorkerMode::Threads, io_timeout: Duration::from_secs(30) }
    }
}

impl SocketConfig {
    /// In-process worker threads.
    pub fn threads(workers: usize) -> Self {
        SocketConfig { workers, ..SocketConfig::default() }
    }

    /// Spawned worker processes running `exe`.
    pub fn process(workers: usize, exe: impl Into<PathBuf>) -> Self {
        SocketConfig {
            workers,
            mode: WorkerMode::Process { exe: exe.into() },
            ..SocketConfig::default()
        }
    }

    /// Set the per-operation socket timeout.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Reject configurations the transport cannot honor.
    pub fn validate(&self) -> Result<(), TransportError> {
        if self.workers == 0 {
            return Err(TransportError::Config {
                reason: "socket transport needs at least one worker".into(),
            });
        }
        if self.io_timeout.is_zero() {
            return Err(TransportError::Config {
                reason: "io_timeout must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Typed socket-transport failures, surfaced as
/// [`crate::engine::EngineError::Transport`].
#[derive(Debug)]
pub enum TransportError {
    /// The configuration cannot be honored (zero workers, payload below
    /// [`MIN_WIRE_PAYLOAD`], async rounds over sockets, …).
    Config {
        /// What was wrong.
        reason: String,
    },
    /// A socket operation failed (includes timeouts).
    Io {
        /// What the transport was doing.
        context: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A peer sent bytes that do not parse as the framed protocol.
    Protocol {
        /// What was malformed.
        detail: String,
    },
    /// A worker's enacted outcome contradicts the drawn plan — the wire
    /// and the simulation no longer tell the same story.
    Desync {
        /// Federation round.
        round: usize,
        /// Client index.
        client: usize,
        /// What diverged.
        detail: String,
    },
    /// Workers failed to spawn or report in before the startup deadline.
    WorkerSpawn {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Config { reason } => {
                write!(f, "transport configuration rejected: {reason}")
            }
            TransportError::Io { context, source } => {
                write!(f, "transport i/o failed while {context}: {source}")
            }
            TransportError::Protocol { detail } => {
                write!(f, "transport protocol violation: {detail}")
            }
            TransportError::Desync { round, client, detail } => write!(
                f,
                "transport desync at round {round}, client {client}: {detail}"
            ),
            TransportError::WorkerSpawn { detail } => {
                write!(f, "worker startup failed: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Wire-level counters for one federation, reported on
/// [`crate::engine::RunReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Rounds enacted over the socket.
    pub rounds: usize,
    /// Frames written by the server (broadcasts, acks, shutdowns).
    pub frames_sent: u64,
    /// Frames read by the server (hellos, uploads, failure reports).
    pub frames_received: u64,
    /// Broadcast payload bytes actually written to sockets.
    pub payload_down_bytes: u64,
    /// Accepted upload payload bytes actually read from sockets.
    pub payload_up_bytes: u64,
    /// Failed-attempt upload payload bytes (transmitted but useless).
    pub payload_wasted_bytes: u64,
    /// Every byte that crossed a socket, framing included.
    pub wire_bytes: u64,
}

impl TransportStats {
    /// Payload bytes in both directions (the simulator-comparable total).
    pub fn payload_total(&self) -> u64 {
        self.payload_down_bytes
            .saturating_add(self.payload_up_bytes)
            .saturating_add(self.payload_wasted_bytes)
    }

    /// Framing + control bytes: everything on the wire that the
    /// simulator's accounting does not model.
    pub fn framing_overhead_bytes(&self) -> u64 {
        self.wire_bytes.saturating_sub(self.payload_total())
    }
}

/// The xorshift64* output multiplier.
const FILL_MUL: u64 = 0x2545_f491_4f6c_dd1d;
/// Runs of the filler stream generated side by side.
const FILL_LANES: usize = 4;
/// Fewest 8-byte words per run worth the jump to the runs' start states:
/// building the jump takes ≈ 15 µs, what the runs save on ≈ 12 000 words.
const FILL_MIN_RUN: usize = 4096;

/// One xorshift64 step (shifts 13, 7, 17).
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// A linear map on the 64-bit xorshift state: the step is linear over
/// GF(2), so any number of steps is one such map, kept as the images of
/// the 64 single-bit states.
struct Jump([u64; 64]);

impl Jump {
    /// `steps` xorshift steps as one map, by repeated squaring.
    fn new(mut steps: usize) -> Jump {
        let mut map = Jump(std::array::from_fn(|bit| 1 << bit));
        let mut square = Jump(std::array::from_fn(|bit| xorshift(1 << bit)));
        while steps > 0 {
            if steps & 1 == 1 {
                map = square.after(&map);
            }
            square = square.after(&square);
            steps >>= 1;
        }
        map
    }

    fn apply(&self, s: u64) -> u64 {
        (0..64).filter(|bit| s >> bit & 1 == 1).fold(0, |acc, bit| acc ^ self.0[bit])
    }

    /// This map applied after `first`.
    fn after(&self, first: &Jump) -> Jump {
        Jump(std::array::from_fn(|bit| self.apply(first.0[bit])))
    }
}

/// Fill `buf` with a deterministic xorshift64* stream.
///
/// Each step is a chain of six dependent operations, so a long buffer is
/// cut into [`FILL_LANES`] runs generated side by side, each from the
/// state the serial stream reaches at its start ([`Jump`]): the same
/// bytes, several chains in flight.
fn fill_deterministic(buf: &mut [u8], seed: u64) {
    let mut s = seed | 1; // xorshift state must be non-zero
    let mut run = buf.len() / 8 / FILL_LANES;
    if run < FILL_MIN_RUN {
        run = 0;
    }
    let (runs, tail) = buf.split_at_mut(8 * run * FILL_LANES);
    if run > 0 {
        let jump = Jump::new(run);
        let mut states = [0; FILL_LANES];
        for state in &mut states {
            *state = s;
            s = jump.apply(s);
        }
        let mut words = runs.chunks_exact_mut(8 * run).map(|r| r.chunks_exact_mut(8));
        let mut words: [_; FILL_LANES] = std::array::from_fn(|_| words.next().expect("one run a lane"));
        for _ in 0..run {
            for (state, words) in states.iter_mut().zip(&mut words) {
                *state = xorshift(*state);
                let word = words.next().expect("run words in each run");
                word.copy_from_slice(&state.wrapping_mul(FILL_MUL).to_le_bytes());
            }
        }
    }
    let mut chunks = tail.chunks_exact_mut(8);
    for chunk in &mut chunks {
        s = xorshift(s);
        chunk.copy_from_slice(&s.wrapping_mul(FILL_MUL).to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = xorshift(s).wrapping_mul(FILL_MUL).to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// Deterministic filler seed of one payload stream: FNV-1a over a domain
/// tag, the round, the client and the direction.
fn filler_seed(round: u64, client: u64, dir: u8) -> u64 {
    let mut w = Writer::with_capacity(32);
    for word in [0x4b4d_4654_5041_594c, round, client, dir as u64] {
        w.u64(word);
    }
    fnv1a64(FNV_OFFSET, &w.into_bytes())
}

// ---------------------------------------------------------------------------
// Payload envelope: [tag u8][content][crc32 u32 over tag+content]
// ---------------------------------------------------------------------------

/// Content tag: deterministic filler.
const TAG_FILLER: u8 = 0;
/// Content tag: `[enc_len u64][QuantizedWeights wire bytes][filler pad]`.
const TAG_MODEL: u8 = 1;

/// Build a payload of exactly `len` bytes: tag + content + trailing CRC.
/// `model` is embedded when it fits; otherwise the content is filler
/// seeded deterministically from (round, client, direction).
#[doc(hidden)]
pub fn build_payload(len: u64, seed: u64, model: Option<&[u8]>) -> Vec<u8> {
    let len = len as usize;
    let mut w = Writer::with_capacity(len);
    if len < MIN_WIRE_PAYLOAD as usize {
        fill_deterministic(w.zeros(len), seed);
        return w.into_bytes();
    }
    let body_end = len - 4;
    match model {
        Some(enc) if 1 + 8 + enc.len() <= body_end => {
            w.u8(TAG_MODEL);
            w.bytes(enc);
        }
        _ => w.u8(TAG_FILLER),
    }
    let pad = body_end - w.as_bytes().len();
    fill_deterministic(w.zeros(pad), seed);
    w.u32(codec::crc32(0, w.as_bytes()));
    w.into_bytes()
}

/// Why a received payload failed validation.
#[doc(hidden)]
#[derive(Debug)]
pub enum PayloadFault {
    /// Fewer bytes arrived than the sender declared.
    Truncated { expected: u64, got: u64 },
    /// The integrity checksum does not match the content.
    BadChecksum,
    /// The embedded model failed the compression codec's validation.
    Model(CompressError),
}

impl fmt::Display for PayloadFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadFault::Truncated { expected, got } => {
                write!(f, "payload truncated in transit: declared {expected} bytes, got {got}")
            }
            PayloadFault::BadChecksum => write!(f, "payload checksum mismatch"),
            PayloadFault::Model(e) => write!(f, "embedded model rejected: {e}"),
        }
    }
}

/// Validate a received payload against its declared length: size, CRC,
/// and — when a model is embedded — the full [`crate::compress`] decode.
#[doc(hidden)]
pub fn validate_payload(bytes: &[u8], declared: u64) -> Result<(), PayloadFault> {
    if bytes.len() as u64 != declared {
        return Err(PayloadFault::Truncated { expected: declared, got: bytes.len() as u64 });
    }
    if bytes.len() < MIN_WIRE_PAYLOAD as usize {
        return Ok(()); // unstructured payload, nothing to check
    }
    let (body, stored) = bytes.split_at(bytes.len() - 4);
    if Reader::new(stored).u32() != Ok(codec::crc32(0, body)) {
        return Err(PayloadFault::BadChecksum);
    }
    let mut r = Reader::new(body);
    if r.u8() == Ok(TAG_MODEL) {
        let enc = r.bytes("embedded model").map_err(|e| PayloadFault::Model(e.into()))?;
        let q = QuantizedWeights::from_wire(enc).map_err(PayloadFault::Model)?;
        q.validate().map_err(PayloadFault::Model)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framing: [MAGIC][kind u8][body_len u32][body][crc32 over kind+body]
// ---------------------------------------------------------------------------

/// The frame checksum: CRC-32 over the kind byte, then the body's parts.
fn frame_crc(kind: u8, parts: &[&[u8]]) -> u32 {
    parts.iter().fold(codec::crc32(0, &[kind]), |crc, part| codec::crc32(crc, part))
}

/// Write one frame whose body is `parts` back to back, so a body's fixed
/// fields and the payload they describe go out without being joined into
/// one buffer first; returns the wire bytes written. A body over the
/// 256 MiB cap is refused with `InvalidInput` before any byte is written.
#[doc(hidden)]
pub fn write_frame(w: &mut impl Write, kind: u8, parts: &[&[u8]]) -> io::Result<u64> {
    let len: u64 = parts.iter().map(|p| p.len() as u64).sum();
    if len > MAX_FRAME_BODY as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"),
        ));
    }
    let mut header = Writer::with_capacity(9);
    header.raw(&MAGIC);
    header.u8(kind);
    header.u32(len as u32);
    w.write_all(header.as_bytes())?;
    for part in parts {
        w.write_all(part)?;
    }
    w.write_all(&frame_crc(kind, parts).to_le_bytes())?;
    w.flush()?;
    Ok(FRAME_OVERHEAD + len)
}

/// Read one frame; returns (kind, body, wire bytes read).
#[doc(hidden)]
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>, u64)> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    let mut h = Reader::new(&header);
    if h.take(MAGIC.len(), "frame magic")? != MAGIC {
        return Err(invalid("bad frame magic".into()));
    }
    let (kind, body_len) = (h.u8()?, h.u32()?);
    if body_len > MAX_FRAME_BODY {
        return Err(invalid(format!(
            "frame body of {body_len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"
        )));
    }
    // A stream has no "bytes still unread" to hold the declared length
    // against, so the body buffer grows with the bytes that actually
    // arrive: a header announcing 256 MiB ahead of nothing allocates
    // 4 KiB. Each step at most doubles what has arrived and the last one
    // stops at the declared length, so a body never sits in a buffer
    // grown to the next power of two (a 1.3 MB model frame in 2 MB).
    let body_len = body_len as usize;
    let mut body = Vec::new();
    while body.len() < body_len {
        let step = (body_len - body.len()).min(body.len().max(1 << 12));
        body.reserve_exact(step);
        if r.by_ref().take(step as u64).read_to_end(&mut body)? < step {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame body cut short"));
        }
    }
    let mut stored = [0u8; 4];
    r.read_exact(&mut stored)?;
    if Reader::new(&stored).u32()? != frame_crc(kind, &[&body]) {
        return Err(invalid("frame checksum mismatch".into()));
    }
    Ok((kind, body, FRAME_OVERHEAD + body_len as u64))
}

// Frame bodies are fixed layouts on the codec: every body but `K_HELLO`
// and `K_SHUTDOWN` opens with the round and client it belongs to.

/// Bytes of a `K_DOWN` body before its payload: round, client, delay,
/// deadline, upload length, declared broadcast length.
const DOWN_HEAD: u64 = 48;
/// Bytes of a `K_UP` body before its report: round, client, attempt,
/// report length.
const UP_HEAD: u64 = 32;

/// A body writer holding the `(round, client)` tags, with room for
/// `extra` more bytes.
fn tagged(round: u64, client: u64, extra: usize) -> Writer {
    let mut w = Writer::with_capacity(16 + extra);
    w.u64(round);
    w.u64(client);
    w
}

/// Decode a frame body with `parse`, which must consume all of it: a
/// short or over-long body is a protocol violation, not a panic.
fn parse_body<'a, T>(
    what: &str,
    body: &'a [u8],
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, TransportError> {
    codec::decode(body, parse)
        .map_err(|e| TransportError::Protocol { detail: format!("malformed {what}: {e}") })
}

/// What a worker answers a broadcast or an ack with.
#[derive(Debug, PartialEq)]
enum Reply {
    /// `K_UP`: the attempt number, and the frame body with the offset its
    /// report payload starts at — the report is read where it arrived,
    /// not copied out.
    Upload(u64, Vec<u8>, usize),
    /// `K_UP_ERR`: the failure code and the worker's message.
    Failed(u8, String),
}

/// Decode a `K_UP` / `K_UP_ERR` frame into the `(round, client)` it is
/// tagged with and the reply. Every length in it is the worker's claim;
/// the codec holds it against the body.
fn parse_reply(kind: u8, body: Vec<u8>) -> Result<(usize, usize, Reply), TransportError> {
    match kind {
        // The declared report length is not read back: the report is
        // whatever follows, and `validate_payload` holds it to the plan.
        K_UP => {
            let (round, client, attempt, at) = parse_body("upload frame", &body, |r| {
                let (round, client, attempt, _declared) = (r.usize()?, r.usize()?, r.u64()?, r.u64()?);
                Ok((round, client, attempt, body.len() - r.rest().len()))
            })?;
            Ok((round, client, Reply::Upload(attempt, body, at)))
        }
        K_UP_ERR => parse_body("failure report", &body, |r| {
            let (round, client, code) = (r.usize()?, r.usize()?, r.u8()?);
            let msg = String::from_utf8_lossy(r.bytes("message")?).into_owned();
            Ok((round, client, Reply::Failed(code, msg)))
        }),
        other => Err(TransportError::Protocol {
            detail: format!("expected an upload or a failure report, got frame kind {other}"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Serve one federation as a client worker: greet, then answer `DOWN`
/// transactions until `SHUTDOWN`. Used by worker threads, the
/// `kemf_worker` binary, and any binary that calls
/// [`worker_entry_if_requested`].
pub fn worker_loop(
    mut stream: TcpStream,
    worker_id: u64,
    io_timeout: Duration,
) -> Result<(), TransportError> {
    stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(io_timeout)))
        .and_then(|_| stream.set_write_timeout(Some(io_timeout)))
        .map_err(|e| TransportError::Io { context: "configuring the worker socket", source: e })?;
    let mut hello = Writer::with_capacity(8);
    hello.u64(worker_id);
    write_frame(&mut stream, K_HELLO, &[hello.as_bytes()])
        .map_err(|e| TransportError::Io { context: "sending hello", source: e })?;
    loop {
        let (kind, body, _) = read_frame(&mut stream)
            .map_err(|e| TransportError::Io { context: "reading a server frame", source: e })?;
        match kind {
            K_SHUTDOWN => return Ok(()),
            K_DOWN => serve_download(&mut stream, body)?,
            other => {
                return Err(TransportError::Protocol {
                    detail: format!("worker received unexpected frame kind {other}"),
                })
            }
        }
    }
}

/// Handle one client transaction: validate the broadcast, enact the
/// delay, honor the deadline, and upload until the server accepts or
/// gives up.
fn serve_download(stream: &mut TcpStream, body: Vec<u8>) -> Result<(), TransportError> {
    let (round, client, delay_s, deadline_s, up_len, declared_len, payload) =
        parse_body("broadcast frame", &body, |r| {
            Ok((r.u64()?, r.u64()?, r.f64()?, r.f64()?, r.u64()?, r.u64()?, r.rest()))
        })?;

    let send_err = |stream: &mut TcpStream, code: u8, msg: &str| {
        let mut report = tagged(round, client, 9 + msg.len());
        report.u8(code);
        report.string(msg);
        write_frame(stream, K_UP_ERR, &[report.as_bytes()])
            .map(|_| ())
            .map_err(|e| TransportError::Io { context: "reporting a client failure", source: e })
    };

    // A broadcast damaged in transit is exactly the simulator's
    // `DroppedAfterDownload`: the client got *something*, but cannot act
    // on it. Report and end the transaction.
    if let Err(fault) = validate_payload(payload, declared_len) {
        return send_err(stream, ERR_DECODE, &fault.to_string());
    }
    // The broadcast has been acted on: do not hold a model-sized frame
    // while building a model-sized upload.
    drop(body);

    // The deadline comparison is the same f64 comparison the plan made —
    // bits travel unmodified, so the wire can never re-classify a
    // straggler.
    if delay_s > deadline_s {
        sleep_scaled(deadline_s);
        return send_err(
            stream,
            ERR_TIMED_OUT,
            &format!("local work needed {delay_s:.3}s, deadline was {deadline_s:.3}s"),
        );
    }
    sleep_scaled(delay_s);

    let report = build_payload(up_len, filler_seed(round, client, DIR_UP), None);
    let mut attempt = 1u64;
    loop {
        let mut up = tagged(round, client, 16);
        up.u64(attempt);
        up.u64(up_len);
        write_frame(stream, K_UP, &[up.as_bytes(), &report])
            .map_err(|e| TransportError::Io { context: "uploading a report", source: e })?;
        let (kind, ack, _) = read_frame(stream)
            .map_err(|e| TransportError::Io { context: "awaiting an ack", source: e })?;
        if kind != K_ACK {
            return Err(TransportError::Protocol {
                detail: format!("expected ack, got frame kind {kind}"),
            });
        }
        let (ack_round, ack_client, status) =
            parse_body("ack", &ack, |r| Ok((r.u64()?, r.u64()?, r.u8()?)))?;
        if ack_round != round || ack_client != client {
            return Err(TransportError::Protocol {
                detail: format!(
                    "ack for round {ack_round} client {ack_client}, expected round {round} client {client}"
                ),
            });
        }
        match status {
            ACK_ACCEPTED | ACK_GIVE_UP => return Ok(()),
            ACK_RETRY => attempt += 1,
            other => {
                return Err(TransportError::Protocol {
                    detail: format!("unknown ack status {other}"),
                })
            }
        }
    }
}

/// Sleep the real time [`SLEEP_PER_SIM_S`] maps `sim_s` simulated
/// seconds to, at most [`MAX_SLEEP_S`].
fn sleep_scaled(sim_s: f64) {
    let real = (sim_s * SLEEP_PER_SIM_S).clamp(0.0, MAX_SLEEP_S);
    if real > 0.0 && real.is_finite() {
        std::thread::sleep(Duration::from_secs_f64(real));
    }
}

/// Run a worker from the `KEMF_WORKER_*` environment (the body of the
/// `kemf_worker` binary).
pub fn worker_main_from_env() -> Result<(), TransportError> {
    let addr = std::env::var("KEMF_WORKER_ADDR").map_err(|_| TransportError::Config {
        reason: "KEMF_WORKER_ADDR is not set; this binary is spawned by the socket transport"
            .into(),
    })?;
    let id: u64 = std::env::var("KEMF_WORKER_ID")
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| TransportError::Config {
            reason: "KEMF_WORKER_ID is missing or not an integer".into(),
        })?;
    let io_timeout = std::env::var("KEMF_WORKER_IO_TIMEOUT_S")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs)
        .unwrap_or(Duration::from_secs(30));
    let stream = TcpStream::connect(&addr).map_err(|e| TransportError::Io {
        context: "connecting to the federation server",
        source: e,
    })?;
    worker_loop(stream, id, io_timeout)
}

/// If this process was spawned as a socket-transport worker
/// (`KEMF_SOCKET_WORKER=1` plus a rendezvous address), run the worker
/// loop and exit. Call first thing in `main` of any binary passed to
/// [`WorkerMode::Process`] — including self-exec examples.
pub fn worker_entry_if_requested() {
    let requested = std::env::var("KEMF_SOCKET_WORKER").as_deref() == Ok("1")
        && std::env::var("KEMF_WORKER_ADDR").is_ok();
    if requested {
        match worker_main_from_env() {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("kemf worker: {e}");
                std::process::exit(1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

enum WorkerHandle {
    Thread(std::thread::JoinHandle<()>),
    Process(std::process::Child),
}

/// The server's end of one worker connection. Every exchange with that
/// worker goes through here, and `stats` counts the frames and wire bytes
/// it carried until [`SocketTransport`] moves them into its totals — so a
/// round can enact each link on its own thread.
struct Link {
    stream: TcpStream,
    stats: TransportStats,
}

/// One client transaction of a round, as the link it is routed to
/// enacts it.
struct Transaction<'a> {
    client: usize,
    outcome: ClientOutcome,
    payload: WirePayload,
    /// The quantized global model, for a full-view broadcast.
    model: Option<&'a [u8]>,
}

/// The engine's end of the socket transport: owns the worker pool and
/// enacts one [`RoundPlan`] per round as real framed traffic.
pub struct SocketTransport {
    cfg: SocketConfig,
    links: Vec<Link>,
    workers: Vec<WorkerHandle>,
    stats: TransportStats,
    deadline_s: Option<f64>,
    finished: bool,
}

impl SocketTransport {
    /// Bind, spawn the worker pool, and wait for every worker to report
    /// in. `deadline_s` is the fault model's round deadline, shipped to
    /// workers inside each broadcast so they can self-abort stragglers.
    pub fn start(cfg: &SocketConfig, deadline_s: Option<f64>) -> Result<Self, TransportError> {
        cfg.validate()?;
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| TransportError::Io {
            context: "binding the federation server socket",
            source: e,
        })?;
        let addr = listener.local_addr().map_err(|e| TransportError::Io {
            context: "resolving the server address",
            source: e,
        })?;

        let mut workers = Vec::with_capacity(cfg.workers);
        match &cfg.mode {
            WorkerMode::Threads => {
                // Worker threads checksum on the caller's kernel tier, as
                // the cohort's training threads compute on it.
                let scalar = scalar_forced();
                for id in 0..cfg.workers as u64 {
                    let timeout = cfg.io_timeout;
                    let handle = std::thread::Builder::new()
                        .name(format!("kemf-worker-{id}"))
                        .spawn(move || match TcpStream::connect(addr) {
                            Ok(stream) => {
                                force_scalar(scalar);
                                if let Err(e) = worker_loop(stream, id, timeout) {
                                    eprintln!("kemf worker {id}: {e}");
                                }
                            }
                            Err(e) => eprintln!("kemf worker {id}: connect failed: {e}"),
                        })
                        .map_err(|e| TransportError::WorkerSpawn {
                            detail: format!("thread spawn failed: {e}"),
                        })?;
                    workers.push(WorkerHandle::Thread(handle));
                }
            }
            WorkerMode::Process { exe } => {
                for id in 0..cfg.workers as u64 {
                    let child = std::process::Command::new(exe)
                        .env("KEMF_SOCKET_WORKER", "1")
                        .env("KEMF_WORKER_ADDR", addr.to_string())
                        .env("KEMF_WORKER_ID", id.to_string())
                        .env(
                            "KEMF_WORKER_IO_TIMEOUT_S",
                            cfg.io_timeout.as_secs().max(1).to_string(),
                        )
                        .spawn()
                        .map_err(|e| TransportError::WorkerSpawn {
                            detail: format!("spawning {}: {e}", exe.display()),
                        })?;
                    workers.push(WorkerHandle::Process(child));
                }
            }
        }

        let mut transport = SocketTransport {
            cfg: cfg.clone(),
            links: Vec::new(),
            workers,
            stats: TransportStats::default(),
            deadline_s,
            finished: false,
        };
        transport.accept_workers(&listener, addr.port())?;
        Ok(transport)
    }

    /// Accept every worker's connection + hello, slotting them by the
    /// worker id they greet with.
    fn accept_workers(
        &mut self,
        listener: &TcpListener,
        port: u16,
    ) -> Result<(), TransportError> {
        listener.set_nonblocking(true).map_err(|e| TransportError::Io {
            context: "preparing the accept loop",
            source: e,
        })?;
        let n = self.cfg.workers;
        let mut slots: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut connected = 0usize;
        let started = Instant::now();
        let spawn_deadline = self.cfg.io_timeout.max(Duration::from_secs(10));
        while connected < n {
            if started.elapsed() > spawn_deadline {
                return Err(TransportError::WorkerSpawn {
                    detail: format!(
                        "{connected} of {n} workers reported in to port {port} within {spawn_deadline:?}"
                    ),
                });
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nodelay(true)
                        .and_then(|_| stream.set_read_timeout(Some(self.cfg.io_timeout)))
                        .and_then(|_| stream.set_write_timeout(Some(self.cfg.io_timeout)))
                        .map_err(|e| TransportError::Io {
                            context: "configuring an accepted worker socket",
                            source: e,
                        })?;
                    let (kind, body, wire) =
                        read_frame(&mut stream).map_err(|e| TransportError::Io {
                            context: "reading a worker hello",
                            source: e,
                        })?;
                    self.stats.frames_received += 1;
                    self.stats.wire_bytes += wire;
                    if kind != K_HELLO {
                        return Err(TransportError::Protocol {
                            detail: format!("expected hello, got frame kind {kind}"),
                        });
                    }
                    let id = parse_body("hello", &body, |r| r.usize())?;
                    if id >= n || slots[id].is_some() {
                        return Err(TransportError::Protocol {
                            detail: format!("worker greeted with invalid or duplicate id {id}"),
                        });
                    }
                    slots[id] = Some(stream);
                    connected += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    return Err(TransportError::Io { context: "accepting a worker", source: e })
                }
            }
        }
        self.links = slots
            .into_iter()
            .map(|s| Link { stream: s.expect("all slots filled"), stats: Default::default() })
            .collect();
        Ok(())
    }

    /// Wire-level counters so far.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Move the frames and wire bytes the links carried into the totals.
    fn count_link_traffic(&mut self) {
        for link in &mut self.links {
            let carried = std::mem::take(&mut link.stats);
            self.stats.frames_sent += carried.frames_sent;
            self.stats.frames_received += carried.frames_received;
            self.stats.wire_bytes += carried.wire_bytes;
        }
    }

    /// Enact one drawn round plan as real traffic and return the
    /// measured [`RoundComm`]. Each client's frames are sized by its
    /// own [`ClientPlan`] (`plans` aligns index-for-index with
    /// `plan.clients`), and every declared byte crosses — a damaged
    /// broadcast is corrupted, never cut short — so the measurement
    /// equals `plan.comm(plans)` exactly, faults or not. The quantized
    /// global model is embedded only in [`ModelView::Full`] broadcasts —
    /// window and logits views carry exactly their declared bytes of
    /// CRC-protected filler, never a smuggled full model.
    pub fn run_round(
        &mut self,
        round: usize,
        plan: &RoundPlan,
        plans: &[ClientPlan],
        global: Option<(ModelSpec, ModelState)>,
    ) -> Result<RoundComm, TransportError> {
        if plans.len() != plan.clients.len() {
            return Err(TransportError::Config {
                reason: format!(
                    "{} client plans for {} sampled clients",
                    plans.len(),
                    plan.clients.len()
                ),
            });
        }
        for p in plans {
            let WirePayload { down_bytes, up_bytes } = p.payload;
            if down_bytes < MIN_WIRE_PAYLOAD || up_bytes < MIN_WIRE_PAYLOAD {
                return Err(TransportError::Config {
                    reason: format!(
                        "client {} payload ({down_bytes} down / {up_bytes} up) is below the \
                         {MIN_WIRE_PAYLOAD}-byte integrity envelope the fault model needs",
                        p.client
                    ),
                });
            }
            let cap = MAX_FRAME_BODY as u64;
            if down_bytes.saturating_add(DOWN_HEAD) > cap || up_bytes.saturating_add(UP_HEAD) > cap {
                return Err(TransportError::Config {
                    reason: format!(
                        "client {} payload ({down_bytes} down / {up_bytes} up) does not fit the \
                         {cap}-byte frame body cap",
                        p.client
                    ),
                });
            }
        }
        // Quantize the global model once per round; full-view broadcasts
        // embed it when it fits. Models the codec rejects (e.g. NaN
        // weights after divergence) fall back to filler — payload size is
        // identical either way, so accounting is unaffected.
        let encoded = global
            .as_ref()
            .and_then(|(_, state)| compress::quantize(&state.params, compress::DEFAULT_CHUNK).ok())
            .map(|q| q.to_wire());
        // The k-th client that transacts goes to link k % workers, so the
        // links' loads differ by at most one; a client that crashed before
        // download never contacts anyone, so nothing crosses the wire and
        // nothing is charged.
        let deadline_s = self.deadline_s.unwrap_or(f64::INFINITY);
        let mut shares: Vec<(&mut Link, Vec<Transaction>)> =
            self.links.iter_mut().map(|link| (link, Vec::new())).collect();
        let links = shares.len();
        let transacting = plan
            .clients
            .iter()
            .zip(plans)
            .filter(|(c, _)| !matches!(c.outcome, ClientOutcome::DroppedBeforeDownload));
        for (k, (c, p)) in transacting.enumerate() {
            let model = match p.view {
                ModelView::Full => encoded.as_deref(),
                ModelView::Window { .. } | ModelView::Logits => None,
            };
            shares[k % links].1.push(Transaction {
                client: c.client,
                outcome: c.outcome,
                payload: p.payload,
                model,
            });
        }
        // Each link talks only to its own worker, so the links run at
        // once, each enacting its clients in plan order; at width 1 they
        // run one after another on this thread. The merge is u64 sums.
        let enacted = fork_join(shares, |(link, transactions)| {
            let mut measured = RoundComm::default();
            for t in transactions {
                link.enact(round, deadline_s, t, &mut measured)?;
            }
            Ok::<_, TransportError>(measured)
        });
        self.count_link_traffic();
        let mut measured = RoundComm::default();
        // When several links fail, the lowest link's error is the one
        // returned.
        for m in enacted {
            let m = m?;
            measured.down_bytes += m.down_bytes;
            measured.up_bytes += m.up_bytes;
            measured.wasted_up_bytes += m.wasted_up_bytes;
            measured.down_clients += m.down_clients;
            measured.up_clients += m.up_clients;
        }
        self.stats.rounds += 1;
        self.stats.payload_down_bytes += measured.down_bytes;
        self.stats.payload_up_bytes += measured.up_bytes;
        self.stats.payload_wasted_bytes += measured.wasted_up_bytes;
        Ok(measured)
    }

    /// Shut the worker pool down cleanly and return the final wire
    /// counters.
    pub fn finish(mut self) -> Result<TransportStats, TransportError> {
        self.shutdown_pool()?;
        self.finished = true;
        Ok(self.stats)
    }

    fn shutdown_pool(&mut self) -> Result<(), TransportError> {
        let sent = self.links.iter_mut().try_for_each(|link| link.send(K_SHUTDOWN, &[]));
        self.count_link_traffic();
        sent?;
        for handle in self.workers.drain(..) {
            match handle {
                WorkerHandle::Thread(h) => {
                    if h.join().is_err() {
                        return Err(TransportError::WorkerSpawn {
                            detail: "a worker thread panicked".into(),
                        });
                    }
                }
                WorkerHandle::Process(mut child) => {
                    let status = child.wait().map_err(|e| TransportError::Io {
                        context: "waiting for a worker process",
                        source: e,
                    })?;
                    if !status.success() {
                        return Err(TransportError::WorkerSpawn {
                            detail: format!("a worker process exited with {status}"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl Link {
    fn send(&mut self, kind: u8, parts: &[&[u8]]) -> Result<(), TransportError> {
        let wire = write_frame(&mut self.stream, kind, parts).map_err(|e| {
            TransportError::Io { context: "writing a frame to a worker", source: e }
        })?;
        self.stats.frames_sent += 1;
        self.stats.wire_bytes += wire;
        Ok(())
    }

    fn recv(&mut self) -> Result<(u8, Vec<u8>), TransportError> {
        let (kind, body, wire) = read_frame(&mut self.stream).map_err(|e| {
            TransportError::Io { context: "reading a frame from a worker", source: e }
        })?;
        self.stats.frames_received += 1;
        self.stats.wire_bytes += wire;
        Ok((kind, body))
    }

    /// One client transaction, faithful to its drawn outcome.
    fn enact(
        &mut self,
        round: usize,
        deadline_s: f64,
        t: Transaction,
        measured: &mut RoundComm,
    ) -> Result<(), TransportError> {
        let Transaction { client, outcome, payload, model } = t;
        let mut down =
            build_payload(payload.down_bytes, filler_seed(round as u64, client as u64, DIR_DOWN), model);
        // Enact a mid-transit drop as real damage to the broadcast: one
        // flipped byte, which the CRC catches. Every declared byte still
        // crosses, so the wire measures what the plan charges.
        if let ClientOutcome::DroppedAfterDownload = outcome {
            let idx = (round * 31 + client * 7) % down.len();
            down[idx] ^= 0xA5;
        }
        let delay_s = match outcome {
            ClientOutcome::StragglerTimedOut { delay_s } => delay_s,
            ClientOutcome::Completed { delay_s, .. } => delay_s,
            _ => 0.0,
        };

        let mut head = tagged(round as u64, client as u64, 32);
        head.f64(delay_s);
        head.f64(deadline_s);
        head.u64(payload.up_bytes);
        head.u64(payload.down_bytes);
        debug_assert_eq!(head.as_bytes().len() as u64, DOWN_HEAD);
        self.send(K_DOWN, &[head.as_bytes(), &down])?;
        measured.down_bytes += down.len() as u64;
        measured.down_clients += 1;
        // The broadcast is on the wire: do not hold it while a
        // model-sized upload arrives.
        drop(down);

        let desync = |detail: String| TransportError::Desync { round, client, detail };

        match outcome {
            ClientOutcome::DroppedBeforeDownload => unreachable!("never routed to a link"),
            ClientOutcome::DroppedAfterDownload => {
                self.expect_failure(round, client, ERR_DECODE, "a corrupted broadcast")?
            }
            ClientOutcome::StragglerTimedOut { .. } => {
                self.expect_failure(round, client, ERR_TIMED_OUT, "a timed-out straggler")?
            }
            ClientOutcome::UploadFailed { attempts } => {
                // Every attempt's bytes really crossed the wire — that is
                // exactly why the simulator charges them as wasted.
                for k in 1..=attempts as u64 {
                    let (body, at) = self.expect_upload(round, client, k)?;
                    measured.wasted_up_bytes += body[at..].len() as u64;
                    let status = if k < attempts as u64 { ACK_RETRY } else { ACK_GIVE_UP };
                    self.send_ack(round, client, status)?;
                }
            }
            ClientOutcome::Completed { attempts, .. } => {
                for k in 1..=attempts as u64 {
                    let (body, at) = self.expect_upload(round, client, k)?;
                    let report = &body[at..];
                    if k < attempts as u64 {
                        measured.wasted_up_bytes += report.len() as u64;
                        self.send_ack(round, client, ACK_RETRY)?;
                    } else {
                        // The accepted report must arrive intact: length
                        // per the payload contract, checksum clean.
                        validate_payload(report, payload.up_bytes).map_err(|fault| {
                            desync(format!("accepted upload failed validation: {fault}"))
                        })?;
                        measured.up_bytes += report.len() as u64;
                        measured.up_clients += 1;
                        self.send_ack(round, client, ACK_ACCEPTED)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Receive `client`'s next reply of `round`; one tagged for anyone
    /// else is a desync.
    fn recv_reply(&mut self, round: usize, client: usize) -> Result<Reply, TransportError> {
        let (kind, body) = self.recv()?;
        let (got_round, got_client, reply) = parse_reply(kind, body)?;
        if (got_round, got_client) != (round, client) {
            let detail = format!("reply tagged round {got_round} client {got_client}");
            return Err(TransportError::Desync { round, client, detail });
        }
        Ok(reply)
    }

    /// Receive upload attempt `attempt`; returns the frame body and the
    /// offset of the report payload in it.
    fn expect_upload(
        &mut self,
        round: usize,
        client: usize,
        attempt: u64,
    ) -> Result<(Vec<u8>, usize), TransportError> {
        let detail = match self.recv_reply(round, client)? {
            Reply::Upload(got, body, at) if got == attempt => return Ok((body, at)),
            Reply::Upload(got, ..) => format!("upload tagged attempt {got}, expected attempt {attempt}"),
            Reply::Failed(_, msg) => format!("expected upload attempt {attempt}, worker failed: {msg}"),
        };
        Err(TransportError::Desync { round, client, detail })
    }

    /// Receive the terminal failure report, with code `want`, that a
    /// client planned as `planned` must send.
    fn expect_failure(
        &mut self,
        round: usize,
        client: usize,
        want: u8,
        planned: &str,
    ) -> Result<(), TransportError> {
        let detail = match self.recv_reply(round, client)? {
            Reply::Failed(code, _) if code == want => return Ok(()),
            Reply::Failed(code, msg) => format!("planned {planned}, worker reported code {code} ({msg})"),
            Reply::Upload(..) => "planned a failed client, but a clean upload arrived".into(),
        };
        Err(TransportError::Desync { round, client, detail })
    }

    fn send_ack(&mut self, round: usize, client: usize, status: u8) -> Result<(), TransportError> {
        let mut body = tagged(round as u64, client as u64, 1);
        body.u8(status);
        self.send(K_ACK, &[body.as_bytes()])
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if !self.finished {
            // Best effort: unblock workers so threads/processes exit.
            let _ = self.shutdown_pool();
        }
    }
}

impl fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocketTransport")
            .field("cfg", &self.cfg)
            .field("workers", &self.links.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{ClientRound, FaultConfig};

    /// Uniform full-model plans for every sampled client of `plan`.
    fn uniform(plan: &RoundPlan, payload: WirePayload) -> Vec<ClientPlan> {
        let sampled: Vec<usize> = plan.clients.iter().map(|c| c.client).collect();
        ClientPlan::uniform(&sampled, ModelView::Full, payload)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(codec::crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(codec::crc32(0, b""), 0);
    }

    /// The side-by-side runs write the serial xorshift64* stream, on both
    /// sides of the length where runs start and with ragged tails.
    #[test]
    fn filler_runs_write_the_serial_stream() {
        let serial = |len: usize, seed: u64| {
            let mut s = seed | 1;
            let mut out = Vec::with_capacity(len + 8);
            while out.len() < len {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                out.extend_from_slice(&s.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
            }
            out.truncate(len);
            out
        };
        let edge = 8 * FILL_LANES * FILL_MIN_RUN;
        for len in [0, 1, 7, 8, 9, 1000, edge - 1, edge, edge + 5, 3 * edge + 8 * 3 + 7, 1_269_795] {
            for seed in [0, 9, filler_seed(3, 7, DIR_UP)] {
                let mut buf = vec![0xAA; len];
                fill_deterministic(&mut buf, seed);
                assert!(buf == serial(len, seed), "len {len}, seed {seed:#x}");
            }
        }
    }

    #[test]
    fn payload_round_trips_and_detects_damage() {
        for len in [5u64, 9, 64, 1000] {
            let p = build_payload(len, filler_seed(3, 7, DIR_DOWN), None);
            assert_eq!(p.len() as u64, len);
            validate_payload(&p, len).expect("clean payload validates");

            let mut flipped = p.clone();
            flipped[(len / 2) as usize] ^= 0xA5;
            assert!(
                matches!(validate_payload(&flipped, len), Err(PayloadFault::BadChecksum)),
                "single byte flip must fail the checksum at len {len}"
            );

            let truncated = &p[..p.len() / 2];
            assert!(
                matches!(validate_payload(truncated, len), Err(PayloadFault::Truncated { .. })),
                "short payload must be reported as truncated"
            );
        }
    }

    #[test]
    fn payload_embeds_and_recovers_a_quantized_model() {
        let w = kemf_nn::serialize::Weights {
            values: (0..300).map(|i| (i as f32) * 0.01 - 1.5).collect(),
            lens: vec![100, 200],
        };
        let q = compress::quantize(&w, 64).unwrap();
        let enc = q.to_wire();
        let len = (1 + 8 + enc.len() + 4 + 32) as u64; // room + filler pad
        let p = build_payload(len, 9, Some(&enc));
        assert_eq!(p[0], TAG_MODEL);
        validate_payload(&p, len).expect("embedded model validates");

        // Damage inside the embedded model region must surface as a
        // checksum failure (outer envelope catches it first).
        let mut bad = p.clone();
        bad[20] ^= 0x01;
        assert!(validate_payload(&bad, len).is_err());

        // Too small to embed: falls back to filler.
        let small = build_payload(16, 9, Some(&enc));
        assert_eq!(small[0], TAG_FILLER);
        validate_payload(&small, 16).unwrap();
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        let body = b"hello frame".to_vec();
        let sent = write_frame(&mut wire, K_DOWN, &[&body]).unwrap();
        assert_eq!(sent, wire.len() as u64);
        let (kind, got, read) = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!((kind, got, read), (K_DOWN, body.clone(), sent));
        // A body sent in parts is the same frame as the parts joined.
        let mut parted = Vec::new();
        write_frame(&mut parted, K_DOWN, &[&body[..3], &[], &body[3..]]).unwrap();
        assert_eq!(parted, wire);
    }

    /// A body over the cap is refused before the header goes out: the
    /// peer would refuse it (256 MiB) or, past 4 GiB, read a truncated
    /// length and lose the stream.
    #[test]
    fn oversized_frames_are_refused_before_any_byte_is_written() {
        let mib = vec![0u8; 1 << 20];
        for parts in [257, 4097] {
            let mut wire = Vec::new();
            let err = write_frame(&mut wire, K_DOWN, &vec![&mib[..]; parts]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{parts} MiB");
            assert!(wire.is_empty(), "{parts} MiB: {} bytes written", wire.len());
        }
        let at_cap = vec![&mib[..]; 256];
        let sent = write_frame(&mut io::sink(), K_DOWN, &at_cap).unwrap();
        assert_eq!(sent, FRAME_OVERHEAD + (1 << 28));
    }

    #[test]
    fn frame_reader_rejects_garbage_and_bad_checksums() {
        assert!(read_frame(&mut &b"XXXXYYYYZZZZZ"[..]).is_err());
        let mut wire = Vec::new();
        write_frame(&mut wire, K_UP, &[b"payload"]).unwrap();
        let end = wire.len() - 1;
        wire[end] ^= 0xFF; // damage the CRC
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn config_validation_rejects_broken_setups() {
        assert!(SocketConfig::threads(0).validate().is_err());
        assert!(SocketConfig::threads(2).io_timeout(Duration::ZERO).validate().is_err());
        assert!(SocketConfig::threads(2).validate().is_ok());
    }

    /// Drive a full plan over real localhost sockets with thread workers
    /// and check the measured bytes against the simulator's closed form.
    #[test]
    fn enacted_plan_measures_exactly_the_simulated_bytes() {
        let payload = WirePayload { down_bytes: 96, up_bytes: 40 };
        let plan = RoundPlan {
            clients: vec![
                ClientRound { client: 0, outcome: ClientOutcome::Completed { attempts: 1, delay_s: 0.0 } },
                ClientRound { client: 1, outcome: ClientOutcome::DroppedBeforeDownload },
                ClientRound { client: 2, outcome: ClientOutcome::Completed { attempts: 3, delay_s: 1.5 } },
                ClientRound { client: 3, outcome: ClientOutcome::UploadFailed { attempts: 2 } },
                ClientRound { client: 4, outcome: ClientOutcome::StragglerTimedOut { delay_s: 99.0 } },
            ],
            min_quorum: 1,
        };
        let mut t = SocketTransport::start(&SocketConfig::threads(2), Some(30.0)).unwrap();
        let measured = t.run_round(0, &plan, &uniform(&plan, payload), None).unwrap();
        let expected = plan.comm(&uniform(&plan, payload)).unwrap();
        assert_eq!(measured, expected, "faults-on byte-flip path must still match the plan");
        let stats = t.finish().unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.payload_down_bytes, measured.down_bytes);
        assert_eq!(
            stats.payload_up_bytes + stats.payload_wasted_bytes,
            measured.up_bytes + measured.wasted_up_bytes
        );
        assert!(stats.framing_overhead_bytes() > 0, "framing is never free");
        assert!(stats.wire_bytes > stats.payload_total());
    }

    /// Clients dropped before download take no link, so the links carry
    /// uneven loads; whatever the pool size, the measurement still equals
    /// the closed form and the counters agree with it.
    #[test]
    fn links_routed_around_silent_clients_measure_the_simulated_bytes() {
        let completed = |attempts, delay_s| ClientOutcome::Completed { attempts, delay_s };
        let outcomes = [
            ClientOutcome::DroppedBeforeDownload,
            completed(1, 0.0),
            ClientOutcome::UploadFailed { attempts: 3 },
            ClientOutcome::DroppedBeforeDownload,
            ClientOutcome::DroppedBeforeDownload,
            completed(2, 4.0),
            ClientOutcome::StragglerTimedOut { delay_s: 50.0 },
            // A flipped byte, same length.
            ClientOutcome::DroppedAfterDownload,
            completed(1, 0.5),
        ];
        let plan = RoundPlan {
            clients: outcomes
                .iter()
                .enumerate()
                .map(|(i, &outcome)| ClientRound { client: 3 * i + 1, outcome })
                .collect(),
            min_quorum: 1,
        };
        let plans = uniform(&plan, WirePayload { down_bytes: 80, up_bytes: 36 });
        let expected = plan.comm(&plans).unwrap();
        for workers in 1..=3 {
            let cfg = SocketConfig::threads(workers);
            let mut t = SocketTransport::start(&cfg, Some(30.0)).unwrap();
            let measured = t.run_round(1, &plan, &plans, None).unwrap();
            assert_eq!(measured, expected, "{workers} workers");
            let stats = t.finish().unwrap();
            assert_eq!(stats.payload_down_bytes, expected.down_bytes, "{workers} workers");
            assert_eq!(stats.payload_up_bytes, expected.up_bytes, "{workers} workers");
            assert_eq!(stats.payload_wasted_bytes, expected.wasted_up_bytes, "{workers} workers");
        }
    }

    #[test]
    fn tiny_payloads_are_refused_with_a_typed_error() {
        let payload = WirePayload { down_bytes: 3, up_bytes: 2 };
        let plan = RoundPlan {
            clients: vec![ClientRound {
                client: 0,
                outcome: ClientOutcome::Completed { attempts: 1, delay_s: 0.0 },
            }],
            min_quorum: 1,
        };
        let mut t = SocketTransport::start(&SocketConfig::threads(1), None).unwrap();
        let err = t.run_round(0, &plan, &uniform(&plan, payload), None).unwrap_err();
        assert!(matches!(err, TransportError::Config { .. }), "got: {err}");
        // Misaligned plans are refused before anything crosses the wire.
        let err = t.run_round(0, &plan, &[], None).unwrap_err();
        assert!(matches!(err, TransportError::Config { .. }), "got: {err}");
        t.finish().unwrap();
    }

    /// A payload whose frame would pass the 256 MiB body cap is refused
    /// from the plan, before anything is built or sent.
    #[test]
    fn oversized_payloads_are_refused_before_anything_is_sent() {
        let plan = RoundPlan {
            clients: vec![ClientRound {
                client: 0,
                outcome: ClientOutcome::Completed { attempts: 1, delay_s: 0.0 },
            }],
            min_quorum: 1,
        };
        let mut t = SocketTransport::start(&SocketConfig::threads(1), None).unwrap();
        let sent = t.stats().frames_sent;
        let cap = MAX_FRAME_BODY as u64;
        for payload in [
            WirePayload { down_bytes: 1 << 28, up_bytes: 40 },
            WirePayload { down_bytes: 96, up_bytes: cap - UP_HEAD + 1 },
            WirePayload { down_bytes: u64::MAX, up_bytes: u64::MAX },
        ] {
            let err = t.run_round(0, &plan, &uniform(&plan, payload), None).unwrap_err();
            assert!(matches!(err, TransportError::Config { .. }), "got: {err}");
            assert_eq!(t.stats().frames_sent, sent, "{payload:?}: a frame went out");
        }
        t.finish().unwrap();
    }

    /// The fault RNG and sampler are never touched by the transport: the
    /// same drawn plan enacted twice measures identical bytes.
    #[test]
    fn enactment_is_deterministic() {
        let faults = FaultConfig {
            drop_before_download: 0.1,
            drop_after_download: 0.15,
            straggler_prob: 0.3,
            straggler_delay_s: 40.0,
            round_deadline_s: Some(20.0),
            upload_failure_prob: 0.2,
            ..FaultConfig::default()
        };
        let sampled: Vec<usize> = (0..12).collect();
        let mut rng = kemf_tensor::rng::seeded_rng(77);
        let plan = crate::lifecycle::plan_round(&sampled, &faults, &mut rng);
        let payload = WirePayload { down_bytes: 64, up_bytes: 24 };

        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut t = SocketTransport::start(&SocketConfig::threads(3), Some(20.0)).unwrap();
            let m = t.run_round(5, &plan, &uniform(&plan, payload), None).unwrap();
            t.finish().unwrap();
            runs.push(m);
        }
        assert_eq!(runs[0], runs[1]);
    }

    /// Per-client plans drive per-client frame sizes: a window client's
    /// broadcast really is smaller on the wire, and the measurement
    /// matches the per-client closed form.
    #[test]
    fn mixed_plans_measure_each_client_at_its_own_bytes() {
        let plan = RoundPlan {
            clients: vec![
                ClientRound { client: 0, outcome: ClientOutcome::Completed { attempts: 1, delay_s: 0.0 } },
                ClientRound { client: 1, outcome: ClientOutcome::Completed { attempts: 1, delay_s: 0.0 } },
            ],
            min_quorum: 1,
        };
        let plans = vec![
            ClientPlan {
                client: 0,
                view: ModelView::Window { offset: 0, cycle: 2 },
                payload: WirePayload { down_bytes: 48, up_bytes: 24 },
            },
            ClientPlan {
                client: 1,
                view: ModelView::Window { offset: 1, cycle: 2 },
                payload: WirePayload { down_bytes: 64, up_bytes: 32 },
            },
        ];
        let mut t = SocketTransport::start(&SocketConfig::threads(2), None).unwrap();
        let measured = t.run_round(0, &plan, &plans, None).unwrap();
        assert_eq!(measured.down_bytes, 48 + 64);
        assert_eq!(measured.up_bytes, 24 + 32);
        assert_eq!(measured, plan.comm(&plans).unwrap());
        t.finish().unwrap();
    }

    /// The server trusts nothing a worker's failure report declares: a
    /// message length of `u64::MAX` (once `25 + len`, overflowing), any
    /// truncation and any over-long body are typed protocol errors.
    #[test]
    fn hostile_failure_reports_are_protocol_errors_not_overflows() {
        let report = |msg_len: u64, msg: &[u8]| {
            let mut body = tagged(3, 7, 9 + msg.len());
            body.u8(ERR_DECODE);
            body.u64(msg_len);
            body.raw(msg);
            body.into_bytes()
        };
        let good = report(5, b"oops!");
        let reply = (3, 7, Reply::Failed(ERR_DECODE, "oops!".into()));
        assert_eq!(parse_reply(K_UP_ERR, good.clone()).unwrap(), reply);
        // An upload's report stays in its frame body, found by offset.
        let mut up = tagged(3, 7, 21);
        up.u64(2);
        up.u64(5);
        up.raw(b"hello");
        let up = up.into_bytes();
        let reply = (3, 7, Reply::Upload(2, up.clone(), UP_HEAD as usize));
        assert_eq!(parse_reply(K_UP, up).unwrap(), reply);
        let mut bad = vec![report(u64::MAX, b"oops!"), report(1 << 32, b"oops!"), report(4, b"oops!")];
        bad.extend((0..good.len()).map(|cut| good[..cut].to_vec()));
        for body in bad {
            let err = parse_reply(K_UP_ERR, body).unwrap_err();
            assert!(matches!(err, TransportError::Protocol { .. }), "got: {err}");
        }
        // Acks and hellos are held to their exact length the same way.
        let ack = |body: &[u8]| parse_body("ack", body, |r| Ok((r.u64()?, r.u64()?, r.u8()?)));
        assert!(ack(&[0; 17]).is_ok());
        assert!(ack(&[0; 16]).is_err() && ack(&[0; 18]).is_err());
    }
}
