//! `socket_kv`: a client container on host A keeps [`STREAMS`] pooled
//! streams to a server container on host B, one request outstanding per
//! stream. Two load threads: the client (this thread) and the server.
//!
//! The seeded mix is 80 % GET (32 B request, 1 KiB reply) and 20 % PUT
//! (4 KiB request, 16 B ack). Each stream closes and reconnects after a
//! seeded 16–64 requests, so connects, the channel pool's stream-id
//! allocation and the accept handshake run throughout the window.

use crate::layers::Counters;
use crate::trace::{Parent, Tracer, REQUEST};
use crate::util::{self, Hist, Rng};
use crate::{Config, Run, Slicer, STALL_LIMIT};
use freeflow::{Container, FreeFlowCluster};
use freeflow_socket::{FfListener, FfStream, SocketStack};
use freeflow_types::{Error, HostCaps, HostId, OverlayIp, TenantId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent client streams (each one request outstanding).
const STREAMS: usize = 64;
const PORT: u16 = 7000;
/// Message header: request id (8), kind (4), total length (4).
pub const HDR: usize = 16;
pub const GET_REQ: usize = 32;
pub const GET_REPLY: usize = 1024;
pub const PUT_REQ: usize = 4096;
pub const PUT_REPLY: usize = HDR;
const SALT_REQ: u64 = 0x5000_0000_0000_0000;
const SALT_REPLY: u64 = 0x6000_0000_0000_0000;
/// Generated ops and reconnect points, cycled through in order.
const OP_TABLE: usize = 1 << 16;
const QUOTA_TABLE: usize = 1 << 12;
/// Requests run to warm the pool before the timed window (set-up).
const WARM_OPS: u64 = 512;
/// Stream connects timed after each round's window (enough for ten
/// samples beyond the round's p99).
pub const CONNECT_PROBES: usize = 1000;
/// First request id of the probes, clear of the window's ids.
const PROBE_IDS: u64 = 1 << 62;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 1,
    Put = 2,
}

impl Kind {
    pub fn request_len(self) -> usize {
        match self {
            Kind::Get => GET_REQ,
            Kind::Put => PUT_REQ,
        }
    }

    pub fn reply_len(self) -> usize {
        match self {
            Kind::Get => GET_REPLY,
            Kind::Put => PUT_REPLY,
        }
    }
}

/// 80 % GET, 20 % PUT.
pub fn generate_kinds(rng: &mut Rng, n: usize) -> Vec<Kind> {
    (0..n)
        .map(|_| {
            if rng.percent() < 80 {
                Kind::Get
            } else {
                Kind::Put
            }
        })
        .collect()
}

/// The pattern key of one request: tied to the seed and request id.
pub fn key(seed: u64, req_id: u64) -> u64 {
    seed.rotate_left(24) ^ req_id
}

fn header(buf: &mut [u8], req_id: u64, kind: u32, len: usize) {
    buf[..8].copy_from_slice(&req_id.to_le_bytes());
    buf[8..12].copy_from_slice(&kind.to_le_bytes());
    buf[12..16].copy_from_slice(&(len as u32).to_le_bytes());
}

fn parse_header(buf: &[u8]) -> (u64, u32, usize) {
    (
        u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
        u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")),
        u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize,
    )
}

/// Build the request message of `req_id` into `buf`; returns its length.
pub fn request(buf: &mut [u8], seed: u64, req_id: u64, kind: Kind) -> usize {
    let len = kind.request_len();
    header(buf, req_id, kind as u32, len);
    util::fill(&mut buf[HDR..len], key(seed, req_id) ^ SALT_REQ);
    len
}

/// Server side: check a complete request and build its reply into
/// `out`. Returns the reply length, or `None` if the request is corrupt.
pub fn serve(req: &[u8], seed: u64, out: &mut [u8]) -> Option<usize> {
    let (req_id, kind, len) = parse_header(req);
    let kind = match kind {
        1 => Kind::Get,
        2 => Kind::Put,
        _ => return None,
    };
    if len != req.len() || len != kind.request_len() {
        return None;
    }
    let k = key(seed, req_id);
    if !util::matches(&req[HDR..], k ^ SALT_REQ) {
        return None;
    }
    let rlen = kind.reply_len();
    header(out, req_id, kind as u32, rlen);
    util::fill(&mut out[HDR..rlen], k ^ SALT_REPLY);
    Some(rlen)
}

/// Client side: whether `reply` is exactly the reply to `req_id`.
pub fn reply_ok(reply: &[u8], seed: u64, req_id: u64, kind: Kind) -> bool {
    let (id, k, len) = parse_header(reply);
    id == req_id
        && k == kind as u32
        && len == kind.reply_len()
        && reply.len() == len
        && util::matches(&reply[HDR..], key(seed, req_id) ^ SALT_REPLY)
}

/// Bytes still missing from a message whose first `filled` bytes are
/// in `buf`: the header first, then the length it announces.
fn wanted(buf: &[u8], filled: usize, max: usize) -> Option<usize> {
    if filled < HDR {
        return Some(HDR);
    }
    let (_, _, len) = parse_header(buf);
    (HDR..=max).contains(&len).then_some(len)
}

/// Open `n` streams from `a` to `ip:port`, accepting them on a helper
/// thread; the time of each `connect` goes to `connect`.
pub fn connect_n(
    stack: &Arc<SocketStack>,
    a: &Container,
    ip: OverlayIp,
    port: u16,
    listener: &FfListener,
    n: usize,
    connect: &mut Hist,
) -> Result<Vec<(FfStream, FfStream)>, String> {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let acceptor = scope.spawn(move || {
            for _ in 0..n {
                let Ok(s) = listener.accept(STALL_LIMIT) else {
                    return;
                };
                if tx.send(s).is_err() {
                    return;
                }
            }
        });
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            let c = stack
                .connect(a, ip, port)
                .map_err(|e| format!("connect refused: {e}"))?;
            connect.record_since(t);
            let s = rx
                .recv_timeout(STALL_LIMIT)
                .map_err(|_| "accept lost".to_string())?;
            pairs.push((c, s));
        }
        acceptor.join().expect("acceptor thread");
        Ok(pairs)
    })
}

/// Connect probes: [`CONNECT_PROBES`] fresh streams, one verified GET on
/// each (pipelined; request ids from `first` on), then closed.
#[allow(clippy::too_many_arguments)]
pub fn probe_streams(
    stack: &Arc<SocketStack>,
    a: &Container,
    ip: OverlayIp,
    port: u16,
    listener: &FfListener,
    seed: u64,
    first: u64,
    connect: &mut Hist,
) -> Result<(), String> {
    let mut pairs = connect_n(stack, a, ip, port, listener, CONNECT_PROBES, connect)?;
    let (mut out, mut inbuf) = (vec![0u8; PUT_REQ], vec![0u8; PUT_REQ]);
    let get = Kind::Get;
    let mut ok = true;
    for (i, (c, _)) in pairs.iter_mut().enumerate() {
        let len = request(&mut out, seed, first + i as u64, get);
        ok &= c.write_all(&out[..len]).is_ok();
    }
    for (_, s) in pairs.iter_mut() {
        let req = &mut inbuf[..get.request_len()];
        ok &= s.read_exact(req).is_ok()
            && serve(req, seed, &mut out).is_some_and(|n| s.write_all(&out[..n]).is_ok());
    }
    for (i, (c, _)) in pairs.iter_mut().enumerate() {
        let reply = &mut inbuf[..get.reply_len()];
        ok &= c.read_exact(reply).is_ok() && reply_ok(reply, seed, first + i as u64, get);
        let _ = c.shutdown();
    }
    if ok {
        Ok(())
    } else {
        Err("connect probe: a request on a fresh stream failed".into())
    }
}

/// Server-side state of one accepted stream.
struct ServerConn {
    stream: FfStream,
    buf: Vec<u8>,
    filled: usize,
}

/// What the server thread hands back when it stops.
pub struct ServerReport {
    pub tracer: Tracer,
    pub errors: Vec<String>,
    pub accept: Hist,
}

/// The server loop: accept, read whole requests, verify, reply. Runs
/// until `stop` is set and every stream it accepted has closed.
pub fn server(
    listener: &FfListener,
    seed: u64,
    stop: &AtomicBool,
    tracing: &AtomicBool,
    mut tracer: Tracer,
) -> ServerReport {
    let mut conns: Vec<ServerConn> = Vec::new();
    let mut out = vec![0u8; PUT_REQ];
    let mut errors = Vec::new();
    let mut accept = Hist::default();
    let mut idle_since = Instant::now();
    loop {
        tracer.on = tracing.load(Ordering::Relaxed);
        let mut progress = false;
        let t = Instant::now();
        match listener.accept(Duration::from_micros(1)) {
            Ok(stream) => {
                accept.record_since(t);
                conns.push(ServerConn {
                    stream,
                    buf: vec![0u8; PUT_REQ],
                    filled: 0,
                });
                progress = true;
            }
            Err(Error::WouldBlock) => {}
            Err(e) => errors.push(format!("accept failed: {e}")),
        }
        let mut i = 0;
        while i < conns.len() {
            let c = &mut conns[i];
            let Some(want) = wanted(&c.buf, c.filled, PUT_REQ) else {
                errors.push("request header announces a bad length".into());
                return ServerReport {
                    tracer,
                    errors,
                    accept,
                };
            };
            match c.stream.try_read(&mut c.buf[c.filled..want]) {
                Ok(0) => {
                    // The client closed this stream.
                    conns.swap_remove(i);
                    progress = true;
                    continue;
                }
                Ok(n) => {
                    progress = true;
                    c.filled += n;
                    let want = wanted(&c.buf, c.filled, PUT_REQ).unwrap_or(0);
                    if c.filled >= HDR && c.filled == want {
                        let start = Instant::now();
                        let id = tracer.new_id();
                        let parent: Option<Parent> = (id != 0).then_some((id, "serve"));
                        match serve(&c.buf[..want], seed, &mut out) {
                            Some(rlen) => {
                                let stream = &mut c.stream;
                                let wrote = tracer.child("socket.write", parent, || {
                                    stream.write_all(&out[..rlen])
                                });
                                if let Err(e) = wrote {
                                    errors.push(format!("reply write failed: {e}"));
                                }
                            }
                            None => errors.push("request arrived corrupted".into()),
                        }
                        tracer.record(id, "serve", None, start, Instant::now());
                        c.filled = 0;
                    }
                }
                Err(Error::WouldBlock) => {}
                Err(e) => errors.push(format!("server read failed: {e}")),
            }
            i += 1;
        }
        if !errors.is_empty() {
            return ServerReport {
                tracer,
                errors,
                accept,
            };
        }
        if progress {
            idle_since = Instant::now();
        } else {
            if stop.load(Ordering::Relaxed) && conns.is_empty() {
                return ServerReport {
                    tracer,
                    errors,
                    accept,
                };
            }
            if idle_since.elapsed() > STALL_LIMIT * 3 {
                errors.push("server saw no traffic for too long".into());
                return ServerReport {
                    tracer,
                    errors,
                    accept,
                };
            }
            std::thread::yield_now();
        }
    }
}

/// One client stream and its outstanding request.
struct Conn {
    stream: FfStream,
    /// Requests left before this stream closes and reconnects.
    left: u64,
    /// When the stream was closed for a reconnect, until its first reply.
    reconnect_at: Option<Instant>,
    req_id: u64,
    kind: Kind,
    started: Instant,
    written: Instant,
    span: u64,
    buf: Vec<u8>,
    filled: usize,
    busy: bool,
}

struct Client<'e> {
    env: &'e Env,
    seed: u64,
    kinds: Vec<Kind>,
    quotas: Vec<u64>,
    next_kind: usize,
    next_quota: usize,
    next_req: u64,
    out: Vec<u8>,
    completed: u64,
    attempted: u64,
    failed: u64,
    bytes: u64,
    connects: u64,
    lat: Hist,
    blackout: Hist,
    errors: Vec<String>,
    tracer: Tracer,
}

impl<'e> Client<'e> {
    fn new(env: &'e Env, seed: u64, tracer: Tracer) -> Self {
        let mut rng = Rng::new(seed);
        let kinds = generate_kinds(&mut rng, OP_TABLE);
        let quotas = (0..QUOTA_TABLE).map(|_| rng.range(16, 64)).collect();
        Self {
            env,
            seed,
            kinds,
            quotas,
            next_kind: 0,
            next_quota: 0,
            next_req: 0,
            out: vec![0u8; PUT_REQ],
            completed: 0,
            attempted: 0,
            failed: 0,
            bytes: 0,
            connects: 0,
            lat: Hist::default(),
            blackout: Hist::default(),
            errors: Vec::new(),
            tracer,
        }
    }

    fn quota(&mut self) -> u64 {
        let q = self.quotas[self.next_quota];
        self.next_quota = (self.next_quota + 1) % self.quotas.len();
        q
    }

    fn open(&mut self) -> Option<FfStream> {
        let t = Instant::now();
        let id = self.tracer.new_id();
        match self
            .env
            .stack
            .connect(&self.env.a, self.env.server_ip, PORT)
        {
            Ok(s) => {
                self.tracer
                    .record(id, "socket.connect", None, t, Instant::now());
                self.connects += 1;
                Some(s)
            }
            Err(e) => {
                self.failed += 1;
                self.attempted += 1;
                self.errors.push(format!("connect refused: {e}"));
                None
            }
        }
    }

    fn start(&mut self, c: &mut Conn) {
        let kind = self.kinds[self.next_kind];
        self.next_kind = (self.next_kind + 1) % self.kinds.len();
        let req_id = self.next_req;
        self.next_req += 1;
        let len = request(&mut self.out, self.seed, req_id, kind);
        c.req_id = req_id;
        c.kind = kind;
        c.filled = 0;
        c.busy = true;
        c.span = self.tracer.new_id();
        c.started = Instant::now();
        self.attempted += 1;
        let parent = (c.span != 0).then_some((c.span, REQUEST));
        let stream = &mut c.stream;
        let out = &self.out[..len];
        if let Err(e) = self
            .tracer
            .child("socket.write", parent, || stream.write_all(out))
        {
            self.errors.push(format!("request write failed: {e}"));
        }
        c.written = Instant::now();
    }

    /// Make progress on one stream; returns whether anything moved.
    fn step(&mut self, c: &mut Conn, issuing: bool) -> bool {
        if !c.busy {
            return false;
        }
        let want = c.kind.reply_len();
        match c.stream.try_read(&mut c.buf[c.filled..want]) {
            Ok(0) => {
                self.errors
                    .push(format!("stream closed before reply {}", c.req_id));
                false
            }
            Ok(n) => {
                c.filled += n;
                if c.filled < want {
                    return true;
                }
                let end = Instant::now();
                c.busy = false;
                if reply_ok(&c.buf[..want], self.seed, c.req_id, c.kind) {
                    self.completed += 1;
                    self.bytes += (c.kind.request_len() + want) as u64;
                } else {
                    self.errors
                        .push(format!("reply to request {} bytes differ", c.req_id));
                }
                self.lat
                    .record(end.duration_since(c.started).as_nanos() as u64);
                if c.span != 0 {
                    let parent = Some((c.span, REQUEST));
                    self.tracer.record(0, "socket.read", parent, c.written, end);
                    self.tracer.record(c.span, REQUEST, None, c.started, end);
                }
                if let Some(at) = c.reconnect_at.take() {
                    self.blackout
                        .record(end.duration_since(at).as_nanos() as u64);
                }
                if !issuing {
                    return true;
                }
                c.left -= 1;
                if c.left == 0 {
                    c.reconnect_at = Some(Instant::now());
                    if let Err(e) = c.stream.shutdown() {
                        self.errors.push(format!("shutdown failed: {e}"));
                    }
                    match self.open() {
                        Some(s) => c.stream = s,
                        None => return true,
                    }
                    c.left = self.quota();
                }
                self.start(c);
                true
            }
            Err(Error::WouldBlock) => false,
            Err(e) => {
                self.errors.push(format!("client read failed: {e}"));
                false
            }
        }
    }

    /// Sweep every stream until `done` says stop issuing, then drain the
    /// outstanding replies. Returns false on an error or a stall.
    fn run(&mut self, conns: &mut [Conn], mut done: impl FnMut(&mut Self) -> bool) -> bool {
        let mut last_progress = Instant::now();
        let mut stopping = false;
        loop {
            if !stopping {
                stopping = done(self);
            }
            let mut progress = false;
            for c in conns.iter_mut() {
                if !c.busy && !stopping {
                    self.start(c);
                    progress = true;
                }
                progress |= self.step(c, !stopping);
            }
            if !self.errors.is_empty() {
                return false;
            }
            if stopping && conns.iter().all(|c| !c.busy) {
                return true;
            }
            if progress {
                last_progress = Instant::now();
            } else {
                if last_progress.elapsed() > STALL_LIMIT {
                    self.errors
                        .push("lost reply: no stream made progress".into());
                    return false;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// One stood-up world. Fields drop in order: the socket stack before
/// the containers, the containers before the cluster.
struct Env {
    stack: Arc<SocketStack>,
    a: Container,
    /// The server container, kept alive for the listener.
    _server: Container,
    server_ip: OverlayIp,
    hosts: Vec<HostId>,
    cluster: Arc<FreeFlowCluster>,
}

fn setup(launch: &mut Hist) -> (Env, FfListener) {
    let cluster = FreeFlowCluster::with_defaults();
    let hosts = vec![
        cluster.add_host(HostCaps::paper_testbed()),
        cluster.add_host(HostCaps::paper_testbed()),
    ];
    let mut start = |h| {
        let t = Instant::now();
        let c = cluster
            .launch(TenantId::new(1), h)
            .expect("launch container");
        launch.record_since(t);
        c
    };
    let a = start(hosts[0]);
    let b = start(hosts[1]);
    let stack = SocketStack::new();
    let listener = stack.bind(&b, PORT).expect("bind server port");
    let server_ip = b.ip();
    (
        Env {
            stack,
            a,
            _server: b,
            server_ip,
            hosts,
            cluster,
        },
        listener,
    )
}

/// Open every client stream.
fn open_all(client: &mut Client) -> Option<Vec<Conn>> {
    let mut conns = Vec::with_capacity(STREAMS);
    for _ in 0..STREAMS {
        let stream = client.open()?;
        let left = client.quota();
        conns.push(Conn {
            stream,
            left,
            reconnect_at: None,
            req_id: 0,
            kind: Kind::Get,
            started: Instant::now(),
            written: Instant::now(),
            span: 0,
            buf: vec![0u8; GET_REPLY],
            filled: 0,
            busy: false,
        });
    }
    Some(conns)
}

fn close_all(conns: Vec<Conn>, errors: &mut Vec<String>) {
    for mut c in conns {
        if let Err(e) = c.stream.shutdown() {
            errors.push(format!("shutdown failed: {e}"));
        }
    }
}

/// One round: a fresh cluster, 64 connected streams, warm-up, the
/// timed window, the checks, then the connect probes.
pub fn round(cfg: &Config, r: usize, seconds: f64, run: &mut Run) {
    let t = Instant::now();
    let (env, listener) = setup(run.hist("core.launch"));
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let seed = cfg.round_seed(r);
    let tracer = std::mem::replace(&mut run.tracer, Tracer::new(t, 0));
    let server_tracer = Tracer::new(tracer.epoch(), 3 + r as u64);
    let (report, lat, blackout) = std::thread::scope(|scope| {
        let server = scope.spawn(|| server(&listener, seed, &stop, &tracing, server_tracer));
        let mut client = Client::new(&env, seed, tracer);
        let mut conns = open_all(&mut client).unwrap_or_default();
        let warm = !conns.is_empty() && client.run(&mut conns, |c| c.attempted >= WARM_OPS);
        run.setup_s.push(t.elapsed().as_secs_f64());
        if warm {
            measure(cfg, seconds, &env, run, &mut client, &mut conns, &tracing);
        }
        run.errors.append(&mut client.errors);
        run.tracer = std::mem::replace(&mut client.tracer, Tracer::new(t, 0));
        close_all(conns, &mut run.errors);
        stop.store(true, Ordering::Relaxed);
        let report = server.join().expect("server thread");
        (report, client.lat, client.blackout)
    });
    run.hist("socket.accept").merge(&report.accept);
    run.errors.extend(report.errors);
    run.tracer.merge(report.tracer);
    if run.errors.is_empty() {
        // Connects are timed on the idle pool, after the window: under
        // load they measure mostly how soon a blocked thread is
        // scheduled again. Reconnects under load count as blackout.
        let mut connect = Hist::default();
        let probe = probe_streams(
            &env.stack,
            &env.a,
            env.server_ip,
            PORT,
            &listener,
            seed,
            PROBE_IDS,
            &mut connect,
        );
        match probe {
            Ok(()) => run.end_round(&lat, &connect, &blackout),
            Err(e) => run.errors.push(e),
        }
    }
    drop(listener);
    drop(env);
}

fn measure(
    cfg: &Config,
    seconds: f64,
    env: &Env,
    run: &mut Run,
    client: &mut Client,
    conns: &mut [Conn],
    tracing: &AtomicBool,
) {
    let (before, snap_us) = Counters::read(&env.cluster, &env.hosts);
    run.hist("telemetry.snapshot")
        .record((snap_us * 1e3) as u64);
    let (connects0, bytes0, attempted0, failed0) = (
        client.connects,
        client.bytes,
        client.attempted,
        client.failed,
    );
    // Latencies and blackouts of the warm-up do not count.
    client.lat = Hist::default();
    client.blackout = Hist::default();
    let mut slicer = Slicer::start(seconds, cfg.trace, client.completed);
    let mut connects = 0;
    let ok = client.run(conns, |c| {
        let (on, done) = slicer.tick(c.completed, run);
        c.tracer.on = on;
        tracing.store(on, Ordering::Relaxed);
        if done {
            run.payload_bytes += c.bytes - bytes0;
            connects = c.connects - connects0;
        }
        done
    });
    client.tracer.on = false;
    tracing.store(false, Ordering::Relaxed);
    run.attempted += client.attempted - attempted0;
    run.failed += client.failed - failed0;
    if !ok {
        return;
    }
    let (after, _) = Counters::read(&env.cluster, &env.hosts);
    let growth = after.since(&before);
    run.growth.add(&growth);
    let channels = env.stack.channel_count(&env.a);
    run.layers.insert("socket.channels", channels as f64);
    let reuse = run.layers.entry("socket.reuse_ratio").or_insert(0.0);
    // Both ends note a reuse for every connect onto the shared channel.
    *reuse = growth.qp_reuse as f64 / (2 * connects.max(1)) as f64;

    run.check(channels == 1, || {
        format!("{channels} channels for one peer (want 1)")
    });
    run.check(growth.qp_reuse == 2 * connects, || {
        format!(
            "{} channel reuses for {connects} connects (want 2 per connect)",
            growth.qp_reuse
        )
    });
    for (name, v) in [
        ("socket.retransmits", growth.retransmits),
        ("socket.reorders", growth.reorders),
        ("core.failovers", growth.failovers),
        ("agent.nacks", growth.nacks),
        ("migrate.committed", growth.committed),
        ("migrate.aborted", growth.aborted),
    ] {
        run.check(v == 0, || format!("{name} = {v} (must be 0)"));
    }
    run.check(growth.relayed_out > 0, || {
        "socket traffic bypassed the relay".into()
    });
}
