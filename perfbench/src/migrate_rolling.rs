//! `migrate_rolling`: three hosts. A client container on host 0 keeps
//! [`STREAMS`] pooled socket streams and one verbs QP pair to a server
//! container that is moved back and forth between hosts 1 and 2, one
//! move after another. After each move the client resumes traffic on
//! every stream and the QP and verifies every reply.
//!
//! One load thread plays both ends. A move's blackout runs from the
//! `migrate_with` call until every stream and the QP have completed a
//! request again; those first requests count toward the blackout, and
//! only the [`EXCHANGES_PER_MOVE`] exchanges that follow count toward
//! latency.

use crate::layers::Counters;
use crate::socket_kv::{self, Kind};
use crate::trace::{Parent, Tracer, REQUEST};
use crate::util::{self, Hist, Rng};
use crate::{Config, Run, Slicer, STALL_LIMIT};
use freeflow::binding::BindingPhase;
use freeflow::{Container, FfQp, FreeFlowCluster, MigrationOutcome};
use freeflow_socket::{FfListener, FfStream, SocketStack};
use freeflow_types::{HostCaps, HostId, TenantId};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use freeflow_verbs::{CompletionQueue, MemoryRegion};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Streams multiplexed onto the moving container.
const STREAMS: usize = 8;
/// Exchanges (a request on every stream and on the QP) between two
/// moves, after the first post-move exchange.
const EXCHANGES_PER_MOVE: usize = 3;
const PORT: u16 = 7100;
/// Warm-up: exchanges and moves run during set-up.
const WARM_EXCHANGES: usize = 8;
const WARM_MOVES: usize = 2;
/// Verbs message sizes (64 B or 4 KiB, seeded) and buffer size.
const QP_BUF: u64 = 4 << 10;
const QP_HDR: usize = 8;
const SALT_QP_REQ: u64 = 0x7000_0000_0000_0000;
const SALT_QP_REPLY: u64 = 0x7100_0000_0000_0000;
const OP_TABLE: usize = 1 << 14;

/// One stood-up world. Fields drop in declaration order: streams and
/// the stack first, the cluster last.
struct Env {
    clients: Vec<FfStream>,
    servers: Vec<FfStream>,
    listener: FfListener,
    stack: Arc<SocketStack>,
    qp_a: Arc<FfQp>,
    qp_b: Arc<FfQp>,
    cq_a: Arc<CompletionQueue>,
    cq_b: Arc<CompletionQueue>,
    mr_a: Arc<MemoryRegion>,
    mr_b: Arc<MemoryRegion>,
    a: Container,
    b: Option<Container>,
    /// The two hosts the server container alternates between.
    homes: [HostId; 2],
    hosts: Vec<HostId>,
    cluster: Arc<FreeFlowCluster>,
}

fn setup(run: &mut Run) -> Result<Env, String> {
    let cluster = FreeFlowCluster::with_defaults();
    let hosts: Vec<HostId> = (0..3)
        .map(|_| cluster.add_host(HostCaps::paper_testbed()))
        .collect();
    let mut start = |h| {
        let t = Instant::now();
        let c = cluster
            .launch(TenantId::new(1), h)
            .expect("launch container");
        run.hist("core.launch").record_since(t);
        c
    };
    let a = start(hosts[0]);
    let b = start(hosts[1]);
    let stack = SocketStack::new();
    let listener = stack.bind(&b, PORT).expect("bind server port");
    let (clients, servers) = socket_kv::connect_n(
        &stack,
        &a,
        b.ip(),
        PORT,
        &listener,
        STREAMS,
        &mut Hist::default(),
    )?
    .into_iter()
    .unzip();
    let mr_a = a
        .register(4 * QP_BUF, AccessFlags::all())
        .expect("register client MR");
    let mr_b = b
        .register(4 * QP_BUF, AccessFlags::all())
        .expect("register server MR");
    let cq_a = a.create_cq(64);
    let cq_b = b.create_cq(64);
    let qp_a = a.create_qp(&cq_a, &cq_a, 64, 64).expect("create client QP");
    let qp_b = b.create_qp(&cq_b, &cq_b, 64, 64).expect("create server QP");
    for (qp, peer) in [(&qp_a, &qp_b), (&qp_b, &qp_a)] {
        let t = Instant::now();
        qp.connect(peer.endpoint()).expect("connect QP");
        run.hist("core.qp_connect").record_since(t);
    }
    let env = Env {
        clients,
        servers,
        listener,
        stack,
        qp_a,
        qp_b,
        cq_a,
        cq_b,
        mr_a,
        mr_b,
        a,
        b: Some(b),
        homes: [hosts[1], hosts[2]],
        hosts,
        cluster,
    };
    for s in env.clients.iter().chain(env.servers.iter()) {
        s.qp().set_relay_timeout(Duration::from_secs(30));
    }
    for qp in [&env.qp_a, &env.qp_b] {
        qp.set_relay_timeout(Duration::from_secs(30));
    }
    Ok(env)
}

/// Generated inputs plus every tally of the closed loop.
struct Mover {
    seed: u64,
    kinds: Vec<Kind>,
    qp_sizes: Vec<u32>,
    next: usize,
    next_req: u64,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    completed: u64,
    attempted: u64,
    failed: u64,
    bytes: u64,
    lat: Hist,
    blackout: Hist,
    call: Hist,
    reported: Hist,
    rebind: Hist,
    checkpoint: Hist,
    committed: u64,
    aborted: u64,
    errors: Vec<String>,
    tracer: Tracer,
}

impl Mover {
    fn new(seed: u64, tracer: Tracer) -> Self {
        let mut rng = Rng::new(seed);
        let kinds = socket_kv::generate_kinds(&mut rng, OP_TABLE);
        let qp_sizes = (0..OP_TABLE)
            .map(|_| {
                if rng.percent() < 70 {
                    64
                } else {
                    QP_BUF as u32
                }
            })
            .collect();
        Self {
            seed,
            kinds,
            qp_sizes,
            next: 0,
            next_req: 0,
            out: vec![0u8; socket_kv::PUT_REQ],
            inbuf: vec![0u8; socket_kv::PUT_REQ],
            completed: 0,
            attempted: 0,
            failed: 0,
            bytes: 0,
            lat: Hist::default(),
            blackout: Hist::default(),
            call: Hist::default(),
            reported: Hist::default(),
            rebind: Hist::default(),
            checkpoint: Hist::default(),
            committed: 0,
            aborted: 0,
            errors: Vec::new(),
            tracer,
        }
    }

    fn fail(&mut self, what: String) {
        self.errors.push(what);
    }

    /// One request on every stream and on the QP, pipelined across the
    /// streams; latencies go to `lat` when `timed`.
    fn exchange(&mut self, env: &mut Env, timed: bool) {
        let mut spans = [(0u64, Instant::now(), Instant::now(), Kind::Get, 0u64); STREAMS];
        for (i, c) in env.clients.iter_mut().enumerate() {
            let kind = self.kinds[self.next % self.kinds.len()];
            self.next += 1;
            let req_id = self.next_req;
            self.next_req += 1;
            let len = socket_kv::request(&mut self.out, self.seed, req_id, kind);
            let span = self.tracer.new_id();
            let parent = (span != 0).then_some((span, REQUEST));
            let started = Instant::now();
            let out = &self.out[..len];
            self.attempted += 1;
            if let Err(e) = self
                .tracer
                .child("socket.write", parent, || c.write_all(out))
            {
                self.fail(format!("stream {i} request write failed: {e}"));
                return;
            }
            spans[i] = (span, started, Instant::now(), kind, req_id);
        }
        for (i, s) in env.servers.iter_mut().enumerate() {
            let len = spans[i].3.request_len();
            if let Err(e) = s.read_exact(&mut self.inbuf[..len]) {
                self.fail(format!("stream {i} request read failed: {e}"));
                return;
            }
            match socket_kv::serve(&self.inbuf[..len], self.seed, &mut self.out) {
                Some(rlen) => {
                    if let Err(e) = s.write_all(&self.out[..rlen]) {
                        self.fail(format!("stream {i} reply write failed: {e}"));
                        return;
                    }
                }
                None => {
                    self.fail(format!("stream {i} request arrived corrupted"));
                    return;
                }
            }
        }
        for (i, c) in env.clients.iter_mut().enumerate() {
            let (span, started, written, kind, req_id) = spans[i];
            let rlen = kind.reply_len();
            let parent = (span != 0).then_some((span, REQUEST));
            let buf = &mut self.inbuf[..rlen];
            if let Err(e) = self
                .tracer
                .child("socket.read", parent, || c.read_exact(buf))
            {
                self.fail(format!("stream {i} reply read failed: {e}"));
                return;
            }
            let end = Instant::now();
            if !socket_kv::reply_ok(&self.inbuf[..rlen], self.seed, req_id, kind) {
                self.fail(format!("stream {i} reply to request {req_id} bytes differ"));
                return;
            }
            let _ = written;
            self.completed += 1;
            self.bytes += (kind.request_len() + rlen) as u64;
            if timed {
                self.lat
                    .record(end.duration_since(started).as_nanos() as u64);
            }
            self.tracer.record(span, REQUEST, None, started, end);
        }
        self.qp_request(env, timed);
    }

    /// Wait for one completion on `cq`, as a `verbs.cq_wait` span.
    fn wait(&mut self, cq: &CompletionQueue, parent: Option<Parent>, what: &str) -> bool {
        match self
            .tracer
            .child("verbs.cq_wait", parent, || cq.wait_one(STALL_LIMIT))
        {
            Some(wc) if wc.status.is_ok() => true,
            Some(wc) => {
                self.fail(format!("{what}: completion {:?}", wc.status));
                false
            }
            None => {
                self.fail(format!("{what}: lost completion"));
                false
            }
        }
    }

    /// A SEND request answered by a SEND reply over the verbs pair.
    fn qp_request(&mut self, env: &Env, timed: bool) {
        let len = self.qp_sizes[self.next % self.qp_sizes.len()] as usize;
        let req_id = self.next_req;
        self.next_req += 1;
        let key = socket_kv::key(self.seed, req_id);
        let span = self.tracer.new_id();
        let parent = (span != 0).then_some((span, REQUEST));
        self.attempted += 1;
        // Receives for this exchange: the request lands at offset 0 of
        // the server MR, the reply at offset QP_BUF of the client MR.
        let posted = env
            .qp_b
            .post_recv(RecvWr::new(req_id, env.mr_b.sge(0, QP_BUF as u32)))
            .and_then(|()| {
                env.qp_a
                    .post_recv(RecvWr::new(req_id, env.mr_a.sge(QP_BUF, QP_BUF as u32)))
            });
        if let Err(e) = posted {
            self.fail(format!("QP post_recv failed: {e}"));
            return;
        }
        let msg = &mut self.out[..len];
        msg[..QP_HDR].copy_from_slice(&req_id.to_le_bytes());
        util::fill(&mut msg[QP_HDR..], key ^ SALT_QP_REQ);
        env.mr_a.write(0, msg).expect("stage QP request");
        let started = Instant::now();
        let wr = SendWr::send(req_id, env.mr_a.sge(0, len as u32));
        if let Err(e) = self
            .tracer
            .child("core.post_send", parent, || env.qp_a.post_send(wr))
        {
            self.fail(format!("QP post_send failed: {e}"));
            return;
        }
        // Server: its receive, then our send completion.
        if !self.wait(&env.cq_b, parent, "QP request receive")
            || !self.wait(&env.cq_a, parent, "QP request send")
        {
            return;
        }
        env.mr_b
            .read(0, &mut self.inbuf[..len])
            .expect("read QP request");
        if self.inbuf[..QP_HDR] != req_id.to_le_bytes()
            || !util::matches(&self.inbuf[QP_HDR..len], key ^ SALT_QP_REQ)
        {
            self.fail(format!("QP request {req_id} arrived corrupted"));
            return;
        }
        let reply = &mut self.out[..len];
        util::fill(&mut reply[QP_HDR..], key ^ SALT_QP_REPLY);
        env.mr_b.write(QP_BUF, reply).expect("stage QP reply");
        let wr = SendWr::send(req_id, env.mr_b.sge(QP_BUF, len as u32));
        if let Err(e) = self
            .tracer
            .child("core.post_send", parent, || env.qp_b.post_send(wr))
        {
            self.fail(format!("QP reply post_send failed: {e}"));
            return;
        }
        if !self.wait(&env.cq_a, parent, "QP reply receive")
            || !self.wait(&env.cq_b, parent, "QP reply send")
        {
            return;
        }
        let end = Instant::now();
        env.mr_a
            .read(QP_BUF, &mut self.inbuf[..len])
            .expect("read QP reply");
        if self.inbuf[..QP_HDR] != req_id.to_le_bytes()
            || !util::matches(&self.inbuf[QP_HDR..len], key ^ SALT_QP_REPLY)
        {
            self.fail(format!("QP reply {req_id} bytes differ"));
            return;
        }
        self.completed += 1;
        self.bytes += 2 * len as u64;
        if timed {
            self.lat
                .record(end.duration_since(started).as_nanos() as u64);
        }
        self.tracer.record(span, REQUEST, None, started, end);
    }

    /// Move the server container to its other home, wait for every
    /// binding to settle, and run the first exchange after the move.
    fn move_once(&mut self, env: &mut Env) {
        let b = env.b.take().expect("server container present");
        let target = if b.host() == env.homes[0] {
            env.homes[1]
        } else {
            env.homes[0]
        };
        let id = self.tracer.new_id();
        let parent = (id != 0).then_some((id, "move"));
        let t0 = Instant::now();
        self.attempted += 1;
        let moved = self.tracer.child("cluster.migrate_with", parent, || {
            env.cluster.migrate_with(b, target, None)
        });
        self.call.record_since(t0);
        let (b, report) = match moved {
            Ok(x) => x,
            Err(e) => {
                self.fail(format!("migrate_with failed: {e}"));
                return;
            }
        };
        env.b = Some(b);
        self.reported.record(report.blackout_ns);
        self.checkpoint.record(report.checkpoint_bytes);
        if report.outcome == MigrationOutcome::Committed && report.moved {
            self.committed += 1;
        } else {
            self.aborted += 1;
            self.failed += 1;
        }
        let t1 = Instant::now();
        let settled = self.tracer.child("migrate.rebind_wait", parent, || {
            let qps = env
                .clients
                .iter()
                .chain(env.servers.iter())
                .map(|s| s.qp())
                .chain([&env.qp_a, &env.qp_b]);
            let qps: Vec<&Arc<FfQp>> = qps.collect();
            let deadline = Instant::now() + STALL_LIMIT;
            loop {
                if qps.iter().all(|q| q.binding_phase() == BindingPhase::Bound) {
                    return true;
                }
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        self.rebind.record_since(t1);
        if !settled {
            self.fail("bindings did not settle after a move".into());
            return;
        }
        self.exchange(env, false);
        let end = Instant::now();
        self.blackout
            .record(end.duration_since(t0).as_nanos() as u64);
        self.tracer.record(id, "move", None, t0, end);
    }

    /// One move followed by [`EXCHANGES_PER_MOVE`] timed exchanges.
    fn cycle(&mut self, env: &mut Env) {
        self.move_once(env);
        for _ in 0..EXCHANGES_PER_MOVE {
            if !self.errors.is_empty() {
                return;
            }
            self.exchange(env, true);
        }
    }
}

/// One round: a fresh cluster with warm-up moves, the timed window of
/// move-then-exchanges cycles, the checks, then the connect probes.
pub fn round(cfg: &Config, r: usize, seconds: f64, run: &mut Run) {
    let t = Instant::now();
    let mut env = match setup(run) {
        Ok(e) => e,
        Err(e) => {
            run.errors.push(e);
            return;
        }
    };
    let tracer = std::mem::replace(&mut run.tracer, Tracer::new(t, 0));
    let mut mover = Mover::new(cfg.round_seed(r), tracer);
    for i in 0..WARM_EXCHANGES {
        mover.exchange(&mut env, false);
        if i < WARM_MOVES {
            mover.move_once(&mut env);
        }
    }
    run.setup_s.push(t.elapsed().as_secs_f64());
    if mover.errors.is_empty() {
        measure(cfg, seconds, &mut env, run, &mut mover);
    }
    run.errors.append(&mut mover.errors);
    run.tracer = std::mem::replace(&mut mover.tracer, Tracer::new(t, 0));
    for c in env.clients.iter_mut() {
        let _ = c.shutdown();
    }
    drop(env);
}

fn measure(cfg: &Config, seconds: f64, env: &mut Env, run: &mut Run, mover: &mut Mover) {
    let (before, snap_us) = Counters::read(&env.cluster, &env.hosts);
    run.hist("telemetry.snapshot")
        .record((snap_us * 1e3) as u64);
    let (bytes0, attempted0, failed0, committed0, aborted0) = (
        mover.bytes,
        mover.attempted,
        mover.failed,
        mover.committed,
        mover.aborted,
    );
    // Warm-up moves and exchanges do not count.
    for h in [
        &mut mover.lat,
        &mut mover.blackout,
        &mut mover.call,
        &mut mover.reported,
        &mut mover.rebind,
        &mut mover.checkpoint,
    ] {
        *h = Hist::default();
    }
    let mut slicer = Slicer::start(seconds, cfg.trace, mover.completed);
    loop {
        let (tracing, done) = slicer.tick(mover.completed, run);
        mover.tracer.on = tracing;
        if done || !mover.errors.is_empty() {
            break;
        }
        mover.cycle(env);
    }
    mover.tracer.on = false;
    run.payload_bytes += mover.bytes - bytes0;
    run.attempted += mover.attempted - attempted0;
    run.failed += mover.failed - failed0;
    for (name, h) in [
        ("migrate.call", &mover.call),
        ("migrate.reported_blackout", &mover.reported),
        ("migrate.rebind_wait", &mover.rebind),
        ("migrate.checkpoint_bytes", &mover.checkpoint),
    ] {
        run.hist(name).merge(h);
    }
    if !mover.errors.is_empty() {
        return;
    }
    let (after, _) = Counters::read(&env.cluster, &env.hosts);
    let growth = after.since(&before);
    run.growth.add(&growth);
    let channels = env.stack.channel_count(&env.a);
    run.layers.insert("socket.channels", channels as f64);
    let (committed, aborted) = (mover.committed - committed0, mover.aborted - aborted0);
    run.check(growth.committed == committed, || {
        format!(
            "{} commits counted, {committed} moves committed",
            growth.committed
        )
    });
    run.check(growth.aborted == aborted, || {
        format!("{} aborts counted, {aborted} moves aborted", growth.aborted)
    });
    run.check(channels == 1, || {
        format!("{channels} channels for one peer (want 1)")
    });
    run.check(committed + aborted > 0, || "no move in the window".into());

    // Connect probes run after the window and count toward nothing else.
    let mut connect = Hist::default();
    let b_ip = env.b.as_ref().expect("server container present").ip();
    let probe = socket_kv::probe_streams(
        &env.stack,
        &env.a,
        b_ip,
        PORT,
        &env.listener,
        mover.seed,
        mover.next_req,
        &mut connect,
    );
    mover.next_req += socket_kv::CONNECT_PROBES as u64;
    if let Err(e) = probe {
        mover.fail(e);
    }
    run.end_round(&mover.lat, &connect, &mover.blackout);
}
