//! `relay_rpc` and `colocated_rpc`: one verbs QP pair, a closed loop of
//! [`WINDOW`] outstanding requests run by one load thread that polls
//! both CQs and plays both the client and the server.
//!
//! The seeded mix is 60 % SEND answered by a SEND reply, 20 % RDMA
//! WRITE and 20 % RDMA READ, with payloads of 64 B (70 %), 4 KiB (20 %)
//! or 64 KiB (10 %). The two workloads differ only in placement: across
//! two hosts every op goes through the library pump, the agents and the
//! wire; on one host FfQp binds `Local` and the verbs engine does all
//! the work.

use crate::layers::Counters;
use crate::trace::{Parent, Tracer, REQUEST};
use crate::util::{self, Hist, Rng};
use crate::{Config, Run, Slicer, STALL_LIMIT};
use freeflow::qp::FfPath;
use freeflow::{Container, FfQp, FreeFlowCluster};
use freeflow_types::{HostCaps, HostId, TenantId};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr, WorkCompletion};
use freeflow_verbs::{CompletionQueue, MemoryRegion, QpState};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests kept outstanding.
const WINDOW: usize = 8;
/// Largest message; every buffer is this big.
const BUF: u64 = 64 << 10;
/// Receive buffers per side (twice the window, so a receive is always
/// posted ahead of the next message).
const RECVS: usize = 2 * WINDOW;
/// Request/reply header: request id (8), slot (4), reply length (4).
const HDR: usize = 16;
/// Generated ops, cycled through in order.
const OP_TABLE: usize = 1 << 16;
/// Requests run to warm the path before the timed window (part of set-up).
const WARM_OPS: u64 = 256;
/// Fresh QP pairs connected after each round's window to time connects.
const CONNECT_PROBES: usize = 100;
/// Upper end of the seeded busy wait before each probe, µs.
const PROBE_JITTER_US: u64 = 250;

/// Pattern salts: each direction of each op kind gets its own pattern.
const SALT_REQ: u64 = 0x1000_0000_0000_0000;
const SALT_REPLY: u64 = 0x2000_0000_0000_0000;
const SALT_WRITE: u64 = 0x3000_0000_0000_0000;
const SALT_READ: u64 = 0x4000_0000_0000_0000;

/// Completion tags (the high half of every `wr_id`).
const TAG_SEND: u64 = 1;
const TAG_WRITE: u64 = 2;
const TAG_READ: u64 = 3;
const TAG_REPLY_RECV: u64 = 4;
const TAG_REQ_RECV: u64 = 5;
const TAG_REPLY_SEND: u64 = 6;
const TAG_PROBE: u64 = 7;

fn wr_id(tag: u64, idx: usize) -> u64 {
    (tag << 32) | idx as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    CrossHost,
    Colocated,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Send,
    Write,
    Read,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    len: u32,
    reply_len: u32,
}

fn size(rng: &mut Rng) -> u32 {
    match rng.percent() {
        0..=69 => 64,
        70..=89 => 4 << 10,
        _ => 64 << 10,
    }
}

/// The seeded op table, generated before any timing starts.
fn generate(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..OP_TABLE)
        .map(|_| {
            let kind = match rng.percent() {
                0..=59 => Kind::Send,
                60..=79 => Kind::Write,
                _ => Kind::Read,
            };
            Op {
                kind,
                len: size(&mut rng),
                reply_len: size(&mut rng),
            }
        })
        .collect()
}

/// Offsets into the client MR (`mr_a`) and server MR (`mr_b`).
fn a_send(slot: usize) -> u64 {
    slot as u64 * BUF
}
fn a_land(slot: usize) -> u64 {
    (WINDOW + slot) as u64 * BUF
}
fn a_recv(i: usize) -> u64 {
    (2 * WINDOW + i) as u64 * BUF
}
const A_LEN: u64 = (2 * WINDOW + RECVS) as u64 * BUF;
fn b_recv(i: usize) -> u64 {
    i as u64 * BUF
}
fn b_reply(slot: usize) -> u64 {
    (RECVS + slot) as u64 * BUF
}
fn b_write(slot: usize) -> u64 {
    (RECVS + WINDOW + slot) as u64 * BUF
}
fn b_read(slot: usize) -> u64 {
    (RECVS + 2 * WINDOW + slot) as u64 * BUF
}
const B_LEN: u64 = (RECVS + 3 * WINDOW) as u64 * BUF;

/// One stood-up world: the QP pair, both containers and the cluster.
/// Fields drop in declaration order, the cluster last.
struct Env {
    qp_a: Arc<FfQp>,
    qp_b: Arc<FfQp>,
    cq_a: Arc<CompletionQueue>,
    cq_b: Arc<CompletionQueue>,
    mr_a: Arc<MemoryRegion>,
    mr_b: Arc<MemoryRegion>,
    a: Container,
    b: Container,
    hosts: Vec<HostId>,
    cluster: Arc<FreeFlowCluster>,
}

/// Connect a fresh QP pair between `a` and `b` on the given CQs.
fn qp_pair(
    a: &Container,
    b: &Container,
    cq_a: &Arc<CompletionQueue>,
    cq_b: &Arc<CompletionQueue>,
    connect_us: &mut Hist,
) -> (Arc<FfQp>, Arc<FfQp>) {
    let qp_a = a.create_qp(cq_a, cq_a, 64, 64).expect("create client QP");
    let qp_b = b.create_qp(cq_b, cq_b, 64, 64).expect("create server QP");
    let t = Instant::now();
    qp_a.connect(qp_b.endpoint()).expect("connect client QP");
    connect_us.record_since(t);
    let t = Instant::now();
    qp_b.connect(qp_a.endpoint()).expect("connect server QP");
    connect_us.record_since(t);
    for qp in [&qp_a, &qp_b] {
        qp.set_relay_timeout(Duration::from_secs(30));
    }
    (qp_a, qp_b)
}

fn setup(placement: Placement, run: &mut Run) -> Env {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let hosts = match placement {
        Placement::Colocated => vec![h0],
        Placement::CrossHost => vec![h0, cluster.add_host(HostCaps::paper_testbed())],
    };
    let mut start = |h| {
        let t = Instant::now();
        let c = cluster
            .launch(TenantId::new(1), h)
            .expect("launch container");
        run.hist("core.launch").record_since(t);
        c
    };
    let a = start(hosts[0]);
    let b = start(*hosts.last().expect("one host at least"));
    let mr_a = a
        .register(A_LEN, AccessFlags::all())
        .expect("register client MR");
    let mr_b = b
        .register(B_LEN, AccessFlags::all())
        .expect("register server MR");
    let cq_a = a.create_cq(256);
    let cq_b = b.create_cq(256);
    let (qp_a, qp_b) = qp_pair(&a, &b, &cq_a, &cq_b, run.hist("core.qp_connect"));
    for i in 0..RECVS {
        qp_a.post_recv(RecvWr::new(
            wr_id(TAG_REPLY_RECV, i),
            mr_a.sge(a_recv(i), BUF as u32),
        ))
        .expect("post client receive");
        qp_b.post_recv(RecvWr::new(
            wr_id(TAG_REQ_RECV, i),
            mr_b.sge(b_recv(i), BUF as u32),
        ))
        .expect("post server receive");
    }
    Env {
        qp_a,
        qp_b,
        cq_a,
        cq_b,
        mr_a,
        mr_b,
        a,
        b,
        hosts,
        cluster,
    }
}

#[derive(Clone, Copy)]
struct Slot {
    busy: bool,
    req_id: u64,
    op: Op,
    started: Instant,
    /// Completions still owed before the request ends.
    pending: u8,
    failed: bool,
    span: u64,
}

/// The closed loop's state: slots, generated ops and tallies.
struct Engine<'e> {
    env: &'e Env,
    seed: u64,
    ops: Vec<Op>,
    next_op: usize,
    next_req: u64,
    slots: [Slot; WINDOW],
    /// Server replies posted whose send completion is still owed.
    replies_owed: usize,
    stage: Vec<u8>,
    wcs: Vec<WorkCompletion>,
    /// Completions polled from both CQs.
    polled: u64,
    completed: u64,
    failed: u64,
    attempted: u64,
    bytes: u64,
    lat: Hist,
    errors: Vec<String>,
    tracer: Tracer,
    /// Start of the current empty-poll stretch.
    wait_since: Option<Instant>,
}

impl<'e> Engine<'e> {
    fn new(env: &'e Env, seed: u64, tracer: Tracer) -> Self {
        let idle = Slot {
            busy: false,
            req_id: 0,
            op: Op {
                kind: Kind::Send,
                len: 0,
                reply_len: 0,
            },
            started: Instant::now(),
            pending: 0,
            failed: false,
            span: 0,
        };
        Self {
            env,
            seed,
            ops: generate(seed),
            next_op: 0,
            next_req: 0,
            slots: [idle; WINDOW],
            replies_owed: 0,
            stage: vec![0; BUF as usize],
            wcs: Vec::with_capacity(64),
            polled: 0,
            completed: 0,
            failed: 0,
            attempted: 0,
            bytes: 0,
            lat: Hist::default(),
            errors: Vec::new(),
            tracer,
            wait_since: None,
        }
    }

    /// The pattern key of one request: tied to the seed and request id.
    fn key(&self, req_id: u64) -> u64 {
        self.seed.rotate_left(40) ^ req_id
    }

    fn parent(&self, slot: usize) -> Option<Parent> {
        let id = self.slots[slot].span;
        (id != 0).then_some((id, REQUEST))
    }

    fn start(&mut self, slot: usize) {
        let op = self.ops[self.next_op];
        self.next_op = (self.next_op + 1) % self.ops.len();
        let req_id = self.next_req;
        self.next_req += 1;
        let key = self.key(req_id);
        let env = self.env;
        let len = op.len as usize;
        let (wr, pending) = match op.kind {
            Kind::Send => {
                let buf = &mut self.stage[..len];
                buf[..8].copy_from_slice(&req_id.to_le_bytes());
                buf[8..12].copy_from_slice(&(slot as u32).to_le_bytes());
                buf[12..16].copy_from_slice(&op.reply_len.to_le_bytes());
                util::fill(&mut buf[HDR..], key ^ SALT_REQ);
                env.mr_a.write(a_send(slot), buf).expect("stage request");
                (
                    SendWr::send(wr_id(TAG_SEND, slot), env.mr_a.sge(a_send(slot), op.len)),
                    2,
                )
            }
            Kind::Write => {
                util::fill(&mut self.stage[..len], key ^ SALT_WRITE);
                env.mr_a
                    .write(a_send(slot), &self.stage[..len])
                    .expect("stage write");
                let remote = env.mr_b.addr() + b_write(slot);
                let sge = env.mr_a.sge(a_send(slot), op.len);
                (
                    SendWr::write(wr_id(TAG_WRITE, slot), sge, remote, env.mr_b.rkey()),
                    1,
                )
            }
            Kind::Read => {
                // The server publishes what the client will read.
                util::fill(&mut self.stage[..len], key ^ SALT_READ);
                env.mr_b
                    .write(b_read(slot), &self.stage[..len])
                    .expect("stage read");
                let remote = env.mr_b.addr() + b_read(slot);
                let sge = env.mr_a.sge(a_land(slot), op.len);
                (
                    SendWr::read(wr_id(TAG_READ, slot), sge, remote, env.mr_b.rkey()),
                    1,
                )
            }
        };
        let span = self.tracer.new_id();
        self.slots[slot] = Slot {
            busy: true,
            req_id,
            op,
            started: Instant::now(),
            pending,
            failed: false,
            span,
        };
        self.attempted += 1;
        let parent = self.parent(slot);
        let posted = self
            .tracer
            .child("core.post_send", parent, || env.qp_a.post_send(wr));
        if let Err(e) = posted {
            self.errors
                .push(format!("post_send of request {req_id} failed: {e}"));
        }
    }

    /// Settle one owed completion of `slot`; ends the request at zero.
    fn settle(&mut self, slot: usize, ok: bool) {
        let s = &mut self.slots[slot];
        s.failed |= !ok;
        s.pending -= 1;
        if s.pending > 0 {
            return;
        }
        s.busy = false;
        let end = Instant::now();
        let s = *s;
        self.lat
            .record(end.duration_since(s.started).as_nanos() as u64);
        if s.failed {
            self.failed += 1;
        } else {
            self.completed += 1;
            let reply = if s.op.kind == Kind::Send {
                s.op.reply_len
            } else {
                0
            };
            self.bytes += u64::from(s.op.len + reply);
        }
        self.tracer.record(s.span, REQUEST, None, s.started, end);
    }

    fn read_a(&mut self, off: u64, len: usize) {
        self.env
            .mr_a
            .read(off, &mut self.stage[..len])
            .expect("read client MR");
    }

    /// Handle a client-side completion; returns the slot it advanced.
    fn on_client(&mut self, wc: WorkCompletion) -> Option<usize> {
        let (tag, idx) = (wc.wr_id >> 32, (wc.wr_id & 0xFFFF_FFFF) as usize);
        let ok = wc.status.is_ok();
        if !ok {
            self.errors
                .push(format!("client completion {:?} for tag {tag}", wc.status));
        }
        match tag {
            TAG_SEND => {
                self.settle(idx, ok);
                Some(idx)
            }
            TAG_WRITE | TAG_READ => {
                let s = self.slots[idx];
                let len = s.op.len as usize;
                let key = self.key(s.req_id);
                let good = ok
                    && if tag == TAG_WRITE {
                        self.env
                            .mr_b
                            .read(b_write(idx), &mut self.stage[..len])
                            .is_ok()
                            && util::matches(&self.stage[..len], key ^ SALT_WRITE)
                    } else {
                        self.read_a(a_land(idx), len);
                        util::matches(&self.stage[..len], key ^ SALT_READ)
                    };
                if ok && !good {
                    self.errors.push(format!(
                        "request {} ({:?}) bytes differ",
                        s.req_id, s.op.kind
                    ));
                }
                self.settle(idx, good);
                Some(idx)
            }
            TAG_REPLY_RECV => {
                if !ok {
                    return None;
                }
                let len = wc.byte_len as usize;
                self.read_a(a_recv(idx), len);
                let req_id = u64::from_le_bytes(self.stage[..8].try_into().expect("8 bytes"));
                let slot =
                    u32::from_le_bytes(self.stage[8..12].try_into().expect("4 bytes")) as usize;
                let s = self.slots.get(slot).copied();
                let good = s.is_some_and(|s| {
                    s.busy
                        && s.req_id == req_id
                        && len == s.op.reply_len as usize
                        && util::matches(&self.stage[HDR..len], self.key(req_id) ^ SALT_REPLY)
                });
                let repost = RecvWr::new(wc.wr_id, self.env.mr_a.sge(a_recv(idx), BUF as u32));
                if let Err(e) = self.env.qp_a.post_recv(repost) {
                    self.errors.push(format!("client post_recv failed: {e}"));
                }
                if !good {
                    self.errors.push(format!(
                        "reply to request {req_id} (slot {slot}) bytes differ"
                    ));
                    return None;
                }
                self.settle(slot, true);
                Some(slot)
            }
            _ => {
                self.errors
                    .push(format!("unexpected client completion tag {tag}"));
                None
            }
        }
    }

    /// Handle a server-side completion; returns the slot it advanced.
    fn on_server(&mut self, wc: WorkCompletion) -> Option<usize> {
        let (tag, idx) = (wc.wr_id >> 32, (wc.wr_id & 0xFFFF_FFFF) as usize);
        if !wc.status.is_ok() {
            self.errors
                .push(format!("server completion {:?} for tag {tag}", wc.status));
            return None;
        }
        let env = self.env;
        match tag {
            TAG_REQ_RECV => {
                let len = wc.byte_len as usize;
                env.mr_b
                    .read(b_recv(idx), &mut self.stage[..len])
                    .expect("read server MR");
                let req_id = u64::from_le_bytes(self.stage[..8].try_into().expect("8 bytes"));
                let slot =
                    u32::from_le_bytes(self.stage[8..12].try_into().expect("4 bytes")) as usize;
                let reply_len = u32::from_le_bytes(self.stage[12..16].try_into().expect("4 bytes"));
                let key = self.key(req_id);
                let good = slot < WINDOW
                    && (HDR as u32..=BUF as u32).contains(&reply_len)
                    && util::matches(&self.stage[HDR..len], key ^ SALT_REQ);
                let repost = RecvWr::new(wc.wr_id, env.mr_b.sge(b_recv(idx), BUF as u32));
                if let Err(e) = env.qp_b.post_recv(repost) {
                    self.errors.push(format!("server post_recv failed: {e}"));
                }
                if !good {
                    self.errors
                        .push(format!("request {req_id} arrived corrupted"));
                    return None;
                }
                let out = &mut self.stage[..reply_len as usize];
                out[..8].copy_from_slice(&req_id.to_le_bytes());
                out[8..12].copy_from_slice(&(slot as u32).to_le_bytes());
                out[12..16].copy_from_slice(&reply_len.to_le_bytes());
                util::fill(&mut out[HDR..], key ^ SALT_REPLY);
                env.mr_b.write(b_reply(slot), out).expect("stage reply");
                let wr = SendWr::send(
                    wr_id(TAG_REPLY_SEND, slot),
                    env.mr_b.sge(b_reply(slot), reply_len),
                );
                let parent = self.parent(slot);
                match self
                    .tracer
                    .child("core.post_send", parent, || env.qp_b.post_send(wr))
                {
                    Ok(()) => self.replies_owed += 1,
                    Err(e) => self.errors.push(format!("reply post_send failed: {e}")),
                }
                Some(slot)
            }
            TAG_REPLY_SEND => {
                self.replies_owed -= 1;
                None
            }
            _ => {
                self.errors
                    .push(format!("unexpected server completion tag {tag}"));
                None
            }
        }
    }

    /// Poll both CQs once; returns how many completions were handled.
    fn poll(&mut self) -> usize {
        let mut wcs = std::mem::take(&mut self.wcs);
        let mut first: Option<usize> = None;
        let mut n = 0;
        for (client, cq) in [(true, &self.env.cq_a), (false, &self.env.cq_b)] {
            wcs.clear();
            cq.poll_many(64, &mut wcs);
            n += wcs.len();
            for &wc in &wcs {
                let slot = if client {
                    self.on_client(wc)
                } else {
                    self.on_server(wc)
                };
                first = first.or(slot);
            }
        }
        self.wcs = wcs;
        self.polled += n as u64;
        if n > 0 {
            if let (Some(since), Some(slot)) = (self.wait_since.take(), first) {
                let parent = self.parent(slot);
                self.tracer
                    .record(0, "verbs.cq_wait", parent, since, Instant::now());
            }
        } else if self.wait_since.is_none() {
            self.wait_since = Some(Instant::now());
        }
        n
    }

    fn busy(&self) -> usize {
        self.slots.iter().filter(|s| s.busy).count()
    }

    /// Poll until `done` says stop issuing, refilling free slots, then
    /// drain every outstanding request and reply. Returns false on a
    /// stall (a lost completion) or a correctness error.
    fn run(&mut self, mut done: impl FnMut(&mut Self) -> bool) -> bool {
        let mut last_progress = Instant::now();
        let mut stopping = false;
        loop {
            if !stopping {
                stopping = done(self);
            }
            if !stopping {
                for slot in 0..WINDOW {
                    if !self.slots[slot].busy {
                        self.start(slot);
                    }
                }
            } else if self.busy() == 0 && self.replies_owed == 0 {
                return self.errors.is_empty();
            }
            if !self.errors.is_empty() {
                return false;
            }
            if self.poll() > 0 {
                last_progress = Instant::now();
            } else {
                if last_progress.elapsed() > STALL_LIMIT {
                    self.errors.push(format!(
                        "lost completion: {} requests and {} replies outstanding for {STALL_LIMIT:?}",
                        self.busy(),
                        self.replies_owed
                    ));
                    return false;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Time fresh QP pairs: connect (`connect`) and connect + first SEND
/// delivered (`blackout`: how long a replaced connection is out of
/// service). Each probe starts after a seeded busy wait of up to
/// [`PROBE_JITTER_US`], so back-to-back probes do not lock onto one
/// phase of the pumps' idle timers.
fn probe_connects(env: &Env, seed: u64, run: &mut Run, connect: &mut Hist, blackout: &mut Hist) {
    let mut stage = vec![0u8; 64];
    let mut rng = Rng::new(seed);
    // The main pair is idle now, so the probes borrow its buffers.
    let (recv_off, send_off) = (b_recv(0), a_send(0));
    for i in 0..CONNECT_PROBES {
        let jitter = Duration::from_micros(rng.range(0, PROBE_JITTER_US));
        let spin = Instant::now();
        while spin.elapsed() < jitter {
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        let (qa, qb) = qp_pair(
            &env.a,
            &env.b,
            &env.cq_a,
            &env.cq_b,
            run.hist("core.qp_connect"),
        );
        connect.record_since(t0);
        qb.post_recv(RecvWr::new(wr_id(TAG_PROBE, i), env.mr_b.sge(recv_off, 64)))
            .expect("post probe receive");
        util::fill(&mut stage, i as u64);
        env.mr_a.write(send_off, &stage).expect("stage probe");
        qa.post_send(SendWr::send(
            wr_id(TAG_PROBE, i),
            env.mr_a.sge(send_off, 64),
        ))
        .expect("post probe send");
        let mut got = 0;
        let deadline = Instant::now() + STALL_LIMIT;
        while got < 2 && Instant::now() < deadline {
            for cq in [&env.cq_a, &env.cq_b] {
                if let Some(wc) = cq.poll_one() {
                    run.check(wc.status.is_ok() && wc.wr_id == wr_id(TAG_PROBE, i), || {
                        format!("connect probe {i}: completion {:?}", wc.status)
                    });
                    got += 1;
                }
            }
        }
        blackout.record_since(t0);
        run.check(got == 2, || format!("connect probe {i}: lost completion"));
        env.mr_b.read(recv_off, &mut stage).expect("read probe");
        run.check(util::matches(&stage, i as u64), || {
            format!("connect probe {i}: bytes differ")
        });
        if !run.errors.is_empty() {
            return;
        }
    }
}

/// One round: a fresh cluster, warm-up, the timed window, the checks,
/// then the connect probes.
pub fn round(cfg: &Config, r: usize, seconds: f64, placement: Placement, run: &mut Run) {
    let t = Instant::now();
    let env = setup(placement, run);
    let seed = cfg.round_seed(r);
    let tracer = std::mem::replace(&mut run.tracer, Tracer::new(t, 0));
    let mut eng = Engine::new(&env, seed, tracer);
    let warm = eng.run(|eng| eng.attempted >= WARM_OPS);
    run.setup_s.push(t.elapsed().as_secs_f64());
    if !warm {
        run.errors.append(&mut eng.errors);
        run.tracer = eng.tracer;
        return;
    }
    let (before, snap_us) = Counters::read(&env.cluster, &env.hosts);
    run.hist("telemetry.snapshot")
        .record((snap_us * 1e3) as u64);
    let (completed0, bytes0, attempted0, failed0, polled0) = (
        eng.completed,
        eng.bytes,
        eng.attempted,
        eng.failed,
        eng.polled,
    );
    eng.lat = Hist::default();
    let agents: Vec<_> = env
        .hosts
        .iter()
        .map(|&h| env.cluster.agent_of(h).expect("agent"))
        .collect();
    let mut in_flight_max = 0usize;
    let mut slicer = Slicer::start(seconds, cfg.trace, completed0);
    let ok = eng.run(|eng| {
        let (tracing, done) = slicer.tick(eng.completed, run);
        eng.tracer.on = tracing;
        if done {
            run.payload_bytes += eng.bytes - bytes0;
        }
        if tracing && eng.attempted % 64 == 0 {
            in_flight_max = in_flight_max.max(agents.iter().map(|a| a.relay_in_flight()).sum());
        }
        done
    });
    eng.tracer.on = false;
    run.attempted += eng.attempted - attempted0;
    run.failed += eng.failed - failed0;
    run.errors.append(&mut eng.errors);
    let lat = std::mem::take(&mut eng.lat);
    let polled = eng.polled - polled0;
    let requests = eng.completed - completed0;
    run.tracer = std::mem::replace(&mut eng.tracer, Tracer::new(t, 0));
    drop(eng);
    if !ok {
        return;
    }
    let (after, _) = Counters::read(&env.cluster, &env.hosts);
    let growth = after.since(&before);
    run.growth.add(&growth);
    let max = run.layers.entry("agent.relay_in_flight_max").or_insert(0.0);
    *max = max.max(in_flight_max as f64);

    // Reconciliation and bypass checks on this round's counters.
    run.check(growth.completions == polled, || {
        format!(
            "verbs.completions grew {} for {polled} completions polled",
            growth.completions
        )
    });
    for (name, v) in [
        ("socket.retransmits", growth.retransmits),
        ("socket.reorders", growth.reorders),
        ("core.failovers", growth.failovers),
        ("core.rebinds", growth.rebinds),
        ("agent.nacks", growth.nacks),
        ("migrate.committed", growth.committed),
        ("migrate.aborted", growth.aborted),
    ] {
        run.check(v == 0, || format!("{name} = {v} (must be 0)"));
    }
    match placement {
        Placement::Colocated => {
            run.check(growth.relayed_out == 0, || {
                format!(
                    "colocated pair relayed {} messages through an agent",
                    growth.relayed_out
                )
            });
            run.check(matches!(env.qp_a.path(), FfPath::Local { .. }), || {
                format!("colocated pair bound {}", env.qp_a.path().label())
            });
        }
        Placement::CrossHost => {
            run.check(growth.relayed_out >= requests, || {
                format!(
                    "{} relays for {requests} cross-host requests",
                    growth.relayed_out
                )
            });
        }
    }
    run.check(
        env.qp_a.state() == QpState::Rts && env.qp_b.state() == QpState::Rts,
        || "QP pair left RTS".into(),
    );

    let mut connect = Hist::default();
    let mut blackout = Hist::default();
    probe_connects(&env, seed, run, &mut connect, &mut blackout);
    run.end_round(&lat, &connect, &blackout);
    drop(env);
}
