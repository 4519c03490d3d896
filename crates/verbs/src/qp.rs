//! Reliable-connected queue pairs.
//!
//! The QP is where Verbs semantics live: the
//! `RESET → INIT → RTR → RTS` state machine, bounded send/receive queues,
//! the four operations (`SEND`/`RECV`, `WRITE`, `READ`, `WRITE_WITH_IMM`)
//! and their completion rules. Operations execute immediately against the
//! peer QP found through the [`crate::network::VerbsNetwork`] — timing is
//! the simulator's concern (`freeflow-netsim`), semantics are this
//! module's.
//!
//! ## Deviations from `libibverbs`, documented
//!
//! * Local gather errors (bad lkey, out-of-bounds SGE) are *synchronous*
//!   `Err` returns from `post_send` instead of async completions — clearer
//!   for a safe-Rust API, same observable effect (the WR does not run).
//! * Receiver-not-ready: incoming `SEND`s (and `WRITE_WITH_IMM`
//!   notifications) queue at the target until a receive is posted,
//!   modelling the common `rnr_retry = 7` (infinite) configuration. The
//!   sender's completion is generated when the match happens, as it would
//!   be on real RC hardware after the retry succeeds.

use crate::cq::CompletionQueue;
use crate::device::Device;
use crate::error::{VerbsError, VerbsResult, WcStatus};
use crate::mr::MemoryRegion;
use crate::wr::{RecvWr, SendWr, WcOpcode, WorkCompletion, WrOpcode};
use freeflow_types::OverlayIp;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// QP connection states (subset of `ibv_qp_state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Fresh; nothing may be posted.
    Reset,
    /// Initialized; receives may be posted.
    Init,
    /// Ready to receive; the peer endpoint is known.
    Rtr,
    /// Ready to send (fully connected).
    Rts,
    /// Broken; all work is flushed.
    Error,
}

impl QpState {
    /// Short name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            QpState::Reset => "RESET",
            QpState::Init => "INIT",
            QpState::Rtr => "RTR",
            QpState::Rts => "RTS",
            QpState::Error => "ERROR",
        }
    }
}

/// The (overlay address, QPN) pair that identifies a QP fabric-wide —
/// what peers exchange out of band to connect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpEndpoint {
    /// Overlay IP of the owning device.
    pub addr: OverlayIp,
    /// Queue-pair number on that device.
    pub qpn: u32,
}

impl fmt::Display for QpEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.addr, self.qpn)
    }
}

/// An inbound two-sided operation waiting for a receive to be posted.
struct PendingInbound {
    src: QpEndpoint,
    src_wr_id: u64,
    src_signaled: bool,
    /// `Some` for SEND payload; `None` for WRITE_WITH_IMM (data already
    /// placed).
    payload: Option<Vec<u8>>,
    byte_len: u64,
    imm: Option<u32>,
}

struct QpInner {
    state: QpState,
    peer: Option<QpEndpoint>,
    rq: VecDeque<RecvWr>,
    inbound_pending: VecDeque<PendingInbound>,
    sq_outstanding: usize,
    /// Sends parked at the peer waiting for a receive (`wr_id`,
    /// `signaled`). Tracked so that a QP entering the error state can
    /// flush them — otherwise a dead transport leaves them in limbo and
    /// the application hangs waiting for completions.
    sq_deferred: Vec<(u64, bool)>,
}

/// A reliable-connected queue pair.
pub struct QueuePair {
    qpn: u32,
    pd_id: u32,
    device: Arc<Device>,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    sq_depth: usize,
    rq_depth: usize,
    inner: Mutex<QpInner>,
}

impl QueuePair {
    pub(crate) fn create(
        device: Arc<Device>,
        pd_id: u32,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        sq_depth: usize,
        rq_depth: usize,
    ) -> VerbsResult<Arc<Self>> {
        let qpn = device.alloc_qpn();
        let qp = Arc::new(Self {
            qpn,
            pd_id,
            device: Arc::clone(&device),
            send_cq,
            recv_cq,
            sq_depth: sq_depth.max(1),
            rq_depth: rq_depth.max(1),
            inner: Mutex::new(QpInner {
                state: QpState::Reset,
                peer: None,
                rq: VecDeque::new(),
                inbound_pending: VecDeque::new(),
                sq_outstanding: 0,
                sq_deferred: Vec::new(),
            }),
        });
        device.register_qp(&qp)?;
        Ok(qp)
    }

    /// Queue-pair number.
    pub fn qp_num(&self) -> u32 {
        self.qpn
    }

    /// Protection-domain id this QP belongs to.
    pub fn pd_id(&self) -> u32 {
        self.pd_id
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        self.inner.lock().state
    }

    /// This QP's fabric endpoint (exchange it out of band).
    pub fn endpoint(&self) -> QpEndpoint {
        QpEndpoint {
            addr: self.device.addr(),
            qpn: self.qpn,
        }
    }

    /// The connected peer, once in RTR or later.
    pub fn peer(&self) -> Option<QpEndpoint> {
        self.inner.lock().peer
    }

    /// The send completion queue.
    pub fn send_cq(&self) -> &Arc<CompletionQueue> {
        &self.send_cq
    }

    /// The receive completion queue.
    pub fn recv_cq(&self) -> &Arc<CompletionQueue> {
        &self.recv_cq
    }

    // --- state machine -------------------------------------------------

    fn transition(&self, from: &[QpState], to: QpState) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        if !from.contains(&inner.state) {
            return Err(VerbsError::InvalidQpState {
                actual: inner.state.name(),
                required: from.first().map(|s| s.name()).unwrap_or("?"),
            });
        }
        inner.state = to;
        Ok(())
    }

    /// `RESET → INIT`.
    pub fn modify_to_init(&self) -> VerbsResult<()> {
        self.transition(&[QpState::Reset], QpState::Init)
    }

    /// `INIT → RTR`, binding the peer endpoint.
    pub fn modify_to_rtr(&self, peer: QpEndpoint) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        if inner.state != QpState::Init {
            return Err(VerbsError::InvalidQpState {
                actual: inner.state.name(),
                required: "INIT",
            });
        }
        inner.peer = Some(peer);
        inner.state = QpState::Rtr;
        Ok(())
    }

    /// `RTR → RTS`.
    pub fn modify_to_rts(&self) -> VerbsResult<()> {
        self.transition(&[QpState::Rtr], QpState::Rts)
    }

    /// Convenience: `RESET → INIT → RTR(peer) → RTS`.
    pub fn connect(&self, peer: QpEndpoint) -> VerbsResult<()> {
        self.modify_to_init()?;
        self.modify_to_rtr(peer)?;
        self.modify_to_rts()
    }

    /// Force the QP into the error state, flushing posted receives and
    /// any sends still parked at the peer.
    ///
    /// Receives flush with [`WcStatus::WrFlushError`] as in real verbs.
    /// Parked sends flush with [`WcStatus::RetryExcError`] — from the
    /// sender's perspective the transport stopped responding, which is
    /// exactly what `IBV_WC_RETRY_EXC_ERR` reports, and it is the signal
    /// FreeFlow's router uses to re-path the connection.
    pub fn enter_error(&self) {
        self.fail_with(&self.send_cq, &[]);
    }

    /// Enter the error state, then publish `failed` on `cq` — the
    /// completions of the WRs that caused it, with any that preceded
    /// them — ahead of every flush. A poller that sees an error completion
    /// therefore always sees `state() == Error`, as on a hardware NIC.
    fn fail_with(&self, cq: &CompletionQueue, failed: &[WorkCompletion]) {
        let (flushed_recvs, flushed_sends) = {
            let mut inner = self.inner.lock();
            let already = inner.state == QpState::Error;
            inner.state = QpState::Error;
            cq.push_batch(failed);
            if already {
                return;
            }
            let sends: Vec<(u64, bool)> = inner.sq_deferred.drain(..).collect();
            inner.sq_outstanding = inner.sq_outstanding.saturating_sub(sends.len());
            let recvs: Vec<RecvWr> = inner.rq.drain(..).collect();
            (recvs, sends)
        };
        for (wr_id, _signaled) in flushed_sends {
            // Failed sends always complete, signaled or not.
            self.send_cq.push(WorkCompletion {
                wr_id,
                status: WcStatus::RetryExcError,
                opcode: WcOpcode::Send,
                byte_len: 0,
                imm: None,
                qp_num: self.qpn,
            });
        }
        for wr in flushed_recvs {
            self.recv_cq.push(WorkCompletion {
                wr_id: wr.wr_id,
                status: WcStatus::WrFlushError,
                opcode: WcOpcode::Recv,
                byte_len: 0,
                imm: None,
                qp_num: self.qpn,
            });
        }
    }

    // --- receive path ---------------------------------------------------

    /// Post a receive. Allowed in INIT, RTR and RTS.
    ///
    /// If inbound operations are parked waiting for a receive (the RNR
    /// case), the oldest is matched immediately.
    pub fn post_recv(&self, wr: RecvWr) -> VerbsResult<()> {
        let pending = {
            let mut inner = self.inner.lock();
            match inner.state {
                QpState::Init | QpState::Rtr | QpState::Rts => {}
                s => {
                    return Err(VerbsError::InvalidQpState {
                        actual: s.name(),
                        required: "INIT/RTR/RTS",
                    })
                }
            }
            match inner.inbound_pending.pop_front() {
                Some(p) => Some((wr, p)),
                None => {
                    if inner.rq.len() >= self.rq_depth {
                        return Err(VerbsError::QueueFull { which: "recv" });
                    }
                    inner.rq.push_back(wr);
                    None
                }
            }
        };
        if let Some((wr, p)) = pending {
            self.consume_recv(wr, p);
        }
        Ok(())
    }

    /// Number of receives currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.inner.lock().rq.len()
    }

    /// Match one inbound operation with one receive WR: scatter the
    /// payload (if any), complete the receiver, complete the sender.
    fn consume_recv(&self, wr: RecvWr, p: PendingInbound) {
        let opcode = if p.payload.is_some() {
            WcOpcode::Recv
        } else {
            WcOpcode::RecvRdmaWithImm
        };
        let mut status = WcStatus::Success;
        if let Some(payload) = &p.payload {
            if (wr.capacity()) < payload.len() as u64 {
                status = WcStatus::LocalLengthError;
            } else if let Err(e) = self.scatter(&wr, payload) {
                let _ = e;
                status = WcStatus::LocalProtectionError;
            }
        }
        let wc = WorkCompletion {
            wr_id: wr.wr_id,
            status,
            opcode,
            byte_len: p.byte_len,
            imm: p.imm,
            qp_num: self.qpn,
        };
        let sender_status = if status.is_ok() {
            self.recv_cq.push(wc);
            WcStatus::Success
        } else {
            self.fail_with(&self.recv_cq, &[wc]);
            WcStatus::RemoteOperationError
        };
        // Complete the sender (possibly on another device).
        if let Some(sender) = self.device.network().find_qp(p.src) {
            sender.finish_deferred_send(p.src_wr_id, p.src_signaled, sender_status);
        }
    }

    /// Scatter `payload` across the WR's SGE list through this device's
    /// MR table.
    fn scatter(&self, wr: &RecvWr, payload: &[u8]) -> VerbsResult<()> {
        let mut off = 0usize;
        for sge in &wr.sge {
            if off >= payload.len() {
                break;
            }
            let n = (payload.len() - off).min(sge.len as usize);
            let mr = self.device.mr_by_lkey(sge.lkey)?;
            if !mr.access().local_write {
                return Err(VerbsError::AccessDenied {
                    detail: "recv SGE MR lacks LOCAL_WRITE".into(),
                });
            }
            mr.dma_write(sge.addr, &payload[off..off + n])?;
            off += n;
        }
        Ok(())
    }

    /// Called on the *sender* when a deferred (RNR-parked) send finally
    /// matches at the receiver.
    fn finish_deferred_send(&self, wr_id: u64, signaled: bool, status: WcStatus) {
        {
            let mut inner = self.inner.lock();
            match inner.sq_deferred.iter().position(|&(id, _)| id == wr_id) {
                Some(i) => {
                    inner.sq_deferred.remove(i);
                }
                // Already flushed by enter_error(): the failed completion
                // was delivered there, don't complete a second time.
                None if inner.state == QpState::Error => return,
                None => {}
            }
            inner.sq_outstanding = inner.sq_outstanding.saturating_sub(1);
        }
        let wc = WorkCompletion {
            wr_id,
            status,
            opcode: WcOpcode::Send,
            byte_len: 0,
            imm: None,
            qp_num: self.qpn,
        };
        if !status.is_ok() {
            self.fail_with(&self.send_cq, &[wc]);
        } else if signaled {
            self.send_cq.push(wc);
        }
    }

    // --- send path -------------------------------------------------------

    /// Gather the WR's payload from local MRs (or inline data).
    fn gather(&self, wr: &SendWr) -> VerbsResult<Vec<u8>> {
        if let Some(inline) = &wr.inline_data {
            let max = self.device.attr().max_inline;
            if inline.len() > max {
                return Err(VerbsError::InlineTooLarge {
                    len: inline.len(),
                    max,
                });
            }
            return Ok(inline.clone());
        }
        let mut out = Vec::with_capacity(wr.total_len() as usize);
        for sge in &wr.sge {
            let mr = self.device.mr_by_lkey(sge.lkey)?;
            out.extend_from_slice(&mr.dma_read(sge.addr, sge.len as u64)?);
        }
        Ok(out)
    }

    /// [`QueuePair::gather`] into a reused scratch buffer, memoizing the
    /// last lkey→MR lookup — WR chains overwhelmingly gather from one MR,
    /// so the device table lock is taken once per chain, not per SGE.
    fn gather_into(
        &self,
        wr: &SendWr,
        lkey_cache: &mut Option<(u32, Arc<MemoryRegion>)>,
        out: &mut Vec<u8>,
    ) -> VerbsResult<()> {
        if let Some(inline) = &wr.inline_data {
            let max = self.device.attr().max_inline;
            if inline.len() > max {
                return Err(VerbsError::InlineTooLarge {
                    len: inline.len(),
                    max,
                });
            }
            out.extend_from_slice(inline);
            return Ok(());
        }
        for sge in &wr.sge {
            let mr = match lkey_cache {
                Some((k, mr)) if *k == sge.lkey => Arc::clone(mr),
                _ => {
                    let mr = self.device.mr_by_lkey(sge.lkey)?;
                    *lkey_cache = Some((sge.lkey, Arc::clone(&mr)));
                    mr
                }
            };
            mr.dma_read_into(sge.addr, sge.len as u64, out)?;
        }
        Ok(())
    }

    /// Post a send-side work request. Requires RTS.
    ///
    /// Completion rules follow verbs: signaled WRs always complete;
    /// unsignaled WRs complete only on failure.
    pub fn post_send(&self, wr: SendWr) -> VerbsResult<()> {
        let posted_at = std::time::Instant::now();
        let peer = {
            let mut inner = self.inner.lock();
            if inner.state != QpState::Rts {
                return Err(VerbsError::InvalidQpState {
                    actual: inner.state.name(),
                    required: "RTS",
                });
            }
            if inner.sq_outstanding >= self.sq_depth {
                return Err(VerbsError::QueueFull { which: "send" });
            }
            inner.sq_outstanding += 1;
            inner.peer.expect("RTS implies peer")
        };

        let result = self.execute_send(&wr, peer);
        match result {
            Ok(SendOutcome::Completed { opcode, byte_len }) => {
                {
                    let mut inner = self.inner.lock();
                    inner.sq_outstanding -= 1;
                }
                // Ops execute synchronously against the peer QP, so the
                // elapsed time *is* the WR's service latency.
                self.send_cq
                    .record_wr_latency(posted_at.elapsed().as_nanos() as u64);
                if wr.signaled {
                    self.send_cq.push(WorkCompletion {
                        wr_id: wr.wr_id,
                        status: WcStatus::Success,
                        opcode,
                        byte_len,
                        imm: None,
                        qp_num: self.qpn,
                    });
                }
                Ok(())
            }
            Ok(SendOutcome::Deferred) => {
                // Completes at the RNR match — or flushes if this QP
                // enters the error state first.
                let mut inner = self.inner.lock();
                inner.sq_deferred.push((wr.wr_id, wr.signaled));
                Ok(())
            }
            Err(ExecError::Local(e)) => {
                let mut inner = self.inner.lock();
                inner.sq_outstanding -= 1;
                drop(inner);
                Err(e)
            }
            Err(ExecError::Remote(status)) => {
                {
                    let mut inner = self.inner.lock();
                    inner.sq_outstanding -= 1;
                }
                let wc = WorkCompletion {
                    wr_id: wr.wr_id,
                    status,
                    opcode: WcOpcode::Send,
                    byte_len: 0,
                    imm: None,
                    qp_num: self.qpn,
                };
                self.fail_with(&self.send_cq, &[wc]);
                Ok(())
            }
        }
    }

    /// Post a chain of send work requests as one batch. Requires RTS.
    ///
    /// Semantics match posting each WR with [`QueuePair::post_send`] in
    /// order, with three batching guarantees layered on top:
    ///
    /// * **All-or-nothing admission.** The whole chain reserves send-queue
    ///   space up front; if it does not fit, nothing posts and
    ///   [`VerbsError::QueueFull`] is returned (mirroring a chained
    ///   `ibv_post_send` rejected at the first WR that exceeds the SQ).
    /// * **Ordering and signaling.** WRs execute strictly in chain order;
    ///   signaled WRs complete in that order, unsignaled WRs complete only
    ///   on failure — exactly the per-WR rules of the single-shot path.
    /// * **Coalesced completions.** Sender-side completions for the batch
    ///   are delivered with one CQ lock acquisition and one doorbell ring
    ///   ([`CompletionQueue::push_batch`]), which is where the batched hot
    ///   path earns its throughput.
    ///
    /// Failure semantics also mirror the single-shot path: a local gather
    /// error is returned synchronously (that WR and the rest of the chain
    /// are un-posted; earlier WRs stand, their completions intact), while
    /// a remote failure completes the failing WR with its error status,
    /// flushes the remainder of the chain with
    /// [`WcStatus::WrFlushError`], and moves the QP to the error state.
    pub fn post_send_batch(&self, wrs: Vec<SendWr>) -> VerbsResult<()> {
        if wrs.is_empty() {
            return Ok(());
        }
        let posted_at = std::time::Instant::now();
        let peer = {
            let mut inner = self.inner.lock();
            if inner.state != QpState::Rts {
                return Err(VerbsError::InvalidQpState {
                    actual: inner.state.name(),
                    required: "RTS",
                });
            }
            if inner.sq_outstanding + wrs.len() > self.sq_depth {
                return Err(VerbsError::QueueFull { which: "send" });
            }
            inner.sq_outstanding += wrs.len();
            inner.peer.expect("RTS implies peer")
        };

        let mut completions: Vec<WorkCompletion> = Vec::with_capacity(wrs.len());
        // WRs that resolved inside this call (completed or failed — not
        // deferred): their SQ reservation is released in one step below.
        let mut settled = 0usize;
        let mut errored = false;
        let mut result = Ok(());
        // Chain-scoped amortization: one fabric lookup, one gather
        // scratch, one lkey/rkey table hit for the whole batch.
        let remote = self.device.network().find_qp(peer);
        let mut scratch: Vec<u8> = Vec::new();
        let mut lkey_cache: Option<(u32, Arc<MemoryRegion>)> = None;
        let mut rkey_cache: Option<(u32, Arc<MemoryRegion>)> = None;
        let mut iter = wrs.into_iter();
        while let Some(wr) = iter.next() {
            let outcome = match &remote {
                Some(r) => self.execute_send_chained(
                    &wr,
                    r,
                    &mut scratch,
                    &mut lkey_cache,
                    &mut rkey_cache,
                ),
                None => Err(ExecError::Remote(WcStatus::RemoteOperationError)),
            };
            match outcome {
                Ok(SendOutcome::Completed { opcode, byte_len }) => {
                    settled += 1;
                    self.send_cq
                        .record_wr_latency(posted_at.elapsed().as_nanos() as u64);
                    if wr.signaled {
                        completions.push(WorkCompletion {
                            wr_id: wr.wr_id,
                            status: WcStatus::Success,
                            opcode,
                            byte_len,
                            imm: None,
                            qp_num: self.qpn,
                        });
                    }
                }
                Ok(SendOutcome::Deferred) => {
                    // Completes at the RNR match; stays outstanding.
                    self.inner.lock().sq_deferred.push((wr.wr_id, wr.signaled));
                }
                Err(ExecError::Local(e)) => {
                    // Synchronous local error (documented deviation): this
                    // WR and the unexecuted remainder are un-posted.
                    settled += 1 + iter.len();
                    result = Err(e);
                    break;
                }
                Err(ExecError::Remote(status)) => {
                    settled += 1;
                    completions.push(WorkCompletion {
                        wr_id: wr.wr_id,
                        status,
                        opcode: WcOpcode::Send,
                        byte_len: 0,
                        imm: None,
                        qp_num: self.qpn,
                    });
                    // The rest of the chain flushes: failed WRs always
                    // complete, signaled or not.
                    for rem in iter.by_ref() {
                        settled += 1;
                        completions.push(WorkCompletion {
                            wr_id: rem.wr_id,
                            status: WcStatus::WrFlushError,
                            opcode: WcOpcode::Send,
                            byte_len: 0,
                            imm: None,
                            qp_num: self.qpn,
                        });
                    }
                    errored = true;
                    break;
                }
            }
        }
        {
            let mut inner = self.inner.lock();
            inner.sq_outstanding = inner.sq_outstanding.saturating_sub(settled);
        }
        // Batch completions land before the error-state flush of any
        // deferred WRs, preserving chain order on the CQ.
        if errored {
            self.fail_with(&self.send_cq, &completions);
        } else {
            self.send_cq.push_batch(&completions);
        }
        result
    }

    fn execute_send(&self, wr: &SendWr, peer: QpEndpoint) -> Result<SendOutcome, ExecError> {
        let remote = self
            .device
            .network()
            .find_qp(peer)
            .ok_or(ExecError::Remote(WcStatus::RemoteOperationError))?;
        self.execute_send_resolved(wr, &remote)
    }

    /// Execute one WR of a chain against an already-resolved peer, reusing
    /// the chain's gather scratch and MR-lookup caches. This is what makes
    /// a 32-deep batch cheaper than 32 single posts: the fabric lookup,
    /// the lkey/rkey table locks, and the gather allocation are paid once
    /// per chain instead of once per WR. The remote RTR/RTS gate is
    /// checked when the write target is first resolved — the chain is
    /// admitted as a unit, mirroring hardware that validates at doorbell
    /// time.
    fn execute_send_chained(
        &self,
        wr: &SendWr,
        remote: &Arc<QueuePair>,
        scratch: &mut Vec<u8>,
        lkey_cache: &mut Option<(u32, Arc<MemoryRegion>)>,
        rkey_cache: &mut Option<(u32, Arc<MemoryRegion>)>,
    ) -> Result<SendOutcome, ExecError> {
        match &wr.opcode {
            WrOpcode::Write { remote_addr, rkey } => {
                scratch.clear();
                self.gather_into(wr, lkey_cache, scratch)
                    .map_err(ExecError::Local)?;
                let mr = match rkey_cache {
                    Some((k, mr)) if *k == *rkey => Arc::clone(mr),
                    _ => {
                        let mr = remote.write_target(*rkey).map_err(ExecError::Remote)?;
                        *rkey_cache = Some((*rkey, Arc::clone(&mr)));
                        mr
                    }
                };
                mr.dma_write(*remote_addr, scratch)
                    .map_err(|_| ExecError::Remote(WcStatus::RemoteAccessError))?;
                Ok(SendOutcome::Completed {
                    opcode: WcOpcode::RdmaWrite,
                    byte_len: scratch.len() as u64,
                })
            }
            WrOpcode::Send => {
                scratch.clear();
                self.gather_into(wr, lkey_cache, scratch)
                    .map_err(ExecError::Local)?;
                // `deliver_send` may park the payload, so it takes
                // ownership; the scratch regrows on the next SEND.
                let payload = std::mem::take(scratch);
                let byte_len = payload.len() as u64;
                match remote.deliver_send(self.endpoint(), wr.wr_id, wr.signaled, payload, None) {
                    Delivery::Matched => Ok(SendOutcome::Completed {
                        opcode: WcOpcode::Send,
                        byte_len,
                    }),
                    Delivery::Parked => Ok(SendOutcome::Deferred),
                    Delivery::Refused(s) => Err(ExecError::Remote(s)),
                }
            }
            // WRITE_WITH_IMM and READ sit off the hot loop; the resolved
            // single-shot executor handles them.
            _ => self.execute_send_resolved(wr, remote),
        }
    }

    /// Resolve and vet the target MR for inbound one-sided WRITEs once per
    /// chain: state gate, rkey lookup, access check. Chained writes to the
    /// same rkey then go straight to [`MemoryRegion::dma_write`].
    fn write_target(&self, rkey: u32) -> Result<Arc<MemoryRegion>, WcStatus> {
        {
            let inner = self.inner.lock();
            match inner.state {
                QpState::Rtr | QpState::Rts => {}
                _ => return Err(WcStatus::RemoteOperationError),
            }
        }
        let mr = self
            .device
            .mr_by_rkey(rkey)
            .map_err(|_| WcStatus::RemoteAccessError)?;
        if !mr.access().remote_write {
            return Err(WcStatus::RemoteAccessError);
        }
        Ok(mr)
    }

    fn execute_send_resolved(
        &self,
        wr: &SendWr,
        remote: &Arc<QueuePair>,
    ) -> Result<SendOutcome, ExecError> {
        // Local gather errors are synchronous (documented deviation).
        let payload = self.gather(wr).map_err(ExecError::Local)?;

        match &wr.opcode {
            WrOpcode::Send => {
                let byte_len = payload.len() as u64;
                match remote.deliver_send(self.endpoint(), wr.wr_id, wr.signaled, payload, None) {
                    Delivery::Matched => Ok(SendOutcome::Completed {
                        opcode: WcOpcode::Send,
                        byte_len,
                    }),
                    Delivery::Parked => Ok(SendOutcome::Deferred),
                    Delivery::Refused(s) => Err(ExecError::Remote(s)),
                }
            }
            WrOpcode::Write { remote_addr, rkey } => {
                let byte_len = payload.len() as u64;
                remote
                    .deliver_write(*remote_addr, *rkey, &payload)
                    .map_err(ExecError::Remote)?;
                Ok(SendOutcome::Completed {
                    opcode: WcOpcode::RdmaWrite,
                    byte_len,
                })
            }
            WrOpcode::WriteWithImm {
                remote_addr,
                rkey,
                imm,
            } => {
                let byte_len = payload.len() as u64;
                remote
                    .deliver_write(*remote_addr, *rkey, &payload)
                    .map_err(ExecError::Remote)?;
                match remote.deliver_send(
                    self.endpoint(),
                    wr.wr_id,
                    wr.signaled,
                    // Data already placed one-sided; the notification
                    // consumes a receive without scattering.
                    Vec::new(),
                    Some((*imm, byte_len)),
                ) {
                    Delivery::Matched => Ok(SendOutcome::Completed {
                        opcode: WcOpcode::RdmaWrite,
                        byte_len,
                    }),
                    Delivery::Parked => Ok(SendOutcome::Deferred),
                    Delivery::Refused(s) => Err(ExecError::Remote(s)),
                }
            }
            WrOpcode::Read { remote_addr, rkey } => {
                let len = wr.total_len();
                let data = remote
                    .serve_read(*remote_addr, *rkey, len)
                    .map_err(ExecError::Remote)?;
                // Scatter into the local SGE list.
                let recv_like = RecvWr {
                    wr_id: wr.wr_id,
                    sge: wr.sge.clone(),
                };
                self.scatter(&recv_like, &data).map_err(ExecError::Local)?;
                Ok(SendOutcome::Completed {
                    opcode: WcOpcode::RdmaRead,
                    byte_len: data.len() as u64,
                })
            }
        }
    }

    // --- fabric-facing entry points (called by the peer QP) --------------

    /// Deliver an inbound SEND (or WRITE_WITH_IMM notification).
    fn deliver_send(
        &self,
        src: QpEndpoint,
        src_wr_id: u64,
        src_signaled: bool,
        payload: Vec<u8>,
        imm_and_len: Option<(u32, u64)>,
    ) -> Delivery {
        let (payload, byte_len, imm) = match imm_and_len {
            Some((imm, len)) => (None, len, Some(imm)),
            None => {
                let len = payload.len() as u64;
                (Some(payload), len, None)
            }
        };
        let matched = {
            let mut inner = self.inner.lock();
            match inner.state {
                QpState::Rtr | QpState::Rts => {}
                _ => return Delivery::Refused(WcStatus::RemoteOperationError),
            }
            match inner.rq.pop_front() {
                Some(wr) => Some((wr, payload)),
                None => {
                    inner.inbound_pending.push_back(PendingInbound {
                        src,
                        src_wr_id,
                        src_signaled,
                        payload,
                        byte_len,
                        imm,
                    });
                    None
                }
            }
        };
        match matched {
            Some((wr, payload)) => {
                // Scatter + complete receiver; sender completion handled
                // by the caller (Matched ⇒ complete there), so do NOT
                // complete the sender here — pass a pending without a
                // deferred sender by reusing consume paths carefully.
                let opcode = if payload.is_some() {
                    WcOpcode::Recv
                } else {
                    WcOpcode::RecvRdmaWithImm
                };
                let mut status = WcStatus::Success;
                if let Some(data) = &payload {
                    if wr.capacity() < data.len() as u64 {
                        status = WcStatus::LocalLengthError;
                    } else if self.scatter(&wr, data).is_err() {
                        status = WcStatus::LocalProtectionError;
                    }
                }
                let wc = WorkCompletion {
                    wr_id: wr.wr_id,
                    status,
                    opcode,
                    byte_len,
                    imm,
                    qp_num: self.qpn,
                };
                if status.is_ok() {
                    self.recv_cq.push(wc);
                    Delivery::Matched
                } else {
                    self.fail_with(&self.recv_cq, &[wc]);
                    Delivery::Refused(WcStatus::RemoteOperationError)
                }
            }
            None => Delivery::Parked,
        }
    }

    /// Serve an inbound one-sided WRITE.
    fn deliver_write(&self, remote_addr: u64, rkey: u32, payload: &[u8]) -> Result<(), WcStatus> {
        {
            let inner = self.inner.lock();
            match inner.state {
                QpState::Rtr | QpState::Rts => {}
                _ => return Err(WcStatus::RemoteOperationError),
            }
        }
        let mr = self
            .device
            .mr_by_rkey(rkey)
            .map_err(|_| WcStatus::RemoteAccessError)?;
        if !mr.access().remote_write {
            return Err(WcStatus::RemoteAccessError);
        }
        mr.dma_write(remote_addr, payload)
            .map_err(|_| WcStatus::RemoteAccessError)
    }

    /// Serve an inbound one-sided READ.
    fn serve_read(&self, remote_addr: u64, rkey: u32, len: u64) -> Result<Vec<u8>, WcStatus> {
        {
            let inner = self.inner.lock();
            match inner.state {
                QpState::Rtr | QpState::Rts => {}
                _ => return Err(WcStatus::RemoteOperationError),
            }
        }
        let mr = self
            .device
            .mr_by_rkey(rkey)
            .map_err(|_| WcStatus::RemoteAccessError)?;
        if !mr.access().remote_read {
            return Err(WcStatus::RemoteAccessError);
        }
        mr.dma_read(remote_addr, len)
            .map_err(|_| WcStatus::RemoteAccessError)
    }
}

enum SendOutcome {
    Completed { opcode: WcOpcode, byte_len: u64 },
    Deferred,
}

enum ExecError {
    Local(VerbsError),
    Remote(WcStatus),
}

enum Delivery {
    Matched,
    Parked,
    Refused(WcStatus),
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        self.device.unregister_qp(self.qpn);
    }
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueuePair")
            .field("qpn", &self.qpn)
            .field("state", &self.state().name())
            .field("peer", &self.peer().map(|p| p.to_string()))
            .finish()
    }
}
