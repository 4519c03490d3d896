//! The verbs fabric: routes operations between queue pairs by endpoint.
//!
//! [`VerbsNetwork`] is the software stand-in for "the RDMA network": a
//! registry mapping overlay addresses to devices, through which a QP finds
//! its peer and executes operations. One network instance usually spans
//! whatever set of containers can genuinely reach each other over one
//! mechanism — FreeFlow's agents create one per host for the shm-backed
//! intra-host fabric, and the core library bridges across networks for
//! inter-host traffic.

use crate::device::{Device, DeviceAttr};
use crate::qp::{QpEndpoint, QueuePair};
use freeflow_types::OverlayIp;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// A registry of virtual RDMA devices, addressed by overlay IP.
#[derive(Default)]
pub struct VerbsNetwork {
    devices: Mutex<HashMap<OverlayIp, Weak<Device>>>,
}

impl VerbsNetwork {
    /// Create an empty fabric.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Create a device (virtual NIC) at `addr` with default limits.
    ///
    /// # Panics
    /// Panics if a live device already owns `addr` — duplicate overlay IPs
    /// are an orchestrator bug.
    pub fn create_device(self: &Arc<Self>, addr: OverlayIp) -> Arc<Device> {
        self.create_device_with_attr(addr, DeviceAttr::default())
    }

    /// Create a device with explicit limits.
    pub fn create_device_with_attr(
        self: &Arc<Self>,
        addr: OverlayIp,
        attr: DeviceAttr,
    ) -> Arc<Device> {
        let mut devices = self.devices.lock();
        devices.retain(|_, w| w.strong_count() > 0);
        assert!(
            !devices.contains_key(&addr),
            "device already exists at {addr}"
        );
        let dev = Device::new(addr, attr, Arc::clone(self));
        devices.insert(addr, Arc::downgrade(&dev));
        dev
    }

    /// Look up a live device by address.
    pub fn find_device(&self, addr: OverlayIp) -> Option<Arc<Device>> {
        self.devices.lock().get(&addr).and_then(Weak::upgrade)
    }

    /// Remove a device's registration (container teardown / migration).
    /// Existing `Arc`s keep working locally; peers can no longer reach it.
    pub fn remove_device(&self, addr: OverlayIp) {
        self.devices.lock().remove(&addr);
    }

    /// Adopt a live device from another fabric — container migration
    /// moves the virtual NIC (with all its MRs, QPs and keys) between
    /// hosts wholesale, so existing handles keep working. The device's
    /// fabric back-reference is re-pointed at `self`; the previous fabric
    /// must already have released the address via
    /// [`VerbsNetwork::remove_device`].
    ///
    /// # Panics
    /// Panics if a live device already owns the address here.
    pub fn adopt_device(self: &Arc<Self>, dev: &Arc<Device>) {
        let mut devices = self.devices.lock();
        devices.retain(|_, w| w.strong_count() > 0);
        assert!(
            !devices.contains_key(&dev.addr()),
            "device already exists at {}",
            dev.addr()
        );
        dev.set_network(Arc::clone(self));
        devices.insert(dev.addr(), Arc::downgrade(dev));
    }

    /// Find a live QP by fabric endpoint.
    pub(crate) fn find_qp(&self, ep: QpEndpoint) -> Option<Arc<QueuePair>> {
        self.find_device(ep.addr)?.find_qp(ep.qpn)
    }

    /// Number of live devices.
    pub fn device_count(&self) -> usize {
        let mut devices = self.devices.lock();
        devices.retain(|_, w| w.strong_count() > 0);
        devices.len()
    }
}

impl std::fmt::Debug for VerbsNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerbsNetwork")
            .field("devices", &self.device_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{VerbsError, WcStatus};
    use crate::wr::{AccessFlags, RecvWr, SendWr, WcOpcode};
    use std::sync::Arc;

    fn ip(last: u8) -> OverlayIp {
        OverlayIp::from_octets(10, 0, 0, last)
    }

    /// A connected pair of QPs with MRs and CQs, ready for traffic.
    struct Pair {
        mr_a: Arc<crate::mr::MemoryRegion>,
        mr_b: Arc<crate::mr::MemoryRegion>,
        cq_a: Arc<crate::cq::CompletionQueue>,
        cq_b: Arc<crate::cq::CompletionQueue>,
        qp_a: Arc<QueuePair>,
        qp_b: Arc<QueuePair>,
    }

    fn connected_pair(net: &Arc<VerbsNetwork>) -> Pair {
        static NEXT: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(1);
        let n = NEXT.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        let dev_a = net.create_device(ip(n));
        let dev_b = net.create_device(ip(n + 1));
        let pd_a = dev_a.alloc_pd();
        let pd_b = dev_b.alloc_pd();
        let mr_a = pd_a.register(4096, AccessFlags::all()).unwrap();
        let mr_b = pd_b.register(4096, AccessFlags::all()).unwrap();
        let cq_a = dev_a.create_cq(64);
        let cq_b = dev_b.create_cq(64);
        let qp_a = pd_a.create_qp(&cq_a, &cq_a, 16, 16).unwrap();
        let qp_b = pd_b.create_qp(&cq_b, &cq_b, 16, 16).unwrap();
        qp_a.connect(qp_b.endpoint()).unwrap();
        qp_b.connect(qp_a.endpoint()).unwrap();
        Pair {
            mr_a,
            mr_b,
            cq_a,
            cq_b,
            qp_a,
            qp_b,
        }
    }

    #[test]
    fn send_recv_roundtrip() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.qp_b
            .post_recv(RecvWr::new(10, p.mr_b.sge(0, 4096)))
            .unwrap();
        p.mr_a.write(0, b"two-sided").unwrap();
        p.qp_a
            .post_send(SendWr::send(20, p.mr_a.sge(0, 9)))
            .unwrap();

        let rwc = p.cq_b.poll_one().expect("recv completion");
        assert_eq!(rwc.wr_id, 10);
        assert_eq!(rwc.opcode, WcOpcode::Recv);
        assert_eq!(rwc.byte_len, 9);
        assert!(rwc.status.is_ok());
        let swc = p.cq_a.poll_one().expect("send completion");
        assert_eq!(swc.wr_id, 20);
        assert!(swc.status.is_ok());

        let mut out = [0u8; 9];
        p.mr_b.read(0, &mut out).unwrap();
        assert_eq!(&out, b"two-sided");
    }

    #[test]
    fn rnr_send_parks_until_recv_posted() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.mr_a.write(0, b"early").unwrap();
        p.qp_a.post_send(SendWr::send(1, p.mr_a.sge(0, 5))).unwrap();
        // No completion anywhere yet: parked at the receiver.
        assert!(p.cq_a.poll_one().is_none());
        assert!(p.cq_b.poll_one().is_none());
        // Posting the receive releases both completions.
        p.qp_b.post_recv(RecvWr::new(2, p.mr_b.sge(0, 64))).unwrap();
        assert!(p.cq_b.poll_one().unwrap().status.is_ok());
        assert!(p.cq_a.poll_one().unwrap().status.is_ok());
        let mut out = [0u8; 5];
        p.mr_b.read(0, &mut out).unwrap();
        assert_eq!(&out, b"early");
    }

    #[test]
    fn error_entry_flushes_parked_sends_with_retry_exc() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.mr_a.write(0, b"stuck").unwrap();
        // Two sends park at the receiver (no receives posted).
        p.qp_a.post_send(SendWr::send(1, p.mr_a.sge(0, 5))).unwrap();
        p.qp_a.post_send(SendWr::send(2, p.mr_a.sge(0, 5))).unwrap();
        assert!(p.cq_a.poll_one().is_none());
        // The transport dies: the sender QP is forced into error.
        p.qp_a.enter_error();
        // Both parked sends flush with RETRY_EXC_ERR — nothing hangs.
        let wc1 = p.cq_a.poll_one().expect("first flushed send");
        let wc2 = p.cq_a.poll_one().expect("second flushed send");
        assert_eq!(wc1.status, WcStatus::RetryExcError);
        assert_eq!(wc2.status, WcStatus::RetryExcError);
        assert_eq!(
            {
                let mut ids = [wc1.wr_id, wc2.wr_id];
                ids.sort_unstable();
                ids
            },
            [1, 2]
        );
        // If the receiver matches the parked data afterwards, the sender
        // must NOT see a second completion for the same WRs.
        p.qp_b.post_recv(RecvWr::new(9, p.mr_b.sge(0, 64))).unwrap();
        assert!(p.cq_b.poll_one().is_some(), "receiver still consumes");
        assert!(
            p.cq_a.poll_one().is_none(),
            "no duplicate sender completion"
        );
    }

    #[test]
    fn inline_send() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.qp_b.post_recv(RecvWr::new(1, p.mr_b.sge(0, 64))).unwrap();
        p.qp_a
            .post_send(SendWr::send_inline(2, b"inline!".to_vec()))
            .unwrap();
        let wc = p.cq_b.poll_one().unwrap();
        assert_eq!(wc.byte_len, 7);
        let mut out = [0u8; 7];
        p.mr_b.read(0, &mut out).unwrap();
        assert_eq!(&out, b"inline!");
    }

    #[test]
    fn inline_too_large_rejected() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        let big = vec![0u8; 4096];
        let err = p.qp_a.post_send(SendWr::send_inline(1, big)).unwrap_err();
        assert!(matches!(err, VerbsError::InlineTooLarge { .. }));
    }

    #[test]
    fn rdma_write_is_one_sided() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.mr_a.write(0, b"write me").unwrap();
        p.qp_a
            .post_send(SendWr::write(
                1,
                p.mr_a.sge(0, 8),
                p.mr_b.addr() + 100,
                p.mr_b.rkey(),
            ))
            .unwrap();
        // Sender completes; receiver CPU sees nothing.
        let wc = p.cq_a.poll_one().unwrap();
        assert_eq!(wc.opcode, WcOpcode::RdmaWrite);
        assert!(wc.status.is_ok());
        assert!(p.cq_b.poll_one().is_none(), "WRITE is invisible to peer CQ");
        let mut out = [0u8; 8];
        p.mr_b.read(100, &mut out).unwrap();
        assert_eq!(&out, b"write me");
    }

    #[test]
    fn rdma_write_with_imm_notifies_receiver() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.qp_b.post_recv(RecvWr::empty(77)).unwrap();
        p.mr_a.write(0, b"imm data").unwrap();
        p.qp_a
            .post_send(SendWr::write_with_imm(
                1,
                p.mr_a.sge(0, 8),
                p.mr_b.addr(),
                p.mr_b.rkey(),
                0xBEEF,
            ))
            .unwrap();
        let wc = p.cq_b.poll_one().expect("imm notification");
        assert_eq!(wc.wr_id, 77);
        assert_eq!(wc.opcode, WcOpcode::RecvRdmaWithImm);
        assert_eq!(wc.imm, Some(0xBEEF));
        assert_eq!(wc.byte_len, 8);
        let mut out = [0u8; 8];
        p.mr_b.read(0, &mut out).unwrap();
        assert_eq!(&out, b"imm data");
    }

    #[test]
    fn rdma_read_pulls_remote_data() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.mr_b.write(200, b"pull me").unwrap();
        p.qp_a
            .post_send(SendWr::read(
                1,
                p.mr_a.sge(0, 7),
                p.mr_b.addr() + 200,
                p.mr_b.rkey(),
            ))
            .unwrap();
        let wc = p.cq_a.poll_one().unwrap();
        assert_eq!(wc.opcode, WcOpcode::RdmaRead);
        assert!(wc.status.is_ok());
        let mut out = [0u8; 7];
        p.mr_a.read(0, &mut out).unwrap();
        assert_eq!(&out, b"pull me");
    }

    #[test]
    fn bad_rkey_fails_remotely_and_errors_qp() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.mr_a.write(0, b"x").unwrap();
        p.qp_a
            .post_send(SendWr::write(1, p.mr_a.sge(0, 1), p.mr_b.addr(), 0xDEAD))
            .unwrap();
        let wc = p.cq_a.poll_one().unwrap();
        assert_eq!(wc.status, WcStatus::RemoteAccessError);
        assert_eq!(p.qp_a.state(), crate::qp::QpState::Error);
    }

    #[test]
    fn write_without_remote_write_access_denied() {
        let net = VerbsNetwork::new();
        let dev_a = net.create_device(ip(200));
        let dev_b = net.create_device(ip(201));
        let pd_a = dev_a.alloc_pd();
        let pd_b = dev_b.alloc_pd();
        let mr_a = pd_a.register(64, AccessFlags::all()).unwrap();
        // Receiver MR without REMOTE_WRITE.
        let mr_b = pd_b.register(64, AccessFlags::local_rw()).unwrap();
        let cq_a = dev_a.create_cq(8);
        let cq_b = dev_b.create_cq(8);
        let qp_a = pd_a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
        let qp_b = pd_b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
        qp_a.connect(qp_b.endpoint()).unwrap();
        qp_b.connect(qp_a.endpoint()).unwrap();
        mr_a.write(0, b"z").unwrap();
        qp_a.post_send(SendWr::write(1, mr_a.sge(0, 1), mr_b.addr(), mr_b.rkey()))
            .unwrap();
        assert_eq!(cq_a.poll_one().unwrap().status, WcStatus::RemoteAccessError);
    }

    #[test]
    fn post_send_requires_rts() {
        let net = VerbsNetwork::new();
        let dev = net.create_device(ip(210));
        let pd = dev.alloc_pd();
        let cq = dev.create_cq(8);
        let qp = pd.create_qp(&cq, &cq, 8, 8).unwrap();
        let err = qp
            .post_send(SendWr::send_inline(1, b"x".to_vec()))
            .unwrap_err();
        assert!(matches!(err, VerbsError::InvalidQpState { .. }));
    }

    #[test]
    fn post_recv_requires_init() {
        let net = VerbsNetwork::new();
        let dev = net.create_device(ip(211));
        let pd = dev.alloc_pd();
        let cq = dev.create_cq(8);
        let qp = pd.create_qp(&cq, &cq, 8, 8).unwrap();
        assert!(
            qp.post_recv(RecvWr::empty(1)).is_err(),
            "RESET refuses recvs"
        );
        qp.modify_to_init().unwrap();
        assert!(qp.post_recv(RecvWr::empty(1)).is_ok());
    }

    #[test]
    fn state_machine_rejects_skips() {
        let net = VerbsNetwork::new();
        let dev = net.create_device(ip(212));
        let pd = dev.alloc_pd();
        let cq = dev.create_cq(8);
        let qp = pd.create_qp(&cq, &cq, 8, 8).unwrap();
        // RESET → RTS directly is illegal.
        assert!(qp.modify_to_rts().is_err());
        // RESET → RTR directly is illegal.
        assert!(qp
            .modify_to_rtr(QpEndpoint {
                addr: ip(1),
                qpn: 1
            })
            .is_err());
    }

    #[test]
    fn recv_queue_depth_enforced() {
        let net = VerbsNetwork::new();
        let dev = net.create_device(ip(213));
        let pd = dev.alloc_pd();
        let cq = dev.create_cq(8);
        let qp = pd.create_qp(&cq, &cq, 8, 2).unwrap();
        qp.modify_to_init().unwrap();
        qp.post_recv(RecvWr::empty(1)).unwrap();
        qp.post_recv(RecvWr::empty(2)).unwrap();
        assert!(matches!(
            qp.post_recv(RecvWr::empty(3)),
            Err(VerbsError::QueueFull { which: "recv" })
        ));
    }

    #[test]
    fn send_to_vanished_peer_completes_with_error() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        let peer_ep = p.qp_b.endpoint();
        drop(p.qp_b);
        net.remove_device(peer_ep.addr);
        p.mr_a.write(0, b"?").unwrap();
        p.qp_a.post_send(SendWr::send(1, p.mr_a.sge(0, 1))).unwrap();
        let wc = p.cq_a.poll_one().unwrap();
        assert_eq!(wc.status, WcStatus::RemoteOperationError);
    }

    #[test]
    fn error_state_flushes_posted_recvs() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.qp_b.post_recv(RecvWr::new(5, p.mr_b.sge(0, 64))).unwrap();
        p.qp_b
            .post_recv(RecvWr::new(6, p.mr_b.sge(64, 64)))
            .unwrap();
        p.qp_b.enter_error();
        let w1 = p.cq_b.poll_one().unwrap();
        let w2 = p.cq_b.poll_one().unwrap();
        assert_eq!(w1.status, WcStatus::WrFlushError);
        assert_eq!(w2.status, WcStatus::WrFlushError);
        assert_eq!((w1.wr_id, w2.wr_id), (5, 6));
    }

    #[test]
    fn unsignaled_send_produces_no_completion() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.qp_b.post_recv(RecvWr::new(1, p.mr_b.sge(0, 64))).unwrap();
        p.mr_a.write(0, b"quiet").unwrap();
        p.qp_a
            .post_send(SendWr::send(2, p.mr_a.sge(0, 5)).unsignaled())
            .unwrap();
        assert!(p.cq_b.poll_one().is_some(), "receiver still completes");
        assert!(p.cq_a.poll_one().is_none(), "unsignaled sender does not");
    }

    #[test]
    fn short_recv_buffer_is_length_error() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        p.qp_b.post_recv(RecvWr::new(1, p.mr_b.sge(0, 4))).unwrap();
        p.mr_a.write(0, b"too long for four").unwrap();
        p.qp_a
            .post_send(SendWr::send(2, p.mr_a.sge(0, 17)))
            .unwrap();
        let rwc = p.cq_b.poll_one().unwrap();
        assert_eq!(rwc.status, WcStatus::LocalLengthError);
        assert_eq!(p.qp_b.state(), crate::qp::QpState::Error);
    }

    /// A poller on another thread that sees an error completion always
    /// sees its QP in `Error`: the receiver of an undersized SEND (matched
    /// on the sender's thread), and the sender of an RNR-parked SEND that
    /// an undersized receive later refuses (failed on the receiver's).
    #[test]
    fn error_completions_follow_the_error_state() {
        let net = VerbsNetwork::new();
        let (dev_a, dev_b) = (net.create_device(ip(240)), net.create_device(ip(241)));
        let (pd_a, pd_b) = (dev_a.alloc_pd(), dev_b.alloc_pd());
        let mr_a = pd_a.register(4096, AccessFlags::all()).unwrap();
        let mr_b = pd_b.register(4096, AccessFlags::all()).unwrap();
        let poll_state = |cq: &Arc<crate::cq::CompletionQueue>, qp: &Arc<QueuePair>| {
            let (cq, qp) = (Arc::clone(cq), Arc::clone(qp));
            std::thread::spawn(move || {
                let wc = cq.wait_one(std::time::Duration::from_secs(10)).unwrap();
                (wc.status, qp.state())
            })
        };
        for round in 0..400 {
            let (cq_a, cq_b) = (dev_a.create_cq(16), dev_b.create_cq(16));
            let qp_a = pd_a.create_qp(&cq_a, &cq_a, 4, 4).unwrap();
            let qp_b = pd_b.create_qp(&cq_b, &cq_b, 4, 4).unwrap();
            qp_a.connect(qp_b.endpoint()).unwrap();
            qp_b.connect(qp_a.endpoint()).unwrap();
            let seen = if round % 2 == 0 {
                qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 4))).unwrap();
                let poller = poll_state(&cq_b, &qp_b);
                qp_a.post_send(SendWr::send(2, mr_a.sge(0, 64))).unwrap();
                poller.join().unwrap()
            } else {
                qp_a.post_send(SendWr::send(2, mr_a.sge(0, 64))).unwrap();
                let poller = poll_state(&cq_a, &qp_a);
                qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 4))).unwrap();
                poller.join().unwrap()
            };
            let want = [WcStatus::LocalLengthError, WcStatus::RemoteOperationError];
            assert_eq!(
                seen,
                (want[round % 2], crate::qp::QpState::Error),
                "round {round}"
            );
        }
    }

    #[test]
    fn duplicate_address_panics() {
        let net = VerbsNetwork::new();
        let _a = net.create_device(ip(230));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.create_device(ip(230))));
        assert!(result.is_err());
    }

    #[test]
    fn device_registry_cleans_up_dropped_devices() {
        let net = VerbsNetwork::new();
        {
            let _dev = net.create_device(ip(240));
            assert_eq!(net.device_count(), 1);
        }
        assert_eq!(net.device_count(), 0);
        // Address is reusable after drop.
        let _dev2 = net.create_device(ip(240));
    }

    #[test]
    fn multi_sge_gather_and_scatter() {
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        // Receiver scatters across two SGEs.
        p.qp_b
            .post_recv(RecvWr {
                wr_id: 1,
                sge: vec![p.mr_b.sge(0, 4), p.mr_b.sge(100, 16)],
            })
            .unwrap();
        // Sender gathers from two SGEs.
        p.mr_a.write(0, b"abcd").unwrap();
        p.mr_a.write(50, b"efgh").unwrap();
        p.qp_a
            .post_send(SendWr {
                wr_id: 2,
                opcode: crate::wr::WrOpcode::Send,
                sge: vec![p.mr_a.sge(0, 4), p.mr_a.sge(50, 4)],
                inline_data: None,
                signaled: true,
            })
            .unwrap();
        let wc = p.cq_b.poll_one().unwrap();
        assert_eq!(wc.byte_len, 8);
        let mut first = [0u8; 4];
        let mut rest = [0u8; 4];
        p.mr_b.read(0, &mut first).unwrap();
        p.mr_b.read(100, &mut rest).unwrap();
        assert_eq!(&first, b"abcd");
        assert_eq!(&rest, b"efgh");
    }

    #[test]
    fn cross_thread_send_recv() {
        // Two "containers" on different threads exchange 100 messages.
        let net = VerbsNetwork::new();
        let p = connected_pair(&net);
        let Pair {
            mr_a,
            mr_b,
            cq_a,
            cq_b,
            qp_a,
            qp_b,
        } = p;
        let receiver = std::thread::spawn(move || {
            let mut total = 0u64;
            for i in 0..100u64 {
                qp_b.post_recv(RecvWr::new(i, mr_b.sge(0, 4096))).unwrap();
                let wc = cq_b.wait_one(std::time::Duration::from_secs(10)).unwrap();
                assert!(wc.status.is_ok());
                total += wc.byte_len;
            }
            total
        });
        for i in 0..100u64 {
            mr_a.write(0, &i.to_le_bytes()).unwrap();
            loop {
                match qp_a.post_send(SendWr::send(i, mr_a.sge(0, 8))) {
                    Ok(()) => break,
                    Err(VerbsError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
            let wc = cq_a.wait_one(std::time::Duration::from_secs(10)).unwrap();
            assert!(wc.status.is_ok());
        }
        assert_eq!(receiver.join().unwrap(), 800);
    }
}
