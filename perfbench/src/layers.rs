//! Per-layer figures: the public counters each layer exposes, read
//! before and after the timed window, plus the benchmark's own spans.
//!
//! [`PER_LAYER`] is the fixed list printed by every traced run; a
//! workload that bypasses a layer reports its metrics as 0.

use freeflow::FreeFlowCluster;
use freeflow_telemetry::{HistogramSnapshot, SampleValue, TelemetrySnapshot};
use freeflow_types::HostId;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.post_send_ns_p50", "ns"),
    ("core.post_send_ns_p99", "ns"),
    ("core.remote_op_ns_p50", "ns"),
    ("core.remote_op_ns_p99", "ns"),
    ("core.qp_connect_us_p50", "us"),
    ("core.launch_ms_p50", "ms"),
    ("core.rebinds", "count"),
    ("core.failovers", "count"),
    ("core.location_cache_entries", "count"),
    ("verbs.cq_wait_us_p50", "us"),
    ("verbs.cq_wait_us_p99", "us"),
    ("verbs.completions", "count"),
    ("verbs.completion_errors", "count"),
    ("verbs.wait_blocks", "count"),
    ("verbs.blocks_per_completion", "ratio"),
    ("shmem.doorbells_coalesced", "count"),
    ("shmem.backpressure_waits", "count"),
    ("shmem.recv_waits", "count"),
    ("agent.relayed_out", "count"),
    ("agent.relayed_in", "count"),
    ("agent.batch_size_p50", "count"),
    ("agent.msgs_per_frame", "ratio"),
    ("agent.relay_in_flight_max", "count"),
    ("agent.wire_retries", "count"),
    ("agent.nacks", "count"),
    ("agent.relays_expired", "count"),
    ("socket.write_ns_p50", "ns"),
    ("socket.write_ns_p99", "ns"),
    ("socket.read_wait_us_p50", "us"),
    ("socket.read_wait_us_p99", "us"),
    ("socket.credit_stall_ns_sum", "ns"),
    ("socket.accept_us_p50", "us"),
    ("socket.channels", "count"),
    ("socket.reuse_ratio", "ratio"),
    ("socket.retransmits", "count"),
    ("socket.reorders", "count"),
    ("orch.rpcs", "count"),
    ("orch.retries", "count"),
    ("orch.events", "count"),
    ("migrate.call_ms_p50", "ms"),
    ("migrate.call_ms_p95", "ms"),
    ("migrate.reported_blackout_ms_p50", "ms"),
    ("migrate.rebind_wait_ms_p50", "ms"),
    ("migrate.checkpoint_bytes_p50", "bytes"),
    ("migrate.committed", "count"),
    ("migrate.aborted", "count"),
    ("telemetry.snapshot_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("proc.ctx_switches_per_op", "ratio"),
    ("proc.threads", "count"),
    ("fail_frac", "ratio"),
];

/// Layer figures by metric name.
pub type LayerMap = BTreeMap<&'static str, f64>;

/// Declares [`Counters`]: monotonic counters (summed over windows) and
/// histograms (merged bucket-wise), plus one gauge.
macro_rules! counters {
    ($($field:ident),* ; $($hist:ident),*) => {
        /// The counters read from one telemetry snapshot plus the agents,
        /// or the growth of those counters over one or more windows.
        #[derive(Debug, Clone, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
            $(pub $hist: HistogramSnapshot,)*
            /// A gauge: the latest reading, never summed.
            pub location_cache_entries: u64,
        }

        impl Counters {
            /// Growth from `before` to `self` (gauges keep `self`'s value).
            pub fn since(&self, before: &Counters) -> Counters {
                Counters {
                    $($field: self.$field.saturating_sub(before.$field),)*
                    $($hist: hist_sub(&self.$hist, &before.$hist),)*
                    location_cache_entries: self.location_cache_entries,
                }
            }

            /// Fold in another window's growth.
            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
                $(hist_add(&mut self.$hist, &other.$hist);)*
                self.location_cache_entries = other.location_cache_entries;
            }
        }
    };
}

counters!(
    completions, completion_errors, wait_blocks, rebinds, failovers,
    doorbells_coalesced, backpressure_waits, recv_waits, relayed_out, relayed_in,
    wire_retries, nacks, relays_expired, retransmits, reorders, qp_reuse,
    orch_rpcs, orch_retries, orch_events, committed, aborted;
    batch_size, remote_op_ns, credit_stall_ns
);

fn gauge_total(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SampleValue::Gauge(v) => v.max(0) as u64,
            _ => 0,
        })
        .sum()
}

/// One histogram merged across every label set it was registered under.
fn hist_total(snap: &TelemetrySnapshot, name: &str) -> HistogramSnapshot {
    let mut acc = HistogramSnapshot::default();
    for s in snap.samples.iter().filter(|s| s.name == name) {
        if let SampleValue::Histogram(h) = s.value {
            hist_add(&mut acc, &h);
        }
    }
    acc
}

fn hist_add(acc: &mut HistogramSnapshot, h: &HistogramSnapshot) {
    for (a, b) in acc.buckets.iter_mut().zip(h.buckets.iter()) {
        *a += b;
    }
    acc.sum += h.sum;
    acc.max = acc.max.max(h.max);
}

fn hist_sub(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = *after;
    for (a, b) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *a = a.saturating_sub(*b);
    }
    d.sum = d.sum.saturating_sub(before.sum);
    d
}

impl Counters {
    /// Read every layer's counters. Returns the reading and how long the
    /// `FreeFlowCluster::telemetry()` call took, in µs.
    pub fn read(cluster: &FreeFlowCluster, hosts: &[HostId]) -> (Self, f64) {
        let t0 = Instant::now();
        let snap = cluster.telemetry();
        let snapshot_us = t0.elapsed().as_secs_f64() * 1e6;
        let mut c = Counters {
            completions: snap.counter_total("ff_cq_completions_total"),
            completion_errors: snap.counter_total("ff_cq_completion_errors_total"),
            wait_blocks: snap.counter_total("ff_cq_wait_blocks_total"),
            rebinds: snap.counter_total("ff_qp_rebinds_total"),
            failovers: snap.counter_total("ff_qp_failovers_total"),
            doorbells_coalesced: snap.counter_total("ff_doorbells_coalesced_total"),
            backpressure_waits: gauge_total(&snap, "ff_agent_chan_backpressure_waits"),
            recv_waits: gauge_total(&snap, "ff_agent_chan_recv_waits"),
            relayed_out: 0,
            relayed_in: 0,
            wire_retries: snap.counter_total("ff_agent_wire_retries_total"),
            nacks: snap.counter_total("ff_agent_nacks_total"),
            relays_expired: snap.counter_total("ff_agent_relays_expired_total"),
            retransmits: snap.counter_total("ff_stream_retransmits_total"),
            reorders: snap.counter_total("ff_stream_reorders_total"),
            qp_reuse: snap.counter_total("ff_channel_qp_reuse_total"),
            orch_rpcs: snap.counter_total("ff_orch_client_rpcs_total"),
            orch_retries: snap.counter_total("ff_orch_client_retries_total"),
            orch_events: snap.counter_total("ff_orchestrator_events_total"),
            committed: snap.counter_total("ff_migrations_committed_total"),
            aborted: snap.counter_total("ff_migrations_aborted_total"),
            batch_size: hist_total(&snap, "ff_batch_size"),
            remote_op_ns: hist_total(&snap, "ff_qp_remote_op_latency_ns"),
            credit_stall_ns: hist_total(&snap, "ff_socket_credit_stall_ns"),
            location_cache_entries: gauge_total(&snap, "ff_location_cache_entries"),
        };
        for &h in hosts {
            let agent = cluster.agent_of(h).expect("benchmark hosts exist");
            c.relayed_out += agent.stats().relayed_out.load(Ordering::Relaxed);
            c.relayed_in += agent.stats().relayed_in.load(Ordering::Relaxed);
        }
        (c, snapshot_us)
    }

    /// The per-layer metrics of a growth reading (see [`Counters::since`]).
    pub fn layers_into(&self, out: &mut LayerMap) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let comps = self.completions as f64;
        let blocks = self.wait_blocks as f64;
        out.insert("verbs.completions", comps);
        out.insert("verbs.completion_errors", self.completion_errors as f64);
        out.insert("verbs.wait_blocks", blocks);
        out.insert("verbs.blocks_per_completion", ratio(blocks, comps));
        out.insert("core.rebinds", self.rebinds as f64);
        out.insert("core.failovers", self.failovers as f64);
        out.insert(
            "core.location_cache_entries",
            self.location_cache_entries as f64,
        );
        out.insert("core.remote_op_ns_p50", self.remote_op_ns.p50() as f64);
        out.insert("core.remote_op_ns_p99", self.remote_op_ns.p99() as f64);
        out.insert("shmem.doorbells_coalesced", self.doorbells_coalesced as f64);
        out.insert("shmem.backpressure_waits", self.backpressure_waits as f64);
        out.insert("shmem.recv_waits", self.recv_waits as f64);
        out.insert("agent.relayed_out", self.relayed_out as f64);
        out.insert("agent.relayed_in", self.relayed_in as f64);
        out.insert("agent.batch_size_p50", self.batch_size.p50() as f64);
        out.insert(
            "agent.msgs_per_frame",
            ratio(self.batch_size.sum as f64, self.batch_size.count() as f64),
        );
        out.insert("agent.wire_retries", self.wire_retries as f64);
        out.insert("agent.nacks", self.nacks as f64);
        out.insert("agent.relays_expired", self.relays_expired as f64);
        out.insert(
            "socket.credit_stall_ns_sum",
            self.credit_stall_ns.sum as f64,
        );
        out.insert("socket.retransmits", self.retransmits as f64);
        out.insert("socket.reorders", self.reorders as f64);
        out.insert("orch.rpcs", self.orch_rpcs as f64);
        out.insert("orch.retries", self.orch_retries as f64);
        out.insert("orch.events", self.orch_events as f64);
        out.insert("migrate.committed", self.committed as f64);
        out.insert("migrate.aborted", self.aborted as f64);
    }
}
