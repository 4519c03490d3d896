//! Overlay packet formats.
//!
//! Two layers, mirroring VXLAN-over-IP container overlays:
//!
//! * [`Frame`] — the inner packet containers exchange: overlay source and
//!   destination IP, a protocol byte, and the payload.
//! * [`VxlanPacket`] — the outer encapsulation routers exchange over the
//!   host network: a VXLAN network identifier (VNI, the tenant isolation
//!   tag) plus the serialized inner frame.
//!
//! Integers are little-endian and both decoders parse through
//! [`freeflow_types::wire::Reader`], so a truncated or corrupt buffer
//! parses to `Err`, never panics — these bytes cross "the network".

use bytes::{Bytes, BytesMut};
use freeflow_types::wire::Reader;
use freeflow_types::{OverlayIp, Result};

/// Protocol numbers for the inner frame (loosely IANA-flavored).
pub mod proto {
    /// Raw test/datagram payload.
    pub const DATA: u8 = 17;
    /// Stream segment (used by the socket layer over overlay).
    pub const STREAM: u8 = 6;
    /// Control/handshake messages.
    pub const CONTROL: u8 = 254;
}

/// The inner overlay packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender's overlay IP.
    pub src: OverlayIp,
    /// Destination overlay IP.
    pub dst: OverlayIp,
    /// Protocol discriminator (see [`proto`]).
    pub protocol: u8,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Frame {
    /// Header length: src(4) + dst(4) + proto(1) + len(4).
    pub const HEADER_LEN: usize = 13;

    /// Build a data frame.
    pub fn new(src: OverlayIp, dst: OverlayIp, protocol: u8, payload: impl Into<Bytes>) -> Self {
        Self {
            src,
            dst,
            protocol,
            payload: payload.into(),
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::HEADER_LEN + self.payload.len());
        buf.extend_from_slice(&self.src.raw().to_le_bytes());
        buf.extend_from_slice(&self.dst.raw().to_le_bytes());
        buf.extend_from_slice(&[self.protocol]);
        buf.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.payload);
        buf.freeze()
    }

    /// Parse from wire bytes; the payload is a zero-copy view of `buf`
    /// and must fill it exactly.
    pub fn decode(buf: Bytes) -> Result<Self> {
        let mut r = Reader::new(&buf);
        let src = OverlayIp(r.u32()?);
        let dst = OverlayIp(r.u32()?);
        let protocol = r.u8()?;
        let len = r.u32()?;
        let payload = buf.slice_ref(r.bytes(len.into())?);
        r.finish()?;
        Ok(Self {
            src,
            dst,
            protocol,
            payload,
        })
    }

    /// Total encoded size.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }
}

/// The outer encapsulation exchanged between overlay routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VxlanPacket {
    /// VXLAN network identifier — the tenant/network tag. Routers only
    /// decapsulate VNIs they host, which is the overlay's tenant isolation.
    pub vni: u32,
    /// The encapsulated inner frame, already serialized.
    pub inner: Bytes,
}

impl VxlanPacket {
    /// Encapsulate a frame under `vni`.
    pub fn encap(vni: u32, frame: &Frame) -> Self {
        Self {
            vni,
            inner: frame.encode(),
        }
    }

    /// Decapsulate back into the inner frame.
    pub fn decap(&self) -> Result<Frame> {
        Frame::decode(self.inner.clone())
    }

    /// Serialize the whole packet (vni header + inner bytes).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.inner.len());
        buf.extend_from_slice(&self.vni.to_le_bytes());
        buf.extend_from_slice(&self.inner);
        buf.freeze()
    }

    /// Parse a serialized packet.
    pub fn decode(buf: Bytes) -> Result<Self> {
        let vni = Reader::new(&buf).u32()?;
        Ok(Self {
            vni,
            inner: buf.slice(4..),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> OverlayIp {
        OverlayIp::from_octets(10, 0, 0, last)
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame::new(ip(1), ip(2), proto::DATA, &b"payload"[..]);
        let decoded = Frame::decode(f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert_eq!(decoded.wire_len(), 13 + 7);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = Frame::new(ip(1), ip(2), proto::CONTROL, Bytes::new());
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn truncated_frame_rejected() {
        let f = Frame::new(ip(1), ip(2), proto::DATA, &b"payload"[..]);
        let mut wire = f.encode();
        let short = wire.split_to(wire.len() - 3);
        assert!(Frame::decode(short).is_err());
        assert!(Frame::decode(Bytes::from_static(b"tiny")).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let f = Frame::new(ip(1), ip(2), proto::DATA, &b"abc"[..]);
        let mut raw = BytesMut::from(&f.encode()[..]);
        raw.extend_from_slice(b"extra");
        assert!(Frame::decode(raw.freeze()).is_err());
    }

    #[test]
    fn vxlan_encap_decap() {
        let f = Frame::new(ip(3), ip(4), proto::STREAM, &b"stream data"[..]);
        let pkt = VxlanPacket::encap(42, &f);
        assert_eq!(pkt.vni, 42);
        assert_eq!(pkt.decap().unwrap(), f);
    }

    #[test]
    fn vxlan_wire_roundtrip() {
        let f = Frame::new(ip(3), ip(4), proto::DATA, &b"x"[..]);
        let pkt = VxlanPacket::encap(7, &f);
        let decoded = VxlanPacket::decode(pkt.encode()).unwrap();
        assert_eq!(decoded, pkt);
        assert_eq!(decoded.decap().unwrap(), f);
    }

    #[test]
    fn vxlan_too_short_rejected() {
        assert!(VxlanPacket::decode(Bytes::from_static(b"ab")).is_err());
    }

    #[test]
    fn hostile_frame_length_is_an_error_not_an_abort() {
        let mut raw = BytesMut::new();
        raw.extend_from_slice(&ip(1).raw().to_le_bytes());
        raw.extend_from_slice(&ip(2).raw().to_le_bytes());
        raw.extend_from_slice(&[proto::DATA]);
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(b"short");
        let raw = raw.freeze();
        assert!(Frame::decode(raw.clone()).is_err());
        let mut outer = BytesMut::new();
        outer.extend_from_slice(&9u32.to_le_bytes());
        outer.extend_from_slice(&raw);
        let pkt = VxlanPacket::decode(outer.freeze()).unwrap();
        assert!(pkt.decap().is_err());
    }
}
