//! The one bounded reader every wire and checkpoint decoder uses.
//!
//! Relay messages, socket-mux frames, overlay packets, MPI frame headers
//! and migration checkpoints are all bytes some other party encoded. They
//! share one discipline, enforced here:
//!
//! * integers are little-endian;
//! * a count or length read from the input is checked against the bytes
//!   that remain *before* anything is allocated for it;
//! * decode is total: every method returns `Err` on short or hostile
//!   input and none panics or allocates.
//!
//! Writers need no helper: they append `to_le_bytes()`.

use std::fmt;

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A field or byte run wanted `want` bytes, but only `have` remained.
    Truncated {
        /// Bytes the read needed.
        want: u64,
        /// Bytes that remained.
        have: usize,
    },
    /// A count of `count` elements, each at least `min` bytes long,
    /// cannot fit in the `have` bytes that remain.
    Oversized {
        /// The count read from the input.
        count: u32,
        /// Minimum encoded size of one element.
        min: usize,
        /// Bytes that remained after the count.
        have: usize,
    },
    /// `n` bytes remained after the last field.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { want, have } => {
                write!(f, "truncated: want {want} bytes, have {have}")
            }
            WireError::Oversized { count, min, have } => write!(
                f,
                "count {count} of >= {min}-byte elements exceeds the {have} bytes left"
            ),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for crate::Error {
    fn from(e: WireError) -> Self {
        crate::Error::parse(e.to_string())
    }
}

/// A bounded little-endian cursor over received bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: u64) -> Result<&'a [u8], WireError> {
        let have = self.rest.len();
        match usize::try_from(n) {
            Ok(n) if n <= have => {
                let (head, tail) = self.rest.split_at(n);
                self.rest = tail;
                Ok(head)
            }
            _ => Err(WireError::Truncated { want: n, have }),
        }
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N as u64)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` element count, accepted only if that many elements of at
    /// least `min_elem_size` bytes (treated as at least 1) fit in what
    /// remains — so the result is always safe to pass to
    /// `Vec::with_capacity`.
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let mut ahead = self.clone();
        let count = ahead.u32()?;
        let min = min_elem_size.max(1);
        let have = ahead.rest.len();
        match (count as usize).checked_mul(min) {
            Some(need) if need <= have => {
                *self = ahead;
                Ok(count as usize)
            }
            _ => Err(WireError::Oversized { count, min, have }),
        }
    }

    /// End of input: rejects trailing bytes.
    pub fn finish(self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reader_round_trip() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(42));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_input_is_truncated_and_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(WireError::Truncated { want: 4, have: 3 }));
        assert_eq!(
            r.bytes(u64::MAX),
            Err(WireError::Truncated {
                want: u64::MAX,
                have: 3
            })
        );
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.bytes(3), Ok(&[1u8, 2, 3][..]));
    }

    #[test]
    fn hostile_count_is_refused_before_any_allocation() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        let err = Reader::new(&buf).count(4).unwrap_err();
        assert_eq!(
            err,
            WireError::Oversized {
                count: u32::MAX,
                min: 4,
                have: 16
            }
        );
        // A zero element size is treated as one byte, not as "anything fits".
        assert!(Reader::new(&buf).count(0).is_err());
        // An exact fit is accepted.
        let mut exact = 4u32.to_le_bytes().to_vec();
        exact.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&exact).count(4), Ok(4));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing(1)));
    }

    #[test]
    fn wire_errors_convert_to_parse_errors() {
        let e: crate::Error = WireError::Trailing(3).into();
        assert!(matches!(e, crate::Error::Parse(_)));
    }

    /// One step of an arbitrary read sequence.
    #[derive(Debug, Clone)]
    enum Op {
        U8,
        U32,
        U64,
        Bytes(u64),
        Count(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::U8),
            Just(Op::U32),
            Just(Op::U64),
            any::<u64>().prop_map(Op::Bytes),
            (0u64..64).prop_map(Op::Bytes),
            (0usize..64).prop_map(Op::Count),
            any::<usize>().prop_map(Op::Count),
        ]
    }

    proptest! {
        /// Any read sequence over any bytes returns `Ok`/`Err` without
        /// panicking; a failed read consumes nothing, a successful one
        /// consumes exactly its width, and `bytes(n)` never yields more
        /// than remained.
        #[test]
        fn arbitrary_reads_are_total_and_bounded(
            buf in prop::collection::vec(any::<u8>(), 0..256),
            ops in prop::collection::vec(arb_op(), 0..32),
        ) {
            let mut r = Reader::new(&buf);
            for op in ops {
                let before = r.remaining();
                let used = match op {
                    Op::U8 => r.u8().map(|_| 1),
                    Op::U32 => r.u32().map(|_| 4),
                    Op::U64 => r.u64().map(|_| 8),
                    Op::Bytes(n) => r.bytes(n).map(|b| {
                        assert!(b.len() as u64 == n && b.len() <= before);
                        b.len()
                    }),
                    Op::Count(min) => r.count(min).map(|c| {
                        assert!(c.saturating_mul(min.max(1)) <= before - 4);
                        4
                    }),
                };
                match used {
                    Ok(n) => prop_assert_eq!(r.remaining(), before - n),
                    Err(_) => prop_assert_eq!(r.remaining(), before),
                }
            }
            let left = r.remaining();
            prop_assert_eq!(r.finish().is_ok(), left == 0);
        }
    }
}
