//! Decoder robustness: the SHWP body decoder and the stream reassembler fed
//! arbitrary, truncated, bit-flipped and length-forged bytes. Every input
//! must end in frames or a typed [`WireError`], never a panic, and no input
//! may make the decoder allocate more than `MAX_FRAME_LEN` at once, whatever
//! its length prefixes claim.
//!
//! The allocation bound is measured, not inferred: this test binary installs
//! a global allocator that records the largest single request. Every test
//! here keeps its own allocations far below the bound, so a peak above it
//! can only come from a decoder trusting a forged length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use shasta_core::protocol::{DirUpdate, DowngradeTo, ProtoMsg};
use shasta_core::space::Block;
use shasta_transport::wire::{
    decode_body, encode_frame, DataFrame, Frame, FrameReader, WireError, KIND_DATA, MAX_FRAME_LEN,
    VERSION, VERSION_MIN,
};

/// The system allocator, plus a high-water mark of single request sizes.
struct PeakAlloc;

static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording a size has no effect on it.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller's obligations carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's valid request.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn assert_allocations_bounded() {
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(peak <= MAX_FRAME_LEN as usize, "a single allocation of {peak} bytes");
}

/// One valid frame per `kind`: HELLO, ACK, BYE, then DATA carrying each of
/// the 17 protocol messages, at wire version `version`.
fn frame(kind: u8, a: u64, b: u64, x: u32, flag: bool, data: Vec<u8>, version: u8) -> Frame {
    let block = Block { start: a, len: b };
    let msg = match kind {
        0 => return Frame::Hello { ver_min: VERSION_MIN, ver_max: version, node: x },
        1 => return Frame::Ack { version, cum_seq: a },
        2 => return Frame::Bye,
        3 => ProtoMsg::ReadReq { block },
        4 => ProtoMsg::WriteReq { block },
        5 => ProtoMsg::UpgradeReq { block },
        6 => ProtoMsg::FwdRead { block, requester: x, owner_exclusive: flag },
        7 => ProtoMsg::FwdWrite { block, requester: x, acks_expected: x, owner_exclusive: flag },
        8 => ProtoMsg::ReadReply { block, data },
        9 => ProtoMsg::WriteReply { block, data, acks_expected: x },
        10 => ProtoMsg::UpgradeReply { block, acks_expected: x },
        11 => ProtoMsg::InvalidateReq { block, ack_to: x },
        12 => ProtoMsg::InvAck { block },
        13 => ProtoMsg::DirUpdateMsg {
            block,
            update: if flag {
                DirUpdate::OwnedBy { writer: x }
            } else {
                DirUpdate::SharedBy { reader: x }
            },
        },
        14 => ProtoMsg::Downgrade {
            block,
            to: if flag { DowngradeTo::Invalid } else { DowngradeTo::Shared },
        },
        15 => ProtoMsg::LockAcq { lock: x },
        16 => ProtoMsg::LockRel { lock: x },
        17 => ProtoMsg::LockGrant { lock: x },
        18 => ProtoMsg::BarrierArrive { id: x },
        _ => ProtoMsg::BarrierGo { id: x },
    };
    Frame::Data(DataFrame {
        version,
        src: x % 16,
        dst: x % 7,
        pair_seq: b,
        via_vnode: flag,
        trace: x,
        msg,
    })
}

/// The decoder contract for one frame body: it decodes to a frame whose
/// canonical encoding is exactly `body` (the grammar admits one encoding
/// per frame), or fails with a decode error.
fn check_body(body: &[u8]) -> Result<Frame, WireError> {
    let res = decode_body(body);
    match &res {
        Ok(f) => assert_eq!(&encode_frame(f).expect("decoded frames re-encode")[4..], body),
        Err(e) => assert!(!matches!(e, WireError::Incompatible { .. }), "{e}"),
    }
    res
}

/// Feeds `stream` to a [`FrameReader`] `chunk` bytes at a time, draining
/// frames as they complete; stops at the first error.
fn reassemble(stream: &[u8], chunk: usize) -> Result<Vec<Frame>, WireError> {
    let mut r = FrameReader::new();
    let mut frames = Vec::new();
    for piece in stream.chunks(chunk) {
        r.extend(piece);
        while let Some(f) = r.next_frame()? {
            frames.push(f);
        }
    }
    assert!(r.buffered() <= stream.len());
    Ok(frames)
}

fn prefixed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
        kind in 0u8..6,
        chunk in 1usize..48,
    ) {
        // Raw noise, then the same noise behind each frame-kind byte so the
        // grammar past the first byte is exercised too.
        let _ = check_body(&bytes);
        let mut steered = vec![kind];
        steered.extend_from_slice(&bytes);
        let body = check_body(&steered);
        prop_assert_eq!(reassemble(&prefixed(&steered), chunk), body.map(|f| vec![f]));
        // Noise as a stream: its first four bytes are a (forged) length.
        let _ = reassemble(&bytes, chunk);
        assert_allocations_bounded();
    }

    #[test]
    fn every_truncation_is_reported_as_truncated(
        kind in 0u8..20,
        a in any::<u64>(),
        b in any::<u64>(),
        x in any::<u32>(),
        flag in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
        version in VERSION_MIN..VERSION + 1,
    ) {
        let bytes = encode_frame(&frame(kind, a, b, x, flag, data, version)).unwrap();
        let body = &bytes[4..];
        for cut in 0..body.len() {
            prop_assert_eq!(decode_body(&body[..cut]), Err(WireError::Truncated));
        }
        for cut in 0..bytes.len() {
            prop_assert_eq!(reassemble(&bytes[..cut], 7), Ok(vec![]));
        }
        assert_allocations_bounded();
    }

    #[test]
    fn bit_flips_decode_canonically_or_fail_typed(
        kind in 0u8..20,
        a in any::<u64>(),
        x in any::<u32>(),
        flag in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
        flips in proptest::collection::vec(any::<u32>(), 1..4),
    ) {
        let bytes = encode_frame(&frame(kind, a, a >> 7, x, flag, data, VERSION)).unwrap();
        let mut body = bytes[4..].to_vec();
        for f in flips {
            let bit = f as usize % (body.len() * 8);
            body[bit / 8] ^= 1 << (bit % 8);
        }
        let res = check_body(&body);
        prop_assert_eq!(reassemble(&prefixed(&body), 5), res.map(|f| vec![f]));
        assert_allocations_bounded();
    }

    #[test]
    fn forged_frame_lengths_fail_fast_or_wait(
        kind in 0u8..20,
        a in any::<u64>(),
        x in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
        forged in any::<u32>(),
        near in 0u32..96,
        pick in 0u8..2,
    ) {
        let f = frame(kind, a, a, x, true, data, VERSION);
        let mut bytes = encode_frame(&f).unwrap();
        let real = bytes.len() as u32 - 4;
        // Half the cases forge a length close to the real one, where the
        // outcomes differ; the rest anywhere in the u32 range.
        let len = if pick == 0 { near } else { forged };
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let expect = if len > MAX_FRAME_LEN {
            Err(WireError::FrameTooLong(u64::from(len)))
        } else if len > real {
            Ok(vec![])
        } else if len == real {
            Ok(vec![f])
        } else {
            Err(WireError::Truncated)
        };
        prop_assert_eq!(reassemble(&bytes, 3), expect);
        assert_allocations_bounded();
    }

    #[test]
    fn forged_payload_lengths_never_allocate_their_claim(
        data in proptest::collection::vec(any::<u8>(), 0..48),
        forged in any::<u32>(),
        reply in any::<bool>(),
    ) {
        // A DATA frame whose ReadReply/WriteReply payload length prefix
        // claims `forged` bytes while carrying `data.len()`.
        let mut body = vec![KIND_DATA, VERSION];
        body.extend_from_slice(&[0; 21]);
        body.push(if reply { 0x06 } else { 0x07 });
        body.extend_from_slice(&[0; 16]);
        body.extend_from_slice(&forged.to_le_bytes());
        body.extend_from_slice(&data);
        // What follows the claimed payload: nothing for a ReadReply, a
        // 4-byte ack count for a WriteReply.
        let tail = if reply { 0 } else { 4 };
        let res = check_body(&body).map(|_| ());
        let expect = match data.len().checked_sub(forged as usize) {
            None => Err(WireError::Truncated),
            Some(left) if left < tail => Err(WireError::Truncated),
            Some(left) if left == tail => Ok(()),
            Some(left) => Err(WireError::TrailingBytes(left - tail)),
        };
        prop_assert_eq!(res, expect);
        assert_allocations_bounded();
    }
}

#[test]
fn extreme_length_prefixes_are_bounded() {
    for len in [MAX_FRAME_LEN, MAX_FRAME_LEN + 1, u32::MAX] {
        let mut stream = len.to_le_bytes().to_vec();
        stream.extend_from_slice(&[KIND_DATA, VERSION, 0, 0]);
        let expect = if len > MAX_FRAME_LEN {
            Err(WireError::FrameTooLong(u64::from(len)))
        } else {
            Ok(vec![])
        };
        assert_eq!(reassemble(&stream, 2), expect, "outer length {len}");

        // The same claim as a payload length inside a complete body.
        let mut body = vec![KIND_DATA, VERSION];
        body.extend_from_slice(&[0; 21]);
        body.push(0x06);
        body.extend_from_slice(&[0; 16]);
        body.extend_from_slice(&len.to_le_bytes());
        assert_eq!(check_body(&body), Err(WireError::Truncated), "payload length {len}");
    }
    assert_allocations_bounded();
}
