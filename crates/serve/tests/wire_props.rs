//! Property suite for the ingress wire protocol: arbitrary frames of every
//! type survive encode → chunked, timeout-riddled [`FrameReader`] →
//! re-encode **bit-identically**; truncating the byte stream anywhere fails
//! clean (`Closed` at a frame boundary, `Malformed` mid-frame, decoded
//! prefix intact); and random garbage never panics the reader.

use std::collections::VecDeque;
use std::io::Read;

use nasflat_serve::wire::{
    ErrorFrame, Frame, FrameReader, MetricsFrame, RequestFrame, ResponseFrame, WireFault,
    WIRE_MAX_FRAME,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Scripted reader: bytes arrive in dribs, `None` entries simulate a read
/// timeout. Oversized chunks are split against the caller's buffer, so the
/// script never loses bytes.
struct Script(VecDeque<Option<Vec<u8>>>);

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.pop_front() {
            Some(Some(bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.0.push_front(Some(bytes[n..].to_vec()));
                }
                Ok(n)
            }
            Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
            None => Ok(0),
        }
    }
}

fn arb_model() -> impl Strategy<Value = String> {
    vec(0u8..26, 0usize..12).prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

/// Every frame type with unconstrained payloads. The decoder validates
/// nothing semantic (that is `into_request`'s job), so arbitrary spaces,
/// genotypes, codes, and NaN scores must all survive the transport layer.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            (any::<u64>(), any::<u8>()),
            (vec(any::<u8>(), 0usize..32), any::<u32>()),
            (arb_model(), any::<bool>(), any::<u32>()),
        )
            .prop_map(
                |((id, space), (genotype, device), (model, has_deadline, deadline))| {
                    Frame::Request(RequestFrame {
                        id,
                        space,
                        genotype,
                        device,
                        model,
                        deadline_ms: has_deadline.then_some(deadline),
                    })
                }
            ),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(id, model_version, bits)| {
            Frame::Response(ResponseFrame {
                id,
                model_version,
                score: f32::from_bits(bits), // NaN and -0.0 included
            })
        }),
        (any::<u64>(), any::<u8>(), any::<u32>(), arb_model()).prop_map(
            |(id, code, retry_after_ms, detail)| {
                Frame::Error(ErrorFrame {
                    id,
                    code,
                    retry_after_ms,
                    detail,
                })
            }
        ),
        any::<u64>().prop_map(Frame::MetricsRequest),
        (any::<u64>(), vec(any::<u8>(), 0usize..64)).prop_map(|(id, raw)| {
            // Printable exposition text plus newlines, like a real scrape.
            let text = raw
                .into_iter()
                .map(|b| {
                    if b % 17 == 0 {
                        '\n'
                    } else {
                        (b' ' + b % 95) as char
                    }
                })
                .collect();
            Frame::Metrics(MetricsFrame { id, text })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frames_survive_arbitrary_chunking_and_timeouts(
        frames in vec(arb_frame(), 1usize..8),
        cuts in vec(1usize..64, 1usize..32),
        stalls in vec(any::<bool>(), 1usize..32),
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        // Slice the stream into arbitrary chunks with timeouts interleaved.
        let mut script: VecDeque<Option<Vec<u8>>> = VecDeque::new();
        let (mut pos, mut i) = (0usize, 0usize);
        while pos < bytes.len() {
            if stalls[i % stalls.len()] {
                script.push_back(None);
            }
            let n = cuts[i % cuts.len()].min(bytes.len() - pos);
            script.push_back(Some(bytes[pos..pos + n].to_vec()));
            pos += n;
            i += 1;
        }
        let mut r = Script(script);
        let mut reader = FrameReader::new();
        let mut got: Vec<Frame> = Vec::new();
        loop {
            match reader.poll(&mut r, WIRE_MAX_FRAME) {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => {} // timeout: resume exactly where it left off
                Err(fault) => {
                    prop_assert!(
                        matches!(fault, WireFault::Closed),
                        "stream must end Closed at the boundary, got {fault}"
                    );
                    break;
                }
            }
            prop_assert!(got.len() <= frames.len(), "reader invented a frame");
        }
        prop_assert_eq!(got.len(), frames.len());
        for (g, f) in got.iter().zip(&frames) {
            // Re-encode equality is bitwise and NaN-proof.
            prop_assert_eq!(g.encode(), f.encode());
        }
    }

    #[test]
    fn truncation_anywhere_fails_clean_with_the_prefix_intact(
        frames in vec(arb_frame(), 1usize..5),
        cut_seed in any::<u64>(),
    ) {
        let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        let bytes: Vec<u8> = encoded.iter().flatten().copied().collect();
        let cut = (cut_seed as usize) % (bytes.len() + 1);
        // Frame boundaries (including 0 and the full length).
        let mut boundaries = vec![0usize];
        for e in &encoded {
            boundaries.push(boundaries.last().unwrap() + e.len());
        }
        let whole = boundaries.iter().position(|&b| b == cut);

        let mut r = Script([Some(bytes[..cut].to_vec())].into_iter().collect());
        let mut reader = FrameReader::new();
        let mut got = 0usize;
        let fault = loop {
            match reader.poll(&mut r, WIRE_MAX_FRAME) {
                Ok(Some(frame)) => {
                    prop_assert_eq!(frame.encode(), encoded[got].clone());
                    got += 1;
                }
                Ok(None) => {}
                Err(fault) => break fault,
            }
            prop_assert!(got <= frames.len(), "reader invented a frame");
        };
        match whole {
            // Cut on a frame boundary: every prior frame decodes, then a
            // clean Closed.
            Some(n) => {
                prop_assert_eq!(got, n);
                prop_assert!(matches!(fault, WireFault::Closed), "got {fault}");
            }
            // Cut mid-frame: the partial frame is a malformed EOF, never a
            // wrong decode.
            None => {
                let complete = boundaries.iter().filter(|&&b| b > 0 && b < cut).count();
                prop_assert_eq!(got, complete);
                prop_assert!(matches!(fault, WireFault::Malformed(_)), "got {fault}");
            }
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_reader(bytes in vec(any::<u8>(), 0usize..256)) {
        let mut r = Script([Some(bytes)].into_iter().collect());
        let mut reader = FrameReader::new();
        // Garbage may decode as frames by chance; it must terminate in a
        // fault (EOF at the latest) without panicking.
        for _ in 0..64 {
            match reader.poll(&mut r, WIRE_MAX_FRAME) {
                Ok(_) => {}
                Err(_) => return Ok(()),
            }
        }
        prop_assert!(false, "reader neither faulted nor hit EOF");
    }
}
