//! Binary persistence of the server database.
//!
//! The paper (with its Refs. 4, 6-7) argues for storing *delay
//! parameters* instead of exhaustive CRP tables: `n · (stages + 1)` floats
//! plus two thresholds and two βs per chip. This module provides a compact,
//! versioned, self-describing binary codec for [`EnrolledChip`] records and
//! whole [`Server`] databases, so an authentication service can persist and
//! reload its state.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! database  := MAGIC "XPUF" | u16 version | u32 record_count | record*
//!            | u32 crc32
//! record    := u32 chip_id | u16 stages | u16 n | puf*
//! puf       := f64 thr0 | f64 thr1 | f64 beta0 | f64 beta1
//!            | u16 theta_len | f64 theta[theta_len]
//! ```
//!
//! The trailing CRC-32 (IEEE polynomial, computed over every preceding
//! byte) turns silent bit-rot into a typed [`DecodeError::ChecksumMismatch`]
//! instead of a best-effort read of garbage floats; it is what the durable
//! log ([`crate::durable`]) builds its torn-write detection on.

use crate::enrollment::{EnrolledChip, EnrolledPuf};
use crate::server::Server;
use crate::threshold::{Betas, Thresholds};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use puf_ml::LinearRegression;
use std::error::Error as StdError;
use std::fmt;

const MAGIC: &[u8; 4] = b"XPUF";
const VERSION: u16 = 2;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
///
/// Hand-rolled slicing-by-8 so the codec stays dependency-free; shared
/// with the write-ahead log in [`crate::durable`]. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is `TABLES[0][b]` pushed
/// through `k` further zero bytes, so eight lookups fold eight input
/// bytes into the register at once. The tail (fewer than 8 bytes) runs
/// byte-wise on `TABLES[0]`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    }
    const TABLES: [[u32; 256]; 8] = tables();
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFFu32;
    for word in words {
        let w = u64::from_le_bytes(*word) ^ u64::from(crc);
        crc = TABLES[7][(w & 0xFF) as usize]
            ^ TABLES[6][((w >> 8) & 0xFF) as usize]
            ^ TABLES[5][((w >> 16) & 0xFF) as usize]
            ^ TABLES[4][((w >> 24) & 0xFF) as usize]
            ^ TABLES[3][((w >> 32) & 0xFF) as usize]
            ^ TABLES[2][((w >> 40) & 0xFF) as usize]
            ^ TABLES[1][((w >> 48) & 0xFF) as usize]
            ^ TABLES[0][(w >> 56) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Errors while decoding a stored database.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer does not start with the `XPUF` magic.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The buffer ended before the structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        while_reading: &'static str,
    },
    /// A decoded value violates an invariant (NaN threshold, crossed
    /// thresholds, zero-length model, …).
    Corrupt {
        /// Description of the violated invariant.
        what: &'static str,
    },
    /// The buffer is longer than the structure it declares.
    TrailingBytes {
        /// How many bytes followed the last record.
        extra: usize,
    },
    /// The trailing CRC-32 does not match the decoded payload (bit rot or
    /// a torn write).
    ChecksumMismatch {
        /// CRC recorded in the trailer.
        stored: u32,
        /// CRC recomputed over the payload.
        computed: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an XPUF database (bad magic)"),
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported database version {found}")
            }
            DecodeError::Truncated { while_reading } => {
                write!(f, "truncated database while reading {while_reading}")
            }
            DecodeError::Corrupt { what } => write!(f, "corrupt database: {what}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "over-long database: {extra} bytes after the last record")
            }
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "database checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl StdError for DecodeError {}

fn need(buf: &impl Buf, bytes: usize, what: &'static str) -> Result<(), DecodeError> {
    if buf.remaining() < bytes {
        return Err(DecodeError::Truncated {
            while_reading: what,
        });
    }
    Ok(())
}

fn put_record(out: &mut BytesMut, record: &EnrolledChip) {
    out.put_u32_le(record.chip_id);
    out.put_u16_le(record.stages as u16);
    out.put_u16_le(record.pufs.len() as u16);
    for puf in &record.pufs {
        out.put_f64_le(puf.thresholds.thr0);
        out.put_f64_le(puf.thresholds.thr1);
        out.put_f64_le(puf.betas.beta0);
        out.put_f64_le(puf.betas.beta1);
        let theta = puf.model.theta();
        out.put_u16_le(theta.len() as u16);
        for &t in theta {
            out.put_f64_le(t);
        }
    }
}

fn get_record(buf: &mut Bytes) -> Result<EnrolledChip, DecodeError> {
    need(buf, 4 + 2 + 2, "record header")?;
    let chip_id = buf.get_u32_le();
    let stages = buf.get_u16_le() as usize;
    let n = buf.get_u16_le() as usize;
    if n == 0 {
        return Err(DecodeError::Corrupt {
            what: "record has zero member PUFs",
        });
    }
    let mut pufs = Vec::with_capacity(n);
    for _ in 0..n {
        need(buf, 4 * 8 + 2, "puf header")?;
        let thr0 = buf.get_f64_le();
        let thr1 = buf.get_f64_le();
        let beta0 = buf.get_f64_le();
        let beta1 = buf.get_f64_le();
        if !(thr0.is_finite() && thr1.is_finite()) || thr0 > thr1 {
            return Err(DecodeError::Corrupt {
                what: "invalid thresholds",
            });
        }
        if !(beta0.is_finite() && beta1.is_finite()) || beta0 <= 0.0 || beta1 <= 0.0 {
            return Err(DecodeError::Corrupt {
                what: "invalid betas",
            });
        }
        let theta_len = buf.get_u16_le() as usize;
        if theta_len != stages + 1 {
            return Err(DecodeError::Corrupt {
                what: "model length does not match stage count",
            });
        }
        need(buf, theta_len * 8, "model coefficients")?;
        let mut theta = Vec::with_capacity(theta_len);
        for _ in 0..theta_len {
            let v = buf.get_f64_le();
            if !v.is_finite() {
                return Err(DecodeError::Corrupt {
                    what: "non-finite model coefficient",
                });
            }
            theta.push(v);
        }
        pufs.push(EnrolledPuf {
            model: LinearRegression::from_theta(theta),
            thresholds: Thresholds::new(thr0, thr1),
            betas: Betas::new(beta0, beta1),
        });
    }
    Ok(EnrolledChip {
        chip_id,
        stages,
        pufs,
    })
}

fn seal(mut out: BytesMut) -> Bytes {
    let crc = crc32(out.as_ref());
    out.put_u32_le(crc);
    out.freeze()
}

/// Encodes one enrollment record.
pub fn encode_record(record: &EnrolledChip) -> Bytes {
    let mut out = BytesMut::with_capacity(64 + record.pufs.len() * (record.stages + 1) * 8);
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u32_le(1);
    put_record(&mut out, record);
    seal(out)
}

/// Encodes a whole server database (records in ascending chip-id order, so
/// encoding is deterministic).
pub fn encode_server(server: &Server) -> Bytes {
    let mut out = BytesMut::new();
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u32_le(server.len() as u32);
    // Server::records iterates in ascending chip-id order, which is what
    // makes this encoding byte-deterministic.
    for record in server.records() {
        put_record(&mut out, record);
    }
    seal(out)
}

/// Decodes a database into its enrollment records.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input; decoding is strict (the CRC
/// trailer must match and over-long input is rejected).
pub fn decode_records(bytes: &[u8]) -> Result<Vec<EnrolledChip>, DecodeError> {
    // The CRC trailer is checked first: a failed checksum means the byte
    // stream itself is untrustworthy, so no structural diagnosis of its
    // contents is meaningful.
    if bytes.len() < 4 {
        return Err(DecodeError::Truncated {
            while_reading: "checksum trailer",
        });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    let mut buf = Bytes::copy_from_slice(payload);
    need(&buf, 4 + 2 + 4, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    let count = buf.get_u32_le() as usize;
    let mut records = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        records.push(get_record(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(DecodeError::TrailingBytes {
            extra: buf.remaining(),
        });
    }
    Ok(records)
}

/// Decodes a database straight into a [`Server`].
///
/// # Errors
///
/// See [`decode_records`]; duplicate chip ids are rejected.
pub fn decode_server(bytes: &[u8]) -> Result<Server, DecodeError> {
    let records = decode_records(bytes)?;
    let mut server = Server::new();
    for record in records {
        if server.register(record).is_some() {
            return Err(DecodeError::Corrupt {
                what: "duplicate chip id",
            });
        }
    }
    Ok(server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enrollment::{enroll, EnrollmentConfig};
    use puf_silicon::{Chip, ChipConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_record(seed: u64, n: usize) -> EnrolledChip {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::fabricate(seed as u32, &ChipConfig::small(), &mut rng);
        enroll(&chip, &EnrollmentConfig::small(n), &mut rng).unwrap()
    }

    /// Recomputes the CRC trailer after a test mutated the payload, so the
    /// structural validators (not the checksum) are what reject the input.
    fn reseal(bytes: &mut [u8]) {
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn record_round_trip() {
        let record = sample_record(1, 2);
        let bytes = encode_record(&record);
        let decoded = decode_records(&bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0], record);
    }

    #[test]
    fn server_round_trip_preserves_behaviour() {
        let mut server = Server::new();
        for seed in [1u64, 2, 3] {
            server.register(sample_record(seed, 2));
        }
        let bytes = encode_server(&server);
        let restored = decode_server(&bytes).unwrap();
        assert_eq!(restored.len(), 3);
        // The restored records classify identically.
        let mut rng = StdRng::seed_from_u64(9);
        for id in [1u32, 2, 3] {
            let a = server.record(id).unwrap();
            let b = restored.record(id).unwrap();
            for _ in 0..200 {
                let c = puf_core::Challenge::random(a.stages, &mut rng);
                assert_eq!(a.predict_stable_xor(&c), b.predict_stable_xor(&c));
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut a = Server::new();
        let mut b = Server::new();
        for seed in [5u64, 6] {
            let rec = sample_record(seed, 2);
            a.register(rec.clone());
            b.register(rec);
        }
        assert_eq!(encode_server(&a), encode_server(&b));
    }

    #[test]
    fn bad_magic_rejected() {
        let record = sample_record(1, 1);
        let mut bytes = encode_record(&record).to_vec();
        bytes[0] = b'Y';
        reseal(&mut bytes);
        assert_eq!(decode_records(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let record = sample_record(1, 1);
        let mut bytes = encode_record(&record).to_vec();
        bytes[4] = 0xFF;
        reseal(&mut bytes);
        assert!(matches!(
            decode_records(&bytes),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn bit_rot_without_reseal_is_a_checksum_mismatch() {
        let record = sample_record(1, 1);
        let mut bytes = encode_record(&record).to_vec();
        bytes[0] = b'Y';
        assert!(matches!(
            decode_records(&bytes),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let record = sample_record(2, 2);
        let bytes = encode_record(&record);
        // Every strict prefix must fail cleanly (no panic, no success).
        for cut in 0..bytes.len() {
            let result = decode_records(&bytes[..cut]);
            assert!(
                result.is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let record = sample_record(3, 1);
        let mut bytes = encode_record(&record).to_vec();
        // Insert a stray byte between the last record and the trailer, then
        // reseal so the typed over-long error (not the checksum) fires.
        let trailer_at = bytes.len() - 4;
        bytes.insert(trailer_at, 0);
        reseal(&mut bytes);
        assert_eq!(
            decode_records(&bytes),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn corrupt_thresholds_rejected() {
        let record = sample_record(4, 1);
        let mut bytes = encode_record(&record).to_vec();
        // thr0 is the first f64 after the 10-byte header + 8-byte record
        // header; overwrite with NaN.
        let off = 4 + 2 + 4 + 4 + 2 + 2;
        bytes[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            decode_records(&bytes),
            Err(DecodeError::Corrupt { .. })
        ));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_record() -> impl Strategy<Value = EnrolledChip> {
            // stages in 1..=16; n in 1..=4; finite values everywhere.
            (1usize..=16, 1usize..=4, any::<u32>()).prop_flat_map(|(stages, n, chip_id)| {
                let puf = (
                    proptest::collection::vec(-10.0f64..10.0, stages + 1),
                    -5.0f64..5.0,
                    0.0f64..5.0,
                    0.01f64..2.0,
                    0.01f64..2.0,
                )
                    .prop_map(move |(theta, thr0, gap, beta0, beta1)| {
                        EnrolledPuf {
                            model: LinearRegression::from_theta(theta),
                            thresholds: Thresholds::new(thr0, thr0 + gap),
                            betas: Betas::new(beta0, beta1),
                        }
                    });
                proptest::collection::vec(puf, n).prop_map(move |pufs| EnrolledChip {
                    chip_id,
                    stages,
                    pufs,
                })
            })
        }

        /// The byte-at-a-time table CRC `crc32` replaced: the oracle the
        /// slicing-by-8 form must match bit for bit.
        fn crc32_bytewise(bytes: &[u8]) -> u32 {
            let mut table = [0u32; 256];
            for (i, entry) in table.iter_mut().enumerate() {
                let mut crc = i as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
                *entry = crc;
            }
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_crc32_matches_bytewise_reference(
                data in proptest::collection::vec(any::<u8>(), 0..4104),
                start in any::<proptest::sample::Index>(),
                len in 0usize..=4096,
            ) {
                // Random slice offsets exercise every alignment of the
                // 8-byte words relative to the allocation, and every tail
                // length 0..8.
                let start = start.index(data.len() + 1);
                let end = (start + len).min(data.len());
                let slice = &data[start..end];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
            }

            #[test]
            fn prop_round_trip_any_record(record in arb_record()) {
                let bytes = encode_record(&record);
                let decoded = decode_records(&bytes).unwrap();
                prop_assert_eq!(decoded.len(), 1);
                prop_assert_eq!(&decoded[0], &record);
            }

            #[test]
            fn prop_round_trip_is_byte_identical(record in arb_record()) {
                // Stronger than value equality: decode → re-encode must
                // reproduce the original byte stream exactly, so stored
                // databases are stable under rewrite cycles.
                let bytes = encode_record(&record);
                let decoded = decode_records(&bytes).unwrap();
                let reencoded = encode_record(&decoded[0]);
                prop_assert_eq!(reencoded, bytes);
            }

            #[test]
            fn prop_encoded_size_matches_codec_formula(record in arb_record()) {
                // header 10 = magic 4 + version 2 + count 4; record header
                // 8 = chip_id 4 + stages 2 + n 2; per puf: 4 f64 scalars +
                // u16 theta_len + (stages+1) f64 coefficients; trailer 4 =
                // CRC-32.
                let per_puf = 4 * 8 + 2 + 8 * (record.stages + 1);
                let expected = 10 + 8 + record.pufs.len() * per_puf + 4;
                prop_assert_eq!(encode_record(&record).len(), expected);
            }

            #[test]
            fn prop_server_round_trip_is_byte_identical(
                records in proptest::collection::vec((any::<u32>(), arb_record()), 0..4)
            ) {
                let mut server = Server::new();
                for (chip_id, mut record) in records {
                    record.chip_id = chip_id;
                    server.register(record);
                }
                let bytes = encode_server(&server);
                let restored = decode_server(&bytes).unwrap();
                prop_assert_eq!(encode_server(&restored), bytes);
            }

            #[test]
            fn prop_decoding_arbitrary_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
                // Fuzzing the decoder: any byte soup must produce Ok or Err,
                // never a panic.
                let _ = decode_records(&data);
            }

            #[test]
            fn prop_single_bit_flips_are_always_detected(
                record in arb_record(),
                flip in any::<proptest::sample::Index>(),
                bit in 0u8..8,
            ) {
                // CRC-32 detects every single-bit error, whether it lands in
                // the payload or in the trailer itself — flipped databases
                // must never decode.
                let bytes = encode_record(&record).to_vec();
                let mut corrupted = bytes.clone();
                let idx = flip.index(corrupted.len());
                corrupted[idx] ^= 1 << bit;
                prop_assert!(decode_records(&corrupted).is_err());
            }

            #[test]
            fn prop_mutated_streams_never_decode_to_the_original(
                record in arb_record(),
                splice_at in any::<proptest::sample::Index>(),
                junk in proptest::collection::vec(any::<u8>(), 1..16),
            ) {
                // Splicing arbitrary bytes into the stream (grow-in-place
                // corruption, as from a partially retried write) shifts the
                // trailer off its payload, so the checksum must catch it.
                let bytes = encode_record(&record).to_vec();
                let mut corrupted = bytes.clone();
                let at = splice_at.index(corrupted.len());
                for (k, b) in junk.iter().enumerate() {
                    corrupted.insert(at + k, *b);
                }
                prop_assert!(decode_records(&corrupted).is_err());
            }
        }
    }

    #[test]
    fn decode_error_display() {
        assert!(DecodeError::BadMagic.to_string().contains("magic"));
        assert!(DecodeError::Truncated {
            while_reading: "header"
        }
        .to_string()
        .contains("header"));
        assert!(DecodeError::TrailingBytes { extra: 3 }
            .to_string()
            .contains("3 bytes"));
        assert!(DecodeError::ChecksumMismatch {
            stored: 1,
            computed: 2
        }
        .to_string()
        .contains("checksum"));
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE CRC-32 check values (RFC 3720 appendix / zlib).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
