//! Wire stability of the binary result codec backing `--store`: encode → decode →
//! re-encode is byte-identical for arbitrary results (the on-disk value bytes are a
//! stable format, not an implementation detail), the columnar decoder agrees with the
//! row decoder on every summary column, any truncation or trailing garbage is rejected as
//! a miss rather than misread, and hostile bytes — arbitrary vectors, or a valid encoding
//! with one byte flipped — never panic either decoder.

use local_engine::store::{decode_cell_columns, decode_cell_result, encode_cell_result};
use local_engine::{default_workloads, workload, CellColumns, CellResult, WorkloadSpec};
use local_graphs::{builtin_families, family, FamilySpec};
use proptest::prelude::*;

/// The workload pool the proptests draw from: every default plus parameterized kinds with
/// non-default parameters (their names carry the parameters onto the wire).
fn workload_pool() -> Vec<WorkloadSpec> {
    let mut pool = default_workloads();
    pool.push(workload("ruling-set-b5"));
    pool.push(workload("lambda4-coloring"));
    pool
}

/// The family pool: every builtin plus one of each parameterized generator shape.
fn family_pool() -> Vec<FamilySpec> {
    let mut pool = builtin_families();
    for name in
        ["gnp-d2", "gnp-d16", "regular-4", "regular-12", "forest-5", "pa-2", "unit-disk-r75"]
    {
        pool.push(family(name));
    }
    pool
}

fn arbitrary_result() -> impl Strategy<Value = CellResult> {
    let problems = workload_pool();
    let families = family_pool();
    (
        (0usize..problems.len(), 0usize..families.len(), 1usize..100_000, 0u64..64),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            move |((p, f, n, replicate), (seed, ur, um, nr, nm), (solved, valid, w, a, pr, i))| {
                CellResult {
                    problem: problems[p].name().to_string(),
                    family: families[f].name().to_string(),
                    requested_n: n,
                    n,
                    edges: n / 2,
                    replicate,
                    seed,
                    uniform_rounds: ur,
                    uniform_messages: um,
                    nonuniform_rounds: nr,
                    nonuniform_messages: nm,
                    // A quotient of arbitrary u64s covers integral, fractional, huge, and
                    // tiny floats — every bit pattern must survive the to_bits round trip.
                    overhead_ratio: ur as f64 / nr.max(1) as f64,
                    subiterations: um % 97,
                    solved,
                    valid,
                    wall_micros: w,
                    attempt_micros: a,
                    prune_micros: pr,
                    instance_micros: i,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_codec_round_trips_and_is_byte_stable(result in arbitrary_result()) {
        let encoded = encode_cell_result(&result);
        let decoded = decode_cell_result(&encoded).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &result, "value changed across the codec");
        let reencoded = encode_cell_result(&decoded);
        prop_assert_eq!(&encoded, &reencoded, "encoded bytes changed across a round trip");
    }

    #[test]
    fn columnar_decoder_agrees_with_the_row_decoder(result in arbitrary_result()) {
        let encoded = encode_cell_result(&result);
        let columns = decode_cell_columns(&encoded).expect("own encoding decodes");
        prop_assert_eq!(columns, CellColumns::from(&result));
    }

    #[test]
    fn every_truncation_and_extension_reads_as_a_miss(result in arbitrary_result(),
                                                      cut_fraction in 0.0f64..1.0) {
        let encoded = encode_cell_result(&result);
        let cut = ((encoded.len() as f64) * cut_fraction) as usize;
        // cut < len always: a strict prefix must never decode.
        prop_assert_eq!(decode_cell_result(&encoded[..cut]), None);
        prop_assert_eq!(decode_cell_columns(&encoded[..cut]), None);
        let mut padded = encoded;
        padded.push(0);
        prop_assert_eq!(decode_cell_result(&padded), None, "trailing bytes must not decode");
        prop_assert_eq!(decode_cell_columns(&padded), None);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0usize..160),
        version_one in any::<bool>(),
    ) {
        // Half the cases open with the codec's version byte, so the fuzz reaches past the
        // first check into the length prefixes, strings and columns.
        let mut bytes = bytes;
        if let (true, Some(first)) = (version_one, bytes.first_mut()) {
            *first = 1;
        }
        // Whatever the row decoder accepts, the columnar one reads the same columns from
        // (it skips the strings, so it does not check their UTF-8).
        let columns = decode_cell_columns(&bytes);
        if let Some(row) = decode_cell_result(&bytes) {
            prop_assert_eq!(columns, Some(CellColumns::from(&row)));
        }
    }

    #[test]
    fn a_flipped_byte_never_panics_and_stray_flag_bits_miss(
        result in arbitrary_result(),
        position in 0.0f64..1.0,
        mask in 0u8..255,
    ) {
        let mask = mask + 1;
        let encoded = encode_cell_result(&result);
        let mut flipped = encoded.clone();
        let at = ((flipped.len() as f64) * position) as usize;
        flipped[at] ^= mask;
        // Flipping a column byte yields another valid result; flipping a string byte may
        // yield invalid UTF-8 or a wrong length. Either way both decoders answer without
        // panicking.
        let columns = decode_cell_columns(&flipped);
        if let Some(row) = decode_cell_result(&flipped) {
            prop_assert_eq!(columns, Some(CellColumns::from(&row)));
        }
        // The flags byte is last; only its low two bits mean anything, so any set bit
        // above them must decode to a miss.
        let mut flags = encoded;
        let last = flags.len() - 1;
        flags[last] |= (mask & !0b11) | 0b100;
        prop_assert_eq!(decode_cell_result(&flags), None);
        prop_assert_eq!(decode_cell_columns(&flags), None);
    }
}
