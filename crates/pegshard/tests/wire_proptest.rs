//! Property test: the shard-wire candidate codec is bit-exact.
//!
//! Arbitrary candidate triples `(nodes, prle, prn)`, as rows of the
//! flat partial a reply carries — with
//! probabilities drawn from **arbitrary f64 bit patterns**, so the
//! generator hits `-0.0`, subnormals, and garbage exponents, not just
//! round numbers — must encode → serialize → parse → decode to identical
//! bits. The NaN policy (documented on `pegshard::wire`) is pinned from
//! both sides: finite values round-trip exactly; non-finite values (NaN,
//! ±inf) are *rejected at decode* in each of the two probability
//! columns — their bits do cross inside the column payload, and the
//! decoder tests every value, so a NaN can never silently cross the wire.
//!
//! A partial is a header (`stride`, `n`) plus one packed payload (`cols`),
//! so the rejections are about the two disagreeing: a header that claims
//! more or fewer bytes than the payload holds — absurdly more included,
//! which must fail before anything is allocated — and a payload that is
//! not the encoder's base64. Node ids are four bytes each: ids outside
//! `u32` have no spelling left.
//!
//! The `shard_load` / `shard_update` reply body ([`ShardSummary`]) is
//! pinned the same way: arbitrary summaries round-trip exactly, and a
//! reply with any one field dropped or mistyped, or acknowledging another
//! version, is rejected rather than half-read.

use pathindex::PathMatches;
use pegshard::wire::{
    decode_retrieve_reply, decode_summary, encode_retrieve_reply, encode_summary,
};
use pegshard::{PathPartial, ShardInfo, ShardReply, ShardSummary};
use pegwire::{obj, Json};
use proptest::prelude::*;

/// f64 from raw bits: covers normals, subnormals, ±0.0, NaN payloads,
/// and infinities with positive probability each.
fn f64_from_bits(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// A partial of `stride`-node candidates holding `candidates` as
/// `(nodes, prle, prn)` rows of one flat set.
fn partial_of(
    counts: [usize; 3],
    stride: usize,
    candidates: &[(Vec<u32>, f64, f64)],
) -> PathPartial {
    let mut matches = PathMatches::new(stride);
    for (nodes, prle, prn) in candidates {
        matches.push(nodes.iter().copied(), *prle, *prn);
    }
    let [raw_total, raw_home, pruned_total] = counts;
    PathPartial { raw_total, raw_home, pruned_total, matches }
}

/// Encode, serialize to the actual wire line, parse back, decode.
fn over_the_wire(reply: &ShardReply) -> Result<ShardReply, pegshard::wire::WireError> {
    let line = encode_retrieve_reply(reply).to_string();
    decode_retrieve_reply(&Json::parse(&line).unwrap(), reply.paths.len())
}

/// The parsed reply line of a one-path reply of `n_rows` candidates of
/// `stride` nodes, every probability 0.5.
fn honest_line(stride: usize, n_rows: usize) -> Json {
    let rows: Vec<_> = (0..n_rows as u32)
        .map(|r| ((0..stride as u32).map(|i| r * 10 + i).collect(), 0.5, 0.5))
        .collect();
    let reply = ShardReply { paths: vec![partial_of([9, 9, 9], stride, &rows)] };
    Json::parse(&encode_retrieve_reply(&reply).to_string()).unwrap()
}

/// `line` with field `key` of its first partial replaced by `value`.
fn with_partial_field(line: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(mut reply) = line.clone() else { panic!("a reply is an object") };
    let paths = reply.iter_mut().find(|(k, _)| k == "paths").expect("a reply has paths");
    let Json::Arr(partials) = &mut paths.1 else { panic!("paths is an array") };
    let Json::Obj(partial) = &mut partials[0] else { panic!("a partial is an object") };
    partial.iter_mut().find(|(k, _)| k == key).expect("field present").1 = value;
    Json::Obj(reply)
}

/// The `cols` payload of `line`'s first partial.
fn cols_of(line: &Json) -> String {
    let partial = &line.get("paths").and_then(Json::as_arr).expect("paths")[0];
    partial.get("cols").and_then(Json::as_str).expect("cols is a string").to_string()
}

/// The reply line, byte for byte, so the format cannot drift unnoticed:
/// per partial the three counts, `stride`, `n`, and `cols` — the node
/// arena as little-endian `u32`s, then the `prle` and `prn` columns as
/// little-endian `f64` bits, in unpadded base64. The empty
/// partial keeps its stride.
#[test]
fn encoded_line_is_pinned_byte_for_byte() {
    let third = 1.0 / 3.0;
    let reply = ShardReply {
        paths: vec![
            partial_of(
                [5, 3, 4],
                3,
                &[(vec![7, 2, u32::MAX], 0.125, -0.0), (vec![9, 4, 0], third, 1.0)],
            ),
            partial_of([0, 0, 0], 2, &[]),
            partial_of([1, 1, 1], 1, &[(vec![12], 0.5f64.sqrt(), 1.0 - f64::EPSILON / 2.0)]),
        ],
    };
    let line = encode_retrieve_reply(&reply).to_string();
    assert_eq!(
        line,
        concat!(
            r#"{"ok":true,"paths":[{"raw_total":5,"raw_home":3,"pruned_total":4,"#,
            r#""stride":3,"n":2,"cols":"BwAAAAIAAAD/////CQAAAAQAAAAAAAAA"#,
            r#"AAAAAAAAwD9VVVVVVVXVPwAAAAAAAACAAAAAAAAA8D8"},"#,
            r#"{"raw_total":0,"raw_home":0,"pruned_total":0,"stride":2,"n":0,"cols":""},"#,
            r#"{"raw_total":1,"raw_home":1,"pruned_total":1,"#,
            r#""stride":1,"n":1,"cols":"DAAAAM07f2aeoOY/////////7z8"}]}"#
        )
    );
    let back = decode_retrieve_reply(&Json::parse(&line).unwrap(), 3).unwrap();
    let strides: Vec<usize> = back.paths.iter().map(|p| p.matches.stride()).collect();
    assert_eq!(strides, [3, 2, 1]);
    assert_eq!(back.paths[0].matches, reply.paths[0].matches);
    assert_eq!(back.paths[0].matches.prn()[0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(back.paths[2].matches, reply.paths[2].matches);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn candidate_triples_round_trip_bit_exact(
        n_nodes in 1usize..6,
        n_rows in 1usize..4,
        node_seed in any::<u64>(),
        prle_bits in any::<u64>(),
        prn_bits in any::<u64>(),
    ) {
        let (prle, prn) = (f64_from_bits(prle_bits), f64_from_bits(prn_bits));
        let rows: Vec<(Vec<u32>, f64, f64)> = (0..n_rows)
            .map(|r| {
                let nodes = (0..n_nodes)
                    .map(|i| node_seed.rotate_left((r * n_nodes + i) as u32 * 13) as u32)
                    .collect();
                (nodes, prle, prn)
            })
            .collect();
        let reply = ShardReply { paths: vec![partial_of([3, 2, 1], n_nodes, &rows)] };
        let decoded = over_the_wire(&reply);
        if prle.is_finite() && prn.is_finite() {
            let back = decoded.expect("finite triples decode");
            let (got, want) = (&back.paths[0], &reply.paths[0]);
            prop_assert_eq!(got.matches.stride(), n_nodes);
            prop_assert_eq!(got.matches.nodes(), want.matches.nodes(), "nodes survive");
            for r in 0..n_rows {
                prop_assert_eq!(got.matches.prle()[r].to_bits(), prle.to_bits(), "prle bits");
                prop_assert_eq!(got.matches.prn()[r].to_bits(), prn.to_bits(), "prn bits");
            }
        } else {
            // NaN policy: non-finite bits reach the decoder as they are and
            // must be rejected there, whichever column they sit in.
            prop_assert!(decoded.is_err(), "non-finite probability must be rejected");
        }
    }

    #[test]
    fn edge_probability_values_round_trip(
        scale in prop::sample::select(vec![
            0.0f64, -0.0, f64::MIN_POSITIVE, 4.9e-324, // smallest subnormal
            1e-300, 0.1, 1.0 / 3.0, 0.5, 1.0 - 1e-16, 1.0,
        ]),
        sign in any::<bool>(),
    ) {
        let p = if sign { scale } else { -scale };
        let reply =
            ShardReply { paths: vec![partial_of([1, 1, 1], 1, &[(vec![0], p, scale)])] };
        let back = over_the_wire(&reply).unwrap();
        prop_assert_eq!(back.paths[0].matches.prle()[0].to_bits(), p.to_bits());
        prop_assert_eq!(back.paths[0].matches.prn()[0].to_bits(), scale.to_bits());
    }

    #[test]
    fn whole_replies_round_trip(
        n_paths in 1usize..4,
        counts_seed in any::<u64>(),
        prob_bits in any::<u64>(),
    ) {
        // Finite probabilities only (the store never produces others).
        let p = f64_from_bits(prob_bits & !(0x7FFu64 << 52)); // clear exponent top: finite
        let reply = ShardReply {
            paths: (0..n_paths)
                .map(|i| {
                    let base = counts_seed.rotate_left(i as u32 * 7);
                    let counts =
                        [base & 0xFF, (base >> 8) & 0xFF, (base >> 16) & 0xFF].map(|c| c as usize);
                    // Path `i` carries `i` candidates: an empty partial too.
                    let rows: Vec<_> = (0..i as u32)
                        .map(|r| (vec![r, (base & 0xFFFF) as u32], p, -p))
                        .collect();
                    partial_of(counts, 2, &rows)
                })
                .collect(),
        };
        let line = encode_retrieve_reply(&reply).to_string();
        let parsed = Json::parse(&line).unwrap();
        let back = decode_retrieve_reply(&parsed, n_paths).unwrap();
        for (a, b) in back.paths.iter().zip(&reply.paths) {
            prop_assert_eq!(a.raw_total, b.raw_total);
            prop_assert_eq!(a.raw_home, b.raw_home);
            prop_assert_eq!(a.pruned_total, b.pruned_total);
            prop_assert_eq!(a.matches.len(), b.matches.len());
            prop_assert_eq!(a.matches.nodes(), b.matches.nodes());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(a.matches.prle()), bits(b.matches.prle()));
            prop_assert_eq!(bits(a.matches.prn()), bits(b.matches.prn()));
        }
        // Re-encoding what was decoded writes the same line.
        prop_assert_eq!(encode_retrieve_reply(&back).to_string(), line);
        // And a path-count mismatch is a protocol error.
        prop_assert!(decode_retrieve_reply(&parsed, n_paths + 1).is_err());
    }

    /// What used to be a ragged partial — rows that do not fill a strided
    /// arena — is now a header that disagrees with its payload: a claimed
    /// `stride` and `n` decode exactly when `n · (4 · stride + 16)` is the
    /// payload's byte count (two shapes can share one; which is the plan's
    /// is the gather's to say), and everything else is a length mismatch.
    #[test]
    fn shapes_that_disagree_with_their_payload_are_rejected(
        stride in 1usize..5,
        n_rows in 0usize..6,
        claimed_stride in 0usize..8,
        claimed_n in 0usize..8,
    ) {
        let line = honest_line(stride, n_rows);
        let lied = with_partial_field(&line, "stride", Json::Num(claimed_stride as f64));
        let lied = with_partial_field(&lied, "n", Json::Num(claimed_n as f64));
        let fits = claimed_stride >= 1
            && claimed_n * (4 * claimed_stride + 16) == n_rows * (4 * stride + 16);
        let decoded = decode_retrieve_reply(&lied, 1);
        prop_assert_eq!(decoded.is_ok(), fits, "stride {} n {}", claimed_stride, claimed_n);
        if let Ok(back) = decoded {
            let m = &back.paths[0].matches;
            prop_assert_eq!((m.stride(), m.len()), (claimed_stride, claimed_n));
        }
    }

    /// A header may claim anything; it must fail on a comparison, before
    /// any buffer is sized from it. Were one allocated first, `2^53`
    /// candidates would abort this test instead of failing it.
    #[test]
    fn absurd_shapes_fail_before_they_allocate(
        stride in prop::sample::select(vec![1u64, 2, 1 << 31, 1 << 53]),
        n in prop::sample::select(vec![1u64 << 32, (1 << 53) - 1, 1 << 53]),
        n_rows in 0usize..3,
    ) {
        // 2^53 · (4 · 2^53 + 16) overflows `usize`; the smaller ones do
        // not, and are merely far more than the payload holds.
        let line = honest_line(2, n_rows);
        let lied = with_partial_field(&line, "stride", Json::Num(stride as f64));
        let lied = with_partial_field(&lied, "n", Json::Num(n as f64));
        prop_assert!(decode_retrieve_reply(&lied, 1).is_err());
    }

    /// Any one character of the payload swapped for a byte outside the
    /// alphabet (padding and the URL-safe pair included), any truncation,
    /// any extension — a stock encoder's `=` padding too — and a `cols`
    /// that is not a string at all: rejected.
    #[test]
    fn payloads_that_are_not_the_encoders_base64_are_rejected(
        stride in 1usize..4,
        n_rows in 1usize..5,
        at in any::<usize>(),
        intruder in prop::sample::select(vec!['=', ' ', '-', '_', '\n', '\0', '.', 'é']),
        cut in 1usize..4,
        not_a_string in prop::sample::select(vec![Json::Null, Json::Num(7.0), Json::Arr(vec![])]),
    ) {
        let line = honest_line(stride, n_rows);
        let cols = cols_of(&line);
        let rejected = |cols: String| {
            decode_retrieve_reply(&with_partial_field(&line, "cols", Json::Str(cols)), 1).is_err()
        };
        prop_assert!(!rejected(cols.clone()), "the honest payload decodes");
        let at = at % cols.len();
        let mut swapped = cols.clone();
        swapped.replace_range(at..at + 1, &intruder.to_string());
        prop_assert!(rejected(swapped), "{:?} at {}", intruder, at);
        prop_assert!(rejected(cols[..cols.len() - cut].to_string()), "{} short", cut);
        prop_assert!(rejected(format!("{cols}{}", &cols[..cut])), "{} long", cut);
        prop_assert!(rejected(format!("{cols}{}", "=".repeat(cut))), "padded");
        prop_assert!(decode_retrieve_reply(&with_partial_field(&line, "cols", not_a_string), 1).is_err());
    }

    /// Node ids are `u32`s by construction — four payload bytes each — so
    /// every one of them, `u32::MAX` included, round-trips at any position,
    /// and the ids the old decoder had to refuse (2^32, −1, 1.5) have no
    /// spelling. Ids inside `u32` but outside the graph are the gather's to
    /// refuse: it knows the graph.
    #[test]
    fn node_ids_are_u32_by_construction(
        ids in prop::collection::vec(
            prop_oneof![any::<u32>(), Just(u32::MAX), Just(0), Just(1 << 31)],
            1..7,
        ),
    ) {
        let reply = ShardReply {
            paths: vec![partial_of([1, 1, 1], ids.len(), &[(ids.clone(), 0.5, 0.5)])],
        };
        let back = over_the_wire(&reply).unwrap();
        prop_assert_eq!(back.paths[0].matches.nodes(), &ids[..]);
    }

    #[test]
    fn shard_summaries_round_trip_and_damage_is_rejected(
        sizes in prop::collection::vec(0usize..(1 << 53), 8),
        hist in prop::collection::vec(
            (prop::collection::vec(any::<u16>(), 1..4), prop::collection::vec(any::<u32>(), 0..5)),
            0..4,
        ),
        version in 0u64..1000,
        rebuilt in any::<bool>(),
        damage in 0usize..11,
        mistype in any::<bool>(),
    ) {
        let summary = ShardSummary {
            full_nodes: sizes[0],
            full_edges: sizes[1],
            info: ShardInfo {
                nodes: sizes[2],
                owned_nodes: sizes[3],
                edges: sizes[4],
                index_entries: sizes[5],
                index_bytes: sizes[7] as u64,
            },
            hist,
            version,
            rebuilt,
            n_dirty: sizes[6],
        };
        let line = encode_summary(obj().field("ok", true), &summary).build().to_string();
        let parsed = Json::parse(&line).unwrap();
        prop_assert_eq!(&decode_summary(&parsed, version).unwrap(), &summary);
        // An acknowledgement of any other version is not this update's.
        prop_assert!(decode_summary(&parsed, version + 1).is_err());
        // Drop or mistype one summary field (index 0 is "ok"): rejected.
        let Json::Obj(mut fields) = parsed else { panic!("summary encodes as an object") };
        if mistype {
            fields[1 + damage].1 = Json::Str("x".into());
        } else {
            fields.remove(1 + damage);
        }
        prop_assert!(decode_summary(&Json::Obj(fields), version).is_err());
    }
}
