//! Property test: the shard-wire candidate codec is bit-exact.
//!
//! Arbitrary candidate quads `(nodes, prle, prn, bound)`, as rows of the
//! flat partial a reply carries — with
//! probabilities drawn from **arbitrary f64 bit patterns**, so the
//! generator hits `-0.0`, subnormals, and garbage exponents, not just
//! round numbers — must encode → serialize → parse → decode to identical
//! bits. The NaN policy (documented on `pegshard::wire`) is pinned from
//! both sides: finite values round-trip exactly; non-finite values (NaN,
//! ±inf) are *rejected at decode*, because the JSON writer has no
//! representation for them and emits `null`, which the decoder refuses
//! to read as a probability — a NaN can never silently cross the wire.
//!
//! The strided arena adds two rejections: a partial whose candidates
//! disagree on their node count, and node ids that are not `u32`s.
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

/// A partial holding `candidates` as `(nodes, prle, prn, bound)` rows of
/// one flat set.
fn partial_of(counts: [usize; 3], candidates: &[(Vec<u32>, f64, f64, f64)]) -> PathPartial {
    let mut matches = PathMatches::new(candidates.first().map_or(1, |c| c.0.len()));
    let mut bounds = Vec::new();
    for (nodes, prle, prn, bound) in candidates {
        matches.push(nodes.iter().copied(), *prle, *prn);
        bounds.push(*bound);
    }
    let [raw_total, raw_home, pruned_total] = counts;
    PathPartial { raw_total, raw_home, pruned_total, matches, bounds }
}

/// Encode, serialize to the actual wire line, parse back, decode.
fn over_the_wire(reply: &ShardReply) -> Result<ShardReply, pegshard::wire::WireError> {
    let line = encode_retrieve_reply(reply).to_string();
    decode_retrieve_reply(&Json::parse(&line).unwrap(), reply.paths.len())
}

/// The reply format is frozen until the benchmark harness that parses it is
/// re-baselined: the arena-walking encoder must write, byte for byte, what
/// the per-candidate encoder it replaced wrote. The expected line was
/// printed by that encoder (commit 5abdfb0) for these same three partials.
#[test]
fn encoded_text_equals_the_previous_encoders_on_a_pinned_sample() {
    let third = 1.0 / 3.0;
    let reply = ShardReply {
        paths: vec![
            partial_of(
                [5, 3, 4],
                &[(vec![7, 2, u32::MAX], 0.125, -0.0, 0.0625), (vec![9, 4, 0], third, 1.0, 0.1)],
            ),
            partial_of([0, 0, 0], &[]),
            partial_of([1, 1, 1], &[(vec![12], 0.5f64.sqrt(), 1.0 - f64::EPSILON / 2.0, 0.5)]),
        ],
    };
    assert_eq!(
        encode_retrieve_reply(&reply).to_string(),
        concat!(
            r#"{"ok":true,"paths":[{"raw_total":5,"raw_home":3,"pruned_total":4,"matches":"#,
            r#"[[[7,2,4294967295],0.125,-0,0.0625],[[9,4,0],0.3333333333333333,1,0.1]]},"#,
            r#"{"raw_total":0,"raw_home":0,"pruned_total":0,"matches":[]},"#,
            r#"{"raw_total":1,"raw_home":1,"pruned_total":1,"matches":"#,
            r#"[[[12],0.7071067811865476,0.9999999999999999,0.5]]}]}"#
        )
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn candidate_quads_round_trip_bit_exact(
        n_nodes in 1usize..6,
        n_rows in 1usize..4,
        node_seed in any::<u64>(),
        prle_bits in any::<u64>(),
        prn_bits in any::<u64>(),
        bound_bits in any::<u64>(),
    ) {
        let (prle, prn, bound) =
            (f64_from_bits(prle_bits), f64_from_bits(prn_bits), f64_from_bits(bound_bits));
        let rows: Vec<(Vec<u32>, f64, f64, f64)> = (0..n_rows)
            .map(|r| {
                let nodes = (0..n_nodes)
                    .map(|i| node_seed.rotate_left((r * n_nodes + i) as u32 * 13) as u32)
                    .collect();
                (nodes, prle, prn, bound)
            })
            .collect();
        let reply = ShardReply { paths: vec![partial_of([3, 2, 1], &rows)] };
        let decoded = over_the_wire(&reply);
        if prle.is_finite() && prn.is_finite() && bound.is_finite() {
            let back = decoded.expect("finite quads decode");
            let (got, want) = (&back.paths[0], &reply.paths[0]);
            prop_assert_eq!(got.matches.stride(), n_nodes);
            prop_assert_eq!(got.matches.nodes(), want.matches.nodes(), "nodes survive");
            for r in 0..n_rows {
                prop_assert_eq!(got.matches.prle()[r].to_bits(), prle.to_bits(), "prle bits");
                prop_assert_eq!(got.matches.prn()[r].to_bits(), prn.to_bits(), "prn bits");
                prop_assert_eq!(got.bounds[r].to_bits(), bound.to_bits(), "bound bits");
            }
        } else {
            // NaN policy: non-finite probabilities serialize as null and
            // must be rejected, not smuggled through as something else.
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
        let reply = ShardReply { paths: vec![partial_of([1, 1, 1], &[(vec![0], p, scale, p)])] };
        let back = over_the_wire(&reply).unwrap();
        prop_assert_eq!(back.paths[0].matches.prle()[0].to_bits(), p.to_bits());
        prop_assert_eq!(back.paths[0].matches.prn()[0].to_bits(), scale.to_bits());
        prop_assert_eq!(back.paths[0].bounds[0].to_bits(), p.to_bits());
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
                        .map(|r| (vec![r, (base & 0xFFFF) as u32], p, -p, -p))
                        .collect();
                    partial_of(counts, &rows)
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
            prop_assert_eq!(bits(&a.bounds), bits(&b.bounds));
        }
        // Re-encoding what was decoded writes the same line.
        prop_assert_eq!(encode_retrieve_reply(&back).to_string(), line);
        // And a path-count mismatch is a protocol error.
        prop_assert!(decode_retrieve_reply(&parsed, n_paths + 1).is_err());
    }

    /// A partial whose candidates disagree on their node count cannot fill
    /// a strided arena: the decoder rejects it wherever the odd one sits.
    #[test]
    fn ragged_partials_are_rejected(
        stride in 1usize..5,
        n_rows in 2usize..6,
        odd_row in 0usize..6,
        longer in any::<bool>(),
    ) {
        let odd_row = odd_row % n_rows;
        let odd_len = if longer { stride + 1 } else { stride - 1 };
        let rows: Vec<String> = (0..n_rows)
            .map(|r| {
                let len = if r == odd_row { odd_len } else { stride };
                let nodes: Vec<String> = (0..len).map(|i| (r * 10 + i).to_string()).collect();
                format!("[[{}],0.5,0.5,0.25]", nodes.join(","))
            })
            .collect();
        let line = format!(
            r#"{{"ok":true,"paths":[{{"raw_total":9,"raw_home":9,"pruned_total":9,"matches":[{}]}}]}}"#,
            rows.join(",")
        );
        prop_assert!(decode_retrieve_reply(&Json::parse(&line).unwrap(), 1).is_err(), "{}", line);
    }

    /// Node ids are `u32`s: anything past that, negative or fractional is
    /// refused at decode (ids inside `u32` but outside the graph are the
    /// gather's to refuse — it knows the graph).
    #[test]
    fn node_ids_outside_u32_are_rejected(
        id in prop::sample::select(vec![
            "4294967296", "18446744073709551615", "-1", "1.5", "null", "\"7\"",
        ]),
        at in 0usize..3,
    ) {
        let mut nodes = ["1", "2", "3"];
        nodes[at] = id;
        let line = format!(
            r#"{{"ok":true,"paths":[{{"raw_total":1,"raw_home":1,"pruned_total":1,"matches":[[[{}],0.5,0.5,0.25]]}}]}}"#,
            nodes.join(",")
        );
        prop_assert!(decode_retrieve_reply(&Json::parse(&line).unwrap(), 1).is_err(), "{}", line);
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
