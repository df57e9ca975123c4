//! Property test: the shard-wire candidate codec is bit-exact.
//!
//! Arbitrary candidate quads `(nodes, prle, prn, bound)` — with
//! probabilities drawn from **arbitrary f64 bit patterns**, so the
//! generator hits `-0.0`, subnormals, and garbage exponents, not just
//! round numbers — must encode → serialize → parse → decode to identical
//! bits. The NaN policy (documented on `pegshard::wire`) is pinned from
//! both sides: finite values round-trip exactly; non-finite values (NaN,
//! ±inf) are *rejected at decode*, because the JSON writer has no
//! representation for them and emits `null`, which the decoder refuses
//! to read as a probability — a NaN can never silently cross the wire.
//!
//! The `shard_load` / `shard_update` reply body ([`ShardSummary`]) is
//! pinned the same way: arbitrary summaries round-trip exactly, and a
//! reply with any one field dropped or mistyped, or acknowledging another
//! version, is rejected rather than half-read.

use graphstore::EntityId;
use pathindex::PathMatch;
use pegshard::wire::{
    decode_match, decode_retrieve_reply, decode_summary, encode_match, encode_retrieve_reply,
    encode_summary,
};
use pegshard::{PathPartial, ShardInfo, ShardReply, ShardSummary};
use pegwire::{obj, Json};
use proptest::prelude::*;

/// f64 from raw bits: covers normals, subnormals, ±0.0, NaN payloads,
/// and infinities with positive probability each.
fn f64_from_bits(bits: u64) -> f64 {
    f64::from_bits(bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn candidate_quads_round_trip_bit_exact(
        n_nodes in 1usize..6,
        node_seed in any::<u64>(),
        prle_bits in any::<u64>(),
        prn_bits in any::<u64>(),
        bound_bits in any::<u64>(),
    ) {
        let nodes: Vec<EntityId> = (0..n_nodes)
            .map(|i| EntityId((node_seed.rotate_left(i as u32 * 13) & 0xFFFF_FFFF) as u32))
            .collect();
        let m = PathMatch {
            nodes: nodes.clone(),
            prle: f64_from_bits(prle_bits),
            prn: f64_from_bits(prn_bits),
        };
        let bound = f64_from_bits(bound_bits);
        // Encode, serialize to the actual wire line, parse back, decode.
        let line = encode_match(&m, bound).to_string();
        let parsed = Json::parse(&line).unwrap();
        let decoded = decode_match(&parsed);
        if m.prle.is_finite() && m.prn.is_finite() && bound.is_finite() {
            let (back, back_bound) = decoded.expect("finite quad decodes");
            prop_assert_eq!(&back.nodes, &nodes, "nodes survive");
            prop_assert_eq!(back.prle.to_bits(), m.prle.to_bits(), "prle bits survive");
            prop_assert_eq!(back.prn.to_bits(), m.prn.to_bits(), "prn bits survive");
            prop_assert_eq!(back_bound.to_bits(), bound.to_bits(), "bound bits survive");
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
        let m = PathMatch { nodes: vec![EntityId(0)], prle: p, prn: scale };
        let parsed = Json::parse(&encode_match(&m, p).to_string()).unwrap();
        let (back, back_bound) = decode_match(&parsed).unwrap();
        prop_assert_eq!(back.prle.to_bits(), p.to_bits());
        prop_assert_eq!(back.prn.to_bits(), scale.to_bits());
        prop_assert_eq!(back_bound.to_bits(), p.to_bits());
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
                    PathPartial {
                        raw_total: (base & 0xFF) as usize,
                        raw_home: ((base >> 8) & 0xFF) as usize,
                        pruned_total: ((base >> 16) & 0xFF) as usize,
                        matches: vec![PathMatch {
                            nodes: vec![EntityId(i as u32), EntityId((base & 0xFFFF) as u32)],
                            prle: p,
                            prn: -p,
                        }],
                        bounds: vec![-p],
                    }
                })
                .collect(),
        };
        let parsed = Json::parse(&encode_retrieve_reply(&reply).to_string()).unwrap();
        let back = decode_retrieve_reply(&parsed, n_paths).unwrap();
        for (a, b) in back.paths.iter().zip(&reply.paths) {
            prop_assert_eq!(a.raw_total, b.raw_total);
            prop_assert_eq!(a.raw_home, b.raw_home);
            prop_assert_eq!(a.pruned_total, b.pruned_total);
            prop_assert_eq!(a.matches.len(), b.matches.len());
            for (x, y) in a.matches.iter().zip(&b.matches) {
                prop_assert_eq!(&x.nodes, &y.nodes);
                prop_assert_eq!(x.prle.to_bits(), y.prle.to_bits());
                prop_assert_eq!(x.prn.to_bits(), y.prn.to_bits());
            }
            for (x, y) in a.bounds.iter().zip(&b.bounds) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // And a path-count mismatch is a protocol error.
        prop_assert!(decode_retrieve_reply(&parsed, n_paths + 1).is_err());
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
