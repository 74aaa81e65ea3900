//! Property-based acceptance of the warm-state snapshot format:
//! encode → decode → install → re-encode is the identity (including LRU
//! order, capacity bounds and lifetime eviction counters), and every
//! corruption — truncation at any byte, any single bit flip, a snapshot
//! from a different graph or model, a profile list out of order — yields
//! a *typed* cold-fallback reason, never a wrong restore and never a
//! panic. Profiles are run-length in memory, but the v1 profile section is
//! still the per-vertex sorted label listing, byte for byte.

use neursc_core::persist::model_checksum;
use neursc_core::{GraphContext, NeurSc, NeurScConfig, Recorder};
use neursc_gnn::{FeatureCache, FeatureConfig};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::traversal::khop_ball;
use neursc_graph::Graph;
use neursc_match::{ProfileCache, ProfileTable};
use neursc_nn::Tensor;
use neursc_serve::json::{self, Json};
use neursc_serve::{client, serve, snapshot, ServeConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

/// One feature-cache entry: config fields, rows, cols, cell bits.
type FeatureEntry = ((usize, usize, u32), usize, usize, Vec<u32>);

/// Everything that parameterizes one synthetic warm world.
struct World {
    graph_fp: u64,
    model_sum: u64,
    created_ms: u64,
    profile_cap: Option<usize>,
    profile_evicted: u64,
    /// Per entry: radius, per-vertex label lists.
    profiles: Vec<(u32, Vec<Vec<u32>>)>,
    feature_cap: Option<usize>,
    feature_evicted: u64,
    features: Vec<FeatureEntry>,
}

fn arb_world() -> impl Strategy<Value = World> {
    // Profiles are ascending label lists (the only kind a table holds).
    let sorted_labels = vec(any::<u32>(), 0..6).prop_map(|mut l| {
        l.sort_unstable();
        l
    });
    let profile_entry = (0u32..4, vec(sorted_labels, 0..5));
    let feature_entry = (0usize..6, 0usize..6, 0u32..4, 1usize..5, 1usize..5).prop_flat_map(
        |(db, lb, kh, rows, cols)| {
            (
                Just(((db, lb, kh), rows, cols)),
                vec(any::<u32>(), rows * cols),
            )
                .prop_map(|((cfg, rows, cols), bits)| (cfg, rows, cols, bits))
        },
    );
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        ((any::<bool>(), 1usize..6), 0u64..1_000_000),
        vec(profile_entry, 0..6),
        ((any::<bool>(), 1usize..6), 0u64..1_000_000),
        vec(feature_entry, 0..4),
    )
        .prop_map(
            |(
                (graph_fp, model_sum, created_ms),
                ((p_bounded, p_cap), profile_evicted),
                profiles,
                ((f_bounded, f_cap), feature_evicted),
                features,
            )| World {
                graph_fp,
                model_sum,
                created_ms,
                profile_cap: p_bounded.then_some(p_cap),
                profile_evicted,
                profiles,
                feature_cap: f_bounded.then_some(f_cap),
                feature_evicted,
                features,
            },
        )
}

/// Distinct per-entry fingerprint (odd multiplier ⇒ injective in the index).
fn fp_for(base: u64, i: usize) -> u64 {
    base.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn profile_cache(cap: Option<usize>) -> ProfileCache {
    match cap {
        Some(c) => ProfileCache::with_capacity(c),
        None => ProfileCache::new(),
    }
}

fn feature_cache(cap: Option<usize>) -> FeatureCache {
    match cap {
        Some(c) => FeatureCache::with_capacity(c),
        None => FeatureCache::new(),
    }
}

/// Builds live caches matching the world. A capacity smaller than the
/// entry count evicts during the build, exercising the LRU bound: the
/// snapshot then captures the survivors plus the bumped eviction counter.
fn build(w: &World) -> (ProfileCache, FeatureCache) {
    let profiles = profile_cache(w.profile_cap);
    profiles.restore_evicted_total(w.profile_evicted);
    for (i, (radius, per_vertex)) in w.profiles.iter().enumerate() {
        let table = ProfileTable::from_sorted_lists(per_vertex).unwrap();
        profiles.import(fp_for(w.graph_fp, i), *radius, Arc::new(table));
    }
    let features = feature_cache(w.feature_cap);
    features.restore_evicted_total(w.feature_evicted);
    for (i, ((db, lb, kh), rows, cols, bits)) in w.features.iter().enumerate() {
        let cfg = FeatureConfig {
            degree_bits: *db,
            label_bits: *lb,
            k_hops: *kh,
        };
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        features.import(
            fp_for(!w.graph_fp, i),
            &cfg,
            Arc::new(Tensor::from_vec(*rows, *cols, data)),
        );
    }
    (profiles, features)
}

fn encode_world(w: &World) -> Vec<u8> {
    let (profiles, features) = build(w);
    snapshot::encode(&profiles, &features, w.graph_fp, w.model_sum, w.created_ms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode → install into fresh caches → encode again is
    /// byte-identical, and the decoded header fields (capacities,
    /// eviction counters, creation time) survive exactly.
    #[test]
    fn roundtrip_is_identity(w in arb_world()) {
        let (profiles, features) = build(&w);
        let bytes = snapshot::encode(&profiles, &features, w.graph_fp, w.model_sum, w.created_ms);
        let snap = match snapshot::decode(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError(format!("decode of fresh snapshot failed: {e}"))),
        };
        prop_assert!(snap.verify(w.graph_fp, w.model_sum).is_ok());
        prop_assert_eq!(snap.created_unix_ms, w.created_ms);
        prop_assert_eq!(snap.profile_capacity, w.profile_cap);
        prop_assert_eq!(snap.feature_capacity, w.feature_cap);
        prop_assert_eq!(snap.profile_evicted, profiles.evicted_total());
        prop_assert_eq!(snap.feature_evicted, features.evicted_total());
        // The LRU bound held: never more live entries than capacity, and
        // every overflow is accounted for in the eviction counter.
        if let Some(cap) = w.profile_cap {
            prop_assert!(snap.profile_entries.len() <= cap);
            let overflow = w.profiles.len().saturating_sub(cap) as u64;
            prop_assert_eq!(snap.profile_evicted, w.profile_evicted + overflow);
        } else {
            prop_assert_eq!(snap.profile_entries.len(), w.profiles.len());
        }
        if let Some(cap) = w.feature_cap {
            prop_assert!(snap.feature_entries.len() <= cap);
        } else {
            prop_assert_eq!(snap.feature_entries.len(), w.features.len());
        }

        let p2 = profile_cache(snap.profile_capacity);
        let f2 = feature_cache(snap.feature_capacity);
        snap.install(&p2, &f2);
        prop_assert_eq!(p2.evicted_total(), snap.profile_evicted);
        prop_assert_eq!(f2.evicted_total(), snap.feature_evicted);
        let again = snapshot::encode(&p2, &f2, w.graph_fp, w.model_sum, w.created_ms);
        prop_assert!(bytes == again, "restore then re-snapshot is not byte-identical");
    }

    /// Restoring into a cache with a *smaller* bound must not panic or
    /// overfill: the LRU bound evicts as usual during install.
    #[test]
    fn restore_into_smaller_cache_respects_the_bound(w in arb_world()) {
        let bytes = encode_world(&w);
        let snap = match snapshot::decode(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError(format!("decode failed: {e}"))),
        };
        let p2 = ProfileCache::with_capacity(1);
        let f2 = FeatureCache::with_capacity(1);
        snap.install(&p2, &f2);
        prop_assert!(p2.len() <= 1);
        prop_assert!(f2.len() <= 1);
    }

    /// Truncation at any byte is a typed corruption → cold rebuild.
    #[test]
    fn truncation_at_any_byte_degrades_to_cold(w in arb_world(), frac in 0.0f64..1.0) {
        let bytes = encode_world(&w);
        let cut = ((bytes.len() as f64) * frac) as usize;
        let cut = cut.min(bytes.len() - 1);
        let e = match snapshot::decode(&bytes[..cut]) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError(format!("accepted snapshot truncated to {cut} bytes"))),
        };
        prop_assert_eq!(e.outcome(), "cold_corrupt", "cut at {}: {}", cut, e);
    }

    /// Any single bit flip — header, checksum or body — is caught and
    /// typed. (A flip in magic/version reads as a format error, anything
    /// after fails the checksum; all degrade to `cold_corrupt`.)
    #[test]
    fn any_single_bitflip_degrades_to_cold(w in arb_world(), pos in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = encode_world(&w);
        let i = (((bytes.len() - 1) as f64) * pos) as usize;
        bytes[i] ^= 1 << bit;
        let e = match snapshot::decode(&bytes) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError(format!("accepted snapshot with bit {bit} of byte {i} flipped"))),
        };
        prop_assert_eq!(e.outcome(), "cold_corrupt", "byte {} bit {}: {}", i, bit, e);
    }

    /// A structurally valid snapshot for a different graph or model is a
    /// typed mismatch — restored caches would be silently wrong.
    #[test]
    fn wrong_world_degrades_to_cold_mismatch(w in arb_world(), delta in 1u64..=u64::MAX) {
        let bytes = encode_world(&w);
        let snap = match snapshot::decode(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError(format!("decode failed: {e}"))),
        };
        let e = match snap.verify(w.graph_fp ^ delta, w.model_sum) {
            Err(e) => e,
            Ok(()) => return Err(TestCaseError("accepted snapshot for a different graph".into())),
        };
        prop_assert_eq!(e.outcome(), "cold_mismatch", "{}", e);
        let e = match snap.verify(w.graph_fp, w.model_sum ^ delta) {
            Err(e) => e,
            Ok(()) => return Err(TestCaseError("accepted snapshot for a different model".into())),
        };
        prop_assert_eq!(e.outcome(), "cold_mismatch", "{}", e);
    }
}

/// FNV-1a 64, the snapshot checksum, restated so v1 files can be built by
/// hand here.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sorted labels of `v`'s r-ball — the v1 per-vertex profile listing,
/// computed without the run-length table.
fn sorted_ball_labels(g: &Graph, v: u32, r: u32) -> Vec<u32> {
    let mut l: Vec<u32> = khop_ball(g, v, r).into_iter().map(|u| g.label(u)).collect();
    l.sort_unstable();
    l
}

/// A v1 profile section: unbounded, no evictions, the given entries.
fn v1_profile_section(entries: &[(u64, u32, Vec<Vec<u32>>)]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&0u64.to_le_bytes());
    b.extend_from_slice(&0u64.to_le_bytes());
    b.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (fp, radius, lists) in entries {
        b.extend_from_slice(&fp.to_le_bytes());
        b.extend_from_slice(&radius.to_le_bytes());
        b.extend_from_slice(&(lists.len() as u32).to_le_bytes());
        for l in lists {
            b.extend_from_slice(&(l.len() as u32).to_le_bytes());
            for &label in l {
                b.extend_from_slice(&label.to_le_bytes());
            }
        }
    }
    b
}

/// A whole v1 snapshot file around `profile_section`, with an empty,
/// unbounded feature section and a valid checksum.
fn v1_snapshot(graph_fp: u64, model_sum: u64, profile_section: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&graph_fp.to_le_bytes());
    body.extend_from_slice(&model_sum.to_le_bytes());
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(profile_section);
    body.extend_from_slice(&[0u8; 20]); // feature section: 0, 0, n = 0
    let mut out = b"NSCSNAP\n".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Run-length profiles in memory do not change the file: the profile
/// section of a fresh encode is byte-equal to the hand-built v1 listing of
/// every vertex's sorted r-ball labels.
#[test]
fn profile_section_is_the_v1_sorted_label_listing() {
    let g = erdos_renyi(60, 150, 4, 11);
    let fp = g.content_fingerprint();
    let profiles = ProfileCache::new();
    let _ = profiles.profiles(&g, 1);
    let _ = profiles.profiles(&g, 3);
    let bytes = snapshot::encode(&profiles, &FeatureCache::new(), fp, 5, 0);

    let listing = |r: u32| {
        (
            fp,
            r,
            g.vertices().map(|v| sorted_ball_labels(&g, v, r)).collect(),
        )
    };
    let expected = v1_profile_section(&[listing(1), listing(3)]);
    // Header 20 B, then three u64 identity fields; the empty feature
    // section closes the file with 20 B.
    let section = &bytes[20 + 24..bytes.len() - 20];
    assert!(
        section == expected.as_slice(),
        "profile section differs from v1 listing"
    );
    assert_eq!(bytes, v1_snapshot(fp, 5, &expected));
}

/// A checksum-valid snapshot whose profile list is out of order is typed
/// corruption: the daemon counts `cold_corrupt`, rebuilds its profiles, and
/// serves exactly the offline estimates — never ones filtered through the
/// bad list.
#[test]
fn unsorted_profile_is_corrupt_and_the_daemon_restores_cold() {
    let g = erdos_renyi(120, 360, 3, 5);
    let cfg = NeurScConfig::small();
    let r = cfg.filter.profile_radius;
    let mut lists: Vec<Vec<u32>> = g.vertices().map(|v| sorted_ball_labels(&g, v, r)).collect();
    let v = lists
        .iter()
        .position(|l| l.first() != l.last())
        .expect("some profile has two distinct labels");
    lists[v].reverse();
    let model_sum = model_checksum(&NeurSc::new(cfg.clone(), 42));
    let bytes = v1_snapshot(
        g.content_fingerprint(),
        model_sum,
        &v1_profile_section(&[(g.content_fingerprint(), r, lists)]),
    );
    let e = snapshot::decode(&bytes).expect_err("unsorted profile accepted");
    assert!(matches!(e, snapshot::SnapshotError::Corrupt { .. }), "{e}");
    assert_eq!(e.outcome(), "cold_corrupt");

    let dir = std::env::temp_dir().join(format!("neursc_unsorted_snap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm.snap");
    std::fs::write(&path, &bytes).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let queries: Vec<Graph> = (0..6)
        .map(|_| sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap())
        .collect();
    let offline = NeurSc::new(cfg.clone(), 42).estimate_batch(&queries, &g, &GraphContext::new());

    let recorder = Arc::new(Recorder::new());
    let serve_cfg = ServeConfig {
        snapshot_path: Some(path),
        ..ServeConfig::default()
    };
    let server = serve(NeurSc::new(cfg, 42), g.clone(), serve_cfg, recorder.clone()).unwrap();
    let mut c = client::Client::connect_tcp(server.local_addr()).unwrap();
    for (i, (q, off)) in queries.iter().zip(&offline).enumerate() {
        let reply =
            json::parse(&c.request(&client::estimate_request(i as u64, q)).unwrap()).unwrap();
        let est = reply
            .get("estimate")
            .and_then(Json::as_f64)
            .expect("estimate");
        let want = off.as_ref().expect("offline estimate").count;
        assert_eq!(est.to_bits(), want.to_bits(), "query {i}: {est} vs {want}");
    }
    server.shutdown();
    server.join().unwrap();
    let m = recorder.metrics().snapshot();
    assert_eq!(m.counter("snapshot.restore_outcome.cold_corrupt"), 1);
    assert_eq!(m.counter("snapshot.restore_outcome.warm"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
