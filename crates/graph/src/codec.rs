//! Binary round-trip codec for [`ContainmentGraph`].
//!
//! Durable session snapshots (`r2d2_core::persist`) serialize the graph
//! through this hand-written little-endian format, framed with the shared
//! [`r2d2_lake::wire`] primitives. The encoding preserves
//! everything observable about a graph — *including node-id assignment*:
//! dataset ids are written in insertion order and re-added in that order on
//! decode, so `node_of`/`dataset_of` mappings, `datasets()` order and edge
//! annotations all survive, and the decoded graph is `==` to the original.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! node_count u32 | dataset ids u64* (insertion order)
//! edge_count u32
//! per edge: parent u64 | child u64 | annotation
//! annotation: 4 optional fields, each `present u8` then the payload
//!   (f64 fraction | len-prefixed utf8 transform | f64 cost | f64 latency)
//! ```

use crate::containment::{ContainmentEdge, ContainmentGraph};
use bytes::{BufMut, Bytes, BytesMut};
use r2d2_lake::wire::{get_count, get_f64, get_opt, get_str, get_u32, get_u64, put_opt, put_str};
use r2d2_lake::{LakeError, Result};

/// Smallest encoded edge: both endpoints plus four absent-annotation bytes.
const MIN_EDGE_BYTES: usize = 20;

fn put_annotation(buf: &mut BytesMut, annotation: &ContainmentEdge) {
    let put_f64 = |buf: &mut BytesMut, x: &f64| buf.put_f64_le(*x);
    put_opt(buf, &annotation.containment_fraction, put_f64);
    put_opt(buf, &annotation.transform, |buf, s| put_str(buf, s));
    put_opt(buf, &annotation.reconstruction_cost, put_f64);
    put_opt(buf, &annotation.reconstruction_latency, put_f64);
}

fn get_annotation(buf: &mut Bytes) -> Result<ContainmentEdge> {
    let get_f64 = |buf: &mut Bytes| get_f64(buf, "edge annotation");
    Ok(ContainmentEdge {
        containment_fraction: get_opt(buf, "containment fraction", get_f64)?,
        transform: get_opt(buf, "transform", |buf| get_str(buf, "transform"))?,
        reconstruction_cost: get_opt(buf, "reconstruction cost", get_f64)?,
        reconstruction_latency: get_opt(buf, "reconstruction latency", get_f64)?,
    })
}

/// Serialize a graph into the binary format described in the module docs.
pub fn encode(graph: &ContainmentGraph) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(graph.node_count() as u32);
    for &dataset in graph.datasets() {
        buf.put_u64_le(dataset);
    }
    let edges = graph.edges();
    buf.put_u32_le(edges.len() as u32);
    for (parent, child) in edges {
        buf.put_u64_le(parent);
        buf.put_u64_le(child);
        put_annotation(
            &mut buf,
            graph.edge(parent, child).expect("edge just listed"),
        );
    }
    buf.freeze()
}

/// Deserialize a graph, reproducing node ids, edges and annotations exactly.
pub fn decode(buf: &mut Bytes) -> Result<ContainmentGraph> {
    let nodes = get_count(buf, 8, "graph nodes")?;
    let mut graph = ContainmentGraph::new();
    for _ in 0..nodes {
        graph.add_dataset(get_u64(buf, "dataset id")?);
    }
    if graph.node_count() != nodes {
        return Err(LakeError::Corrupt("graph lists a dataset id twice".into()));
    }
    let edges = get_count(buf, MIN_EDGE_BYTES, "graph edges")?;
    for _ in 0..edges {
        let parent = get_u64(buf, "edge parent")?;
        let child = get_u64(buf, "edge child")?;
        let annotation = get_annotation(buf)?;
        if graph.node_of(parent).is_none() || graph.node_of(child).is_none() {
            return Err(LakeError::Corrupt(
                "graph edge endpoint not in node list".into(),
            ));
        }
        if !graph.add_edge_with(parent, child, annotation) {
            return Err(LakeError::Corrupt("graph lists an edge twice".into()));
        }
    }
    Ok(graph)
}

// ---------------------------------------------------------------------------
// Delta codec
// ---------------------------------------------------------------------------
//
// Delta snapshot generations (`r2d2_core::persist`) re-encode only what
// changed since the previous generation. A session graph only ever *appends*
// nodes (dropped datasets keep an isolated node so node ids stay stable), so
// the node side of a delta is a pure tail — exactly like the schema-interner
// tail — while edges diff as removals plus upserts (an upsert covers both a
// new edge and an annotation change on an existing one). Like [`encode`],
// the delta encoding is canonical: equal (base, graph) pairs produce equal
// bytes.

/// Fingerprint of a [`ContainmentGraph`] for delta encoding: the insertion-
/// ordered dataset list and every edge with its annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCapture {
    datasets: Vec<u64>,
    edges: std::collections::BTreeMap<(u64, u64), ContainmentEdge>,
}

/// Capture the fingerprint a later [`encode_delta`] diffs against.
pub fn capture(graph: &ContainmentGraph) -> GraphCapture {
    GraphCapture {
        datasets: graph.datasets().to_vec(),
        edges: graph
            .edges()
            .into_iter()
            .map(|(p, c)| ((p, c), graph.edge(p, c).expect("edge just listed").clone()))
            .collect(),
    }
}

/// Serialize the difference between `graph` and a prior [`capture`] of it:
/// the base node count (verified on apply), the appended dataset ids, the
/// removed edges, and the added-or-reannotated edges in full.
///
/// The base capture's node list must be a prefix of the graph's — the
/// session invariant (nodes are only appended) guarantees it; diffing
/// against a capture of some *other* graph is a caller bug and panics in
/// debug builds.
pub fn encode_delta(graph: &ContainmentGraph, base: &GraphCapture) -> Bytes {
    debug_assert!(
        graph.datasets().starts_with(&base.datasets),
        "delta base capture is not a node-prefix of the graph"
    );
    let mut buf = BytesMut::new();
    buf.put_u32_le(base.datasets.len() as u32);
    let appended = &graph.datasets()[base.datasets.len()..];
    buf.put_u32_le(appended.len() as u32);
    for &dataset in appended {
        buf.put_u64_le(dataset);
    }
    let live: std::collections::BTreeMap<(u64, u64), &ContainmentEdge> = graph
        .edges()
        .into_iter()
        .map(|(p, c)| ((p, c), graph.edge(p, c).expect("edge just listed")))
        .collect();
    let removed: Vec<&(u64, u64)> = base
        .edges
        .keys()
        .filter(|k| !live.contains_key(k))
        .collect();
    buf.put_u32_le(removed.len() as u32);
    for &&(parent, child) in &removed {
        buf.put_u64_le(parent);
        buf.put_u64_le(child);
    }
    let upserted: Vec<(&(u64, u64), &&ContainmentEdge)> = live
        .iter()
        .filter(|(k, annotation)| base.edges.get(k) != Some(*annotation))
        .collect();
    buf.put_u32_le(upserted.len() as u32);
    for (&(parent, child), annotation) in upserted {
        buf.put_u64_le(parent);
        buf.put_u64_le(child);
        put_annotation(&mut buf, annotation);
    }
    buf.freeze()
}

/// Apply an [`encode_delta`] section on top of the base generation's decoded
/// graph: verify the node-count splice point, append the new nodes, drop the
/// removed edges, then upsert the changed ones. Any mismatch with the graph
/// being patched — wrong base count, removing an absent edge, upserting onto
/// an unknown endpoint — is a clean corruption error, never a panic.
pub fn apply_delta(graph: &mut ContainmentGraph, buf: &mut Bytes) -> Result<()> {
    let base_nodes = get_u32(buf, "delta base node count")? as usize;
    let appended = get_count(buf, 8, "appended nodes")?;
    if graph.node_count() != base_nodes {
        return Err(LakeError::Corrupt(
            "graph delta expects a different base node count".into(),
        ));
    }
    for _ in 0..appended {
        graph.add_dataset(get_u64(buf, "appended dataset id")?);
    }
    if graph.node_count() != base_nodes + appended {
        return Err(LakeError::Corrupt(
            "graph delta appends a dataset id already present".into(),
        ));
    }
    let removed = get_count(buf, 16, "removed edges")?;
    for _ in 0..removed {
        let parent = get_u64(buf, "removed edge parent")?;
        let child = get_u64(buf, "removed edge child")?;
        if graph.remove_edge(parent, child).is_none() {
            return Err(LakeError::Corrupt(
                "graph delta removes an absent edge".into(),
            ));
        }
    }
    let upserted = get_count(buf, MIN_EDGE_BYTES, "upserted edges")?;
    for _ in 0..upserted {
        let parent = get_u64(buf, "upserted edge parent")?;
        let child = get_u64(buf, "upserted edge child")?;
        let annotation = get_annotation(buf)?;
        if graph.node_of(parent).is_none() || graph.node_of(child).is_none() {
            return Err(LakeError::Corrupt(
                "graph delta upserts an edge onto an unknown endpoint".into(),
            ));
        }
        graph.remove_edge(parent, child);
        if !graph.add_edge_with(parent, child, annotation) {
            return Err(LakeError::Corrupt(
                "graph delta upserts an edge twice".into(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;

    fn sample() -> ContainmentGraph {
        // Non-contiguous dataset ids in non-sorted insertion order, so the
        // round trip must preserve the id ↔ node mapping, not re-derive it.
        let mut g = ContainmentGraph::with_datasets([7, 2, 40, 11]);
        g.add_edge(7, 2);
        g.add_edge_with(
            40,
            11,
            ContainmentEdge {
                containment_fraction: Some(0.75),
                transform: Some("WHERE ts < 100".into()),
                reconstruction_cost: Some(1.25),
                reconstruction_latency: None,
            },
        );
        g.add_edge(7, 11);
        g
    }

    #[test]
    fn round_trip_is_equal_including_node_ids() {
        let g = sample();
        let bytes = encode(&g);
        let mut cursor = bytes.clone();
        let back = decode(&mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(back, g);
        assert_eq!(back.datasets(), g.datasets());
        for &d in g.datasets() {
            assert_eq!(back.node_of(d), g.node_of(d), "node ids must be stable");
        }
        assert_eq!(
            back.edge(40, 11).unwrap().transform.as_deref(),
            Some("WHERE ts < 100")
        );
        // Canonical: re-encoding the decoded graph is bit-identical.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = ContainmentGraph::new();
        let mut cursor = encode(&g);
        assert_eq!(decode(&mut cursor).unwrap(), g);
    }

    #[test]
    fn cleared_datasets_keep_their_isolated_nodes() {
        let mut g = sample();
        g.clear_dataset(2);
        let mut cursor = encode(&g);
        let back = decode(&mut cursor).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.node_count(), 4);
        assert!(!back.has_edge(7, 2));
    }

    #[test]
    fn delta_round_trip_matches_full_encode_bit_for_bit() {
        let mut g = sample();
        let base = capture(&g);
        // Mutations since the capture: a new node + edge, a removed edge,
        // and an annotation change on a surviving edge.
        g.add_dataset(99);
        g.add_edge(11, 99);
        g.remove_edge(7, 2);
        g.remove_edge(40, 11);
        g.add_edge_with(
            40,
            11,
            ContainmentEdge {
                containment_fraction: Some(0.5),
                transform: None,
                reconstruction_cost: None,
                reconstruction_latency: Some(3.0),
            },
        );

        // Rebuild the base graph and patch it with the delta.
        let mut patched = decode(&mut encode(&sample())).unwrap();
        let delta = encode_delta(&g, &base);
        let mut cursor = delta.clone();
        apply_delta(&mut patched, &mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(patched, g);
        assert_eq!(patched.datasets(), g.datasets());
        for &d in g.datasets() {
            assert_eq!(patched.node_of(d), g.node_of(d));
        }
        // Canonical both ways: patched state full-encodes identically, and an
        // identical mutation sequence produces identical delta bytes.
        assert_eq!(encode(&patched), encode(&g));
        assert_eq!(encode_delta(&patched, &base), delta);
    }

    #[test]
    fn unchanged_graph_delta_is_empty_of_mutations() {
        let g = sample();
        let base = capture(&g);
        let delta = encode_delta(&g, &base);
        // base count + three zero mutation counts.
        assert_eq!(delta.len(), 16);
        let mut patched = sample();
        apply_delta(&mut patched, &mut delta.clone()).unwrap();
        assert_eq!(patched, g);
    }

    #[test]
    fn delta_against_wrong_base_is_a_clean_error() {
        let mut g = sample();
        let base = capture(&g);
        g.add_dataset(99);
        let delta = encode_delta(&g, &base);

        // Wrong node count at the splice point.
        let mut smaller = ContainmentGraph::with_datasets([7, 2]);
        assert!(apply_delta(&mut smaller, &mut delta.clone()).is_err());

        // Right count, but the appended id already exists.
        let mut clash = ContainmentGraph::with_datasets([7, 2, 40, 99]);
        assert!(apply_delta(&mut clash, &mut delta.clone()).is_err());

        // Removing an edge the base never had.
        let mut g2 = sample();
        let base2 = capture(&g2);
        g2.remove_edge(7, 2);
        let removal = encode_delta(&g2, &base2);
        let mut no_edges = ContainmentGraph::with_datasets([7, 2, 40, 11]);
        assert!(apply_delta(&mut no_edges, &mut removal.clone()).is_err());
    }

    #[test]
    fn corrupt_delta_blobs_are_clean_errors() {
        let mut g = sample();
        let base = capture(&g);
        g.add_dataset(99);
        g.add_edge(11, 99);
        g.remove_edge(7, 2);
        let delta = encode_delta(&g, &base);
        for cut in 0..delta.len() {
            let mut patched = sample();
            let mut cursor = delta.slice(0..cut);
            let _ = apply_delta(&mut patched, &mut cursor); // must not panic
        }
    }

    #[test]
    fn corrupt_blobs_are_clean_errors() {
        let bytes = encode(&sample());
        // Truncations at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            let mut cursor = bytes.slice(0..cut);
            if cut == 0 {
                assert!(decode(&mut cursor).is_err());
            } else {
                let _ = decode(&mut cursor); // must not panic
            }
        }
        // Edge referencing an unknown node.
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u64_le(5);
        buf.put_u32_le(1);
        buf.put_u64_le(5);
        buf.put_u64_le(99); // child never declared
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(0);
        assert!(decode(&mut buf.freeze()).is_err());
    }
}
