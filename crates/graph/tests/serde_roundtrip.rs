//! Serde roundtrips for the graph model (run with
//! `cargo test -p paraconv-graph --features serde`).

#![cfg(feature = "serde")]

use paraconv_graph::{examples, NodeId, Placement, TaskGraph};

#[test]
fn task_graph_roundtrips_through_json() {
    let g = examples::motivational();
    let json = serde_json::to_string(&g).expect("serializes");
    let back: TaskGraph = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(g, back);
    // Derived analyses agree after the roundtrip.
    assert_eq!(g.critical_path_length(), back.critical_path_length());
    assert_eq!(g.levels(), back.levels());
}

#[test]
fn ids_serialize_transparently() {
    let id = NodeId::new(7);
    assert_eq!(serde_json::to_string(&id).unwrap(), "7");
    let back: NodeId = serde_json::from_str("7").unwrap();
    assert_eq!(back, id);
}

#[test]
fn placement_roundtrip() {
    for p in [Placement::Cache, Placement::Edram] {
        let json = serde_json::to_string(&p).unwrap();
        let back: Placement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}

#[test]
fn graphs_of_every_size_roundtrip() {
    for g in [
        examples::chain(1),
        examples::chain(12),
        examples::fork_join(9),
    ] {
        let json = serde_json::to_string(&g).expect("serializes");
        let back: TaskGraph = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(g, back);
    }
}
