//! Engine parity across the paper's figure workloads.
//!
//! For every BSSF configuration exercised by the fig4–fig10 exhibits
//! (plain ⊇, plain ⊆, and the §5.1.3/§5.2.2 smart strategies, at each
//! figure's F/m/d_t), a facility reading through a buffer pool with a
//! pinned tier must report **identical candidate sets and identical
//! logical page-access counts** to the unbuffered one, and the unbuffered
//! facility's logical charge must be exactly its disk reads. Instances
//! run at 1/16 of the paper's scale so the whole grid stays fast; the
//! engine code paths are scale-independent.

use setsig::prelude::*;
use setsig_experiments::{EngineConfig, SimDb};
use setsig_workload::{Cardinality, Distribution, WorkloadConfig};

const SCALE: u64 = 16;

fn workload(d_t: u32) -> WorkloadConfig {
    // Mirrors the exhibits' workload(): paper N and V scaled down, same
    // seed layout so instances resemble the published runs.
    WorkloadConfig {
        n_objects: 32_000 / SCALE,
        domain: 13_000 / SCALE,
        cardinality: Cardinality::Fixed(d_t),
        distribution: Distribution::Uniform,
        seed: 0x1993_5160 + d_t as u64,
    }
}

#[derive(Clone, Copy)]
enum Strategy {
    Superset,
    Subset,
    SmartSuperset(usize),
    SmartSubset(usize),
}

/// The buffered engine the grid compares against the paper's protocol.
fn pooled() -> EngineConfig {
    EngineConfig {
        pool_pages: Some(256),
        pinned_pages: Some(32),
        ..EngineConfig::serial()
    }
}

fn assert_parity(sim: &SimDb, f: u32, m: u32, strategy: Strategy, d_qs: &[u32], tag: &str) {
    let serial = sim.build_bssf_with(f, m, EngineConfig::serial());
    let pooled = sim.build_bssf_with(f, m, pooled());
    let disk = sim.db.disk();
    let mut qg = sim.query_gen(0xF16 + f as u64 + m as u64);
    for &d_q in d_qs {
        for trial in 0..3 {
            let keys: Vec<ElementKey> = qg.random(d_q).into_iter().map(ElementKey::from).collect();
            let with_stats = |b: &setsig::prelude::Bssf| match &strategy {
                Strategy::Superset => {
                    let q = SetQuery::has_subset(keys.clone());
                    let (c, s) = b.candidates_with_stats(&q).unwrap();
                    (c, s.expect("bssf reports per-query stats"))
                }
                Strategy::Subset => {
                    let q = SetQuery::in_subset(keys.clone());
                    let (c, s) = b.candidates_with_stats(&q).unwrap();
                    (c, s.expect("bssf reports per-query stats"))
                }
                Strategy::SmartSuperset(cap) => {
                    let q = SetQuery::has_subset(keys.clone());
                    b.candidates_superset_smart(&q, *cap).unwrap()
                }
                Strategy::SmartSubset(cap) => {
                    let q = SetQuery::in_subset(keys.clone());
                    b.candidates_subset_smart(&q, *cap).unwrap()
                }
            };
            let before = disk.snapshot();
            let (cs, ss) = with_stats(&serial);
            let reads = disk.snapshot().since(before).reads;
            let (cp, sp) = with_stats(&pooled);
            assert_eq!(
                cs, cp,
                "{tag}: candidates diverged (D_q={d_q}, trial {trial})"
            );
            assert_eq!(
                ss.logical_pages, sp.logical_pages,
                "{tag}: logical pages diverged (D_q={d_q}, trial {trial})"
            );
            assert_eq!(
                ss.logical_pages, reads,
                "{tag}: charge must equal disk reads (D_q={d_q}, trial {trial})"
            );
        }
    }
}

#[test]
fn fig4_and_fig5_superset_configs_are_parity_clean() {
    let sim = SimDb::build(workload(10));
    // fig4: the two (F, m_opt) designs, ⊇ over growing D_q.
    assert_parity(
        &sim,
        250,
        17,
        Strategy::Superset,
        &[1, 2, 5, 10],
        "fig4 F=250",
    );
    assert_parity(
        &sim,
        500,
        35,
        Strategy::Superset,
        &[1, 2, 5, 10],
        "fig4 F=500",
    );
    // fig5: F = 500 with small m.
    for m in 1..=4 {
        assert_parity(&sim, 500, m, Strategy::Superset, &[2, 6], "fig5");
    }
}

#[test]
fn fig6_and_fig7_smart_superset_configs_are_parity_clean() {
    let sim10 = SimDb::build(workload(10));
    assert_parity(
        &sim10,
        250,
        2,
        Strategy::SmartSuperset(2),
        &[2, 5, 10],
        "fig6 F=250",
    );
    assert_parity(
        &sim10,
        500,
        2,
        Strategy::SmartSuperset(2),
        &[2, 5, 10],
        "fig6 F=500",
    );
    let sim100 = SimDb::build(workload(100));
    assert_parity(
        &sim100,
        1000,
        3,
        Strategy::SmartSuperset(3),
        &[5, 20],
        "fig7 F=1000",
    );
    assert_parity(
        &sim100,
        2500,
        3,
        Strategy::SmartSuperset(3),
        &[5, 20],
        "fig7 F=2500",
    );
}

#[test]
fn fig8_subset_configs_are_parity_clean() {
    let sim = SimDb::build(workload(10));
    assert_parity(&sim, 500, 2, Strategy::Subset, &[10, 50, 200], "fig8 BSSF");
    // fig8 also plots SSF; the pooled SSF scan must be identical too.
    let serial = sim.build_ssf_with(500, 2, EngineConfig::serial());
    let pooled = sim.build_ssf_with(500, 2, pooled());
    let mut qg = sim.query_gen(0xF8);
    for d_q in [10u32, 50, 200] {
        let q = SetQuery::in_subset(qg.random(d_q).into_iter().map(ElementKey::from).collect());
        let (cs, ss) = serial.candidates_with_stats(&q).unwrap();
        let (cp, sp) = pooled.candidates_with_stats(&q).unwrap();
        assert_eq!(cs, cp, "fig8 SSF: candidates diverged (D_q={d_q})");
        assert_eq!(
            ss.expect("ssf reports stats").logical_pages,
            sp.expect("ssf reports stats").logical_pages
        );
    }
}

#[test]
fn fig9_and_fig10_smart_subset_configs_are_parity_clean() {
    let sim10 = SimDb::build(workload(10));
    assert_parity(
        &sim10,
        250,
        2,
        Strategy::SmartSubset(100),
        &[10, 50],
        "fig9 F=250",
    );
    assert_parity(
        &sim10,
        500,
        2,
        Strategy::SmartSubset(150),
        &[10, 50],
        "fig9 F=500",
    );
    let sim100 = SimDb::build(workload(100));
    assert_parity(
        &sim100,
        1000,
        3,
        Strategy::SmartSubset(200),
        &[20],
        "fig10 F=1000",
    );
    assert_parity(
        &sim100,
        2500,
        3,
        Strategy::SmartSubset(300),
        &[20],
        "fig10 F=2500",
    );
}
