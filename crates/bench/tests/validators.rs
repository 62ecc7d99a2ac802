//! The headline claims of the three sweeps too slow to regenerate in a test
//! (pr7, pr8, pr9), held against their checked-in documents: each file
//! parses and validates clean, and each claim, falsified by flipping
//! fields so that the count arithmetic still holds, is the one `validate`
//! names. The pr2–pr4 validators have the same tests next to their code,
//! on freshly generated documents.

use bench::chaosbench::ChaosBenchExport;
use bench::clusterbench::ClusterBenchExport;
use bench::fleetbench::FleetBenchExport;
use bench::Export;
use simtime::SimNanos;

fn parse<E: Export>(text: &str) -> E {
    let doc: E = serde_json::from_str(text).unwrap();
    doc.validate().unwrap();
    doc
}

/// The error `validate` reports once `falsify` has edited the document.
fn rejection<E: Export>(text: &str, falsify: impl FnOnce(&mut E)) -> String {
    let mut doc = parse::<E>(text);
    falsify(&mut doc);
    doc.validate().unwrap_err()
}

fn assert_names(err: &str, claim: &str) {
    assert!(err.contains(claim), "expected '{claim}' in: {err}");
}

const PR7: &str = include_str!("../../../BENCH_pr7.json");
const PR8: &str = include_str!("../../../BENCH_pr8.json");
const PR9: &str = include_str!("../../../BENCH_pr9.json");

#[test]
fn pr7_every_rung_must_reach_its_burst_and_climb() {
    let err = rejection::<FleetBenchExport>(PR7, |doc| {
        let cell = &mut doc.cells[1];
        cell.peak_instances = cell.burst - 1;
    });
    assert_names(&err, "never reached");

    let err = rejection::<FleetBenchExport>(PR7, |doc| {
        doc.cells[0].peak_instances = doc.cells[1].peak_instances;
    });
    assert_names(&err, "not ascending");
}

#[test]
fn pr8_remote_fork_must_not_cold_boot_and_one_node_must_match_the_gateway() {
    let err = rejection::<ClusterBenchExport>(PR8, |doc| {
        let cell = doc
            .cells
            .iter_mut()
            .find(|c| c.nodes > 1 && c.placement_budget == 1 && c.policy == "remote-fork")
            .expect("the grid has a multi-node, budget-1 remote-fork cell");
        cell.remote -= 1;
        cell.cold += 1;
    });
    assert_names(&err, "cold-booted");

    let err = rejection::<ClusterBenchExport>(PR8, |doc| doc.parity.cluster_digest ^= 1);
    assert_names(&err, "diverged");
}

#[test]
fn pr9_full_failover_must_stay_reachable_and_sub_millisecond_and_the_storm_must_land() {
    fn full_failover(doc: &mut ChaosBenchExport) -> &mut bench::chaosbench::ChaosCell {
        doc.cells
            .iter_mut()
            .find(|c| c.policy == "full-failover")
            .expect("the grid has full-failover cells")
    }

    let err = rejection::<ChaosBenchExport>(PR9, |doc| full_failover(doc).unreachable = 1);
    assert_names(&err, "unreachable");

    let err = rejection::<ChaosBenchExport>(PR9, |doc| {
        full_failover(doc).startup.p99 = SimNanos::from_millis(2);
    });
    assert_names(&err, "not sub-millisecond");

    let err = rejection::<ChaosBenchExport>(PR9, |doc| doc.storm_none.hung = 0);
    assert_names(&err, "the storm missed");
}
