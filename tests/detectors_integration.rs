//! End-to-end integration tests across crates: benchmark models, trace
//! formats, windowing effects and detector agreement at workload scale.

use rapid::gen::benchmarks;
use rapid::mcm::{McmConfig, McmDetector};
use rapid::prelude::*;
use rapid::trace::format;

/// The benchmark models reproduce their Table 1 race counts exactly for WCP
/// and HB (columns 6 and 7), on a representative subset covering small,
/// lock-free, and WCP>HB (boldfaced) rows.  The full-clock reference WCP
/// (no epoch fast paths, no pooling) must find the same count.
#[test]
fn benchmark_models_reproduce_table1_race_columns() {
    for name in ["account", "airline", "array", "critical", "mergesort", "moldyn", "raytracer"] {
        let model = benchmarks::benchmark(name).expect("benchmark exists");
        let wcp = WcpDetector::new().detect(&model.trace);
        let hb = HbDetector::new().detect(&model.trace);
        assert_eq!(wcp.distinct_pairs(), model.spec.wcp_races, "{name}: WCP race pairs (column 6)");
        assert_eq!(hb.distinct_pairs(), model.spec.hb_races, "{name}: HB race pairs (column 7)");
        let mut reference =
            WcpStream::with_config(model.trace.num_threads(), rapid::wcp::WcpConfig::reference());
        for event in model.trace.events() {
            reference.on_event(event);
        }
        assert_eq!(
            reference.finish().report.distinct_pairs(),
            model.spec.wcp_races,
            "{name}: full-clock reference WCP race pairs"
        );
    }
}

/// The boldfaced Table 1 rows (eclipse, jigsaw, xalan) are exactly the ones
/// where WCP finds more races than HB.
#[test]
fn boldfaced_rows_have_wcp_exceeding_hb() {
    for name in ["eclipse", "jigsaw", "xalan"] {
        let model = benchmarks::benchmark_scaled(name, 8_000).expect("benchmark exists");
        let wcp = WcpDetector::new().detect(&model.trace).distinct_pairs();
        let hb = HbDetector::new().detect(&model.trace).distinct_pairs();
        assert!(wcp > hb, "{name}: expected WCP ({wcp}) > HB ({hb})");
        assert_eq!(wcp, model.spec.wcp_races, "{name}");
        assert_eq!(hb, model.spec.hb_races, "{name}");
    }
}

/// Unwindowed WCP finds the far-apart races that the windowed MCM baseline
/// misses (§4.3), and the windowed baseline never reports more than WCP.
#[test]
fn windowed_analysis_misses_far_races_on_large_models() {
    for name in ["moldyn", "derby"] {
        let model = benchmarks::benchmark_scaled(name, 10_000).expect("benchmark exists");
        let wcp = WcpDetector::new().detect(&model.trace).distinct_pairs();
        let windowed =
            McmDetector::new(McmConfig::new(1_000, 60)).detect(&model.trace).distinct_pairs();
        assert!(windowed < wcp, "{name}: windowed {windowed} should miss races vs WCP {wcp}");
    }
}

/// The far races embedded in the large models have distances that span most
/// of the trace, reproducing the "races millions of events apart" finding.
#[test]
fn far_races_have_large_distances() {
    let model = benchmarks::benchmark_scaled("eclipse", 10_000).expect("eclipse exists");
    let wcp = WcpDetector::new().detect(&model.trace);
    let trace_len = model.trace.len();
    assert!(
        wcp.max_distance() > trace_len / 2,
        "expected a race spanning more than half the trace, got {} of {}",
        wcp.max_distance(),
        trace_len
    );
}

/// Traces survive a round trip through the std text format with identical
/// analysis results.
#[test]
fn format_roundtrip_preserves_detector_output() {
    let model = benchmarks::benchmark_scaled("ftpserver", 3_000).expect("ftpserver exists");
    let text = format::write_std(&model.trace);
    let reparsed = format::parse_std(&text).expect("roundtrip parses");
    assert_eq!(reparsed.len(), model.trace.len());

    let original_wcp = WcpDetector::new().detect(&model.trace);
    let reparsed_wcp = WcpDetector::new().detect(&reparsed);
    assert_eq!(original_wcp.distinct_pairs(), reparsed_wcp.distinct_pairs());

    let original_hb = HbDetector::new().detect(&model.trace);
    let reparsed_hb = HbDetector::new().detect(&reparsed);
    assert_eq!(original_hb.distinct_pairs(), reparsed_hb.distinct_pairs());
}

/// The CSV flavour round-trips as well.
#[test]
fn csv_roundtrip_preserves_structure() {
    let model = benchmarks::benchmark_scaled("account", 200).expect("account exists");
    let csv = format::write_csv(&model.trace);
    let reparsed = format::parse_csv(&csv).expect("csv parses");
    assert_eq!(reparsed.len(), model.trace.len());
    assert_eq!(reparsed.stats(), model.trace.stats());
}

/// Queue occupancy stays far below the worst case on every benchmark model
/// that is long enough for the percentage to be meaningful (Table 1 column 11
/// stays under 10% on the paper's traces; the tiny IBM Contest programs have
/// so few events that a handful of queue entries already dominates the
/// denominator, so they are only required to stay under one entry per event).
#[test]
fn queue_occupancy_stays_small_on_benchmark_models() {
    for name in benchmarks::benchmark_names() {
        let model = benchmarks::benchmark_scaled(name, 5_000).expect("benchmark exists");
        let outcome = WcpDetector::new().analyze(&model.trace);
        let occupancy = outcome.stats.max_queue_percentage();
        if model.trace.len() >= 2_000 {
            assert!(
                occupancy <= 25.0,
                "{name}: queue occupancy {occupancy:.2}% is unexpectedly large"
            );
        } else {
            assert!(
                occupancy <= 100.0,
                "{name}: queue occupancy {occupancy:.2}% exceeds one entry per event"
            );
        }
    }
}

/// The FastTrack-style epoch detector and the plain vector-clock detector
/// agree on which variables are racy for every benchmark model.
#[test]
fn fasttrack_matches_djit_on_benchmark_models() {
    for name in ["account", "pingpong", "bubblesort", "ftpserver"] {
        let model = benchmarks::benchmark_scaled(name, 5_000).expect("benchmark exists");
        let vc: std::collections::BTreeSet<VarId> = HbDetector::new()
            .detect(&model.trace)
            .races()
            .iter()
            .map(|race| race.variable)
            .collect();
        let ft: std::collections::BTreeSet<VarId> = FastTrackDetector::new()
            .detect(&model.trace)
            .races()
            .iter()
            .map(|race| race.variable)
            .collect();
        assert_eq!(vc, ft, "{name}");
    }
}

/// Larger windows find at least as many races as smaller ones on workloads
/// whose races are clustered, and both bracket the WCP count from below.
#[test]
fn window_size_sweep_is_bounded_by_wcp() {
    let model = benchmarks::benchmark_scaled("ftpserver", 6_000).expect("ftpserver exists");
    let wcp = WcpDetector::new().detect(&model.trace).distinct_pairs();
    for window in [500usize, 1_000, 2_000, 10_000] {
        let races =
            McmDetector::new(McmConfig::new(window, 240)).detect(&model.trace).distinct_pairs();
        assert!(races <= wcp, "window {window}: {races} > WCP {wcp}");
    }
}
