//! Integration tests for `roccc-explore`, the design-space exploration
//! engine: beam pruning must be a pure restriction of exhaustive search
//! (an unbounded beam reproduces the exhaustive Pareto set), artifacts
//! must be byte-deterministic across runs, the memo must serve a repeat
//! sweep entirely from cache, failures must be skip-reported instead of
//! aborting, a looser area budget must score a larger unroll factor, and
//! every Table-1 kernel must yield a non-empty frontier with no dominated
//! points.

use roccc_suite::explore::{
    explore, frontier, render_json, CompileFn, ExploreConfig, Memo, Point, Space, Status,
};
use roccc_suite::ipcores::{kernels, table::benchmarks};
use roccc_suite::roccc::{CompileError, CompileOptions, UnrollStrategy};
use std::collections::HashMap;
use std::sync::Arc;

fn fir() -> (String, &'static str) {
    (kernels::fir_source(), "fir")
}

fn sweep(
    source: &str,
    function: &str,
    space: &Space,
    cfg: &ExploreConfig,
) -> roccc_suite::explore::ExploreResult {
    explore(
        source,
        function,
        &CompileOptions::default(),
        space,
        cfg,
        &Memo::new(),
    )
}

/// An unbounded beam (or a beam at least as wide as the space) must
/// reproduce the exhaustive frontier exactly — beam search only ever
/// *removes* work, never changes what the surviving candidates score.
#[test]
fn infinite_beam_matches_exhaustive_frontier() {
    let (source, function) = fir();
    let space = Space::new(&[1, 2], &[0, 2], false);
    let exhaustive = sweep(&source, function, &space, &ExploreConfig::default());
    let wide_beam = sweep(
        &source,
        function,
        &space,
        &ExploreConfig {
            beam: Some(64),
            ..ExploreConfig::default()
        },
    );
    assert!(!exhaustive.frontier.is_empty(), "fir yields a frontier");
    assert_eq!(
        exhaustive.frontier, wide_beam.frontier,
        "a beam wider than the space is exhaustive search"
    );
    // The per-candidate outcomes agree too (status and metrics).
    for (a, b) in exhaustive.reports.iter().zip(&wide_beam.reports) {
        assert_eq!(a.status, b.status, "candidate {}", a.candidate.id);
        assert_eq!(a.metrics, b.metrics, "candidate {}", a.candidate.id);
    }
}

/// Two sweeps of the same space — fresh memos, parallel workers — must
/// render byte-identical JSON artifacts: scheduling order must never
/// leak into the artifact.
#[test]
fn artifact_is_byte_deterministic() {
    let (source, function) = fir();
    let space = Space::new(&[1, 2, 4], &[0, 4], false);
    let cfg = ExploreConfig {
        workers: 4,
        budget_slices: Some(300),
        ..ExploreConfig::default()
    };
    let a = render_json(&sweep(&source, function, &space, &cfg));
    let b = render_json(&sweep(&source, function, &space, &cfg));
    assert_eq!(a, b, "same sweep, different bytes");
    assert!(a.contains("\"schema\": \"roccc-explore-v1\""));
}

/// The paper's area cut: candidates whose fast estimate exceeds the
/// budget are reported `pruned-budget`, carry their estimate, and never
/// reach the frontier.
#[test]
fn budget_prunes_and_reports() {
    let (source, function) = fir();
    let space = Space::new(&[1], &[0, 4], false);
    let unbudgeted = sweep(&source, function, &space, &ExploreConfig::default());
    let scored_areas: Vec<u64> = unbudgeted
        .reports
        .iter()
        .filter(|r| r.status == Status::Scored)
        .map(|r| r.metrics.unwrap().est_slices)
        .collect();
    assert!(
        scored_areas.len() >= 2,
        "need two scored candidates to cut between"
    );
    let cut = (scored_areas.iter().min().unwrap() + scored_areas.iter().max().unwrap()) / 2;

    let budgeted = sweep(
        &source,
        function,
        &space,
        &ExploreConfig {
            budget_slices: Some(cut),
            ..ExploreConfig::default()
        },
    );
    assert!(budgeted.stats.pruned_budget >= 1, "the cut pruned someone");
    for r in &budgeted.reports {
        if r.status == Status::PrunedBudget {
            let m = r.metrics.expect("pruned candidates keep their estimate");
            assert!(m.est_slices > cut, "pruned only above the budget");
        }
    }
    for &i in &budgeted.frontier {
        assert_eq!(budgeted.reports[i].status, Status::Scored);
    }
}

/// Explore is the one way to steer unrolling by area (§2: "Loop
/// unrolling for FPGAs requires compile time area estimation"): a looser
/// budget keeps a larger unroll factor scored, and that candidate's
/// hardware computes what the C does.
#[test]
fn looser_budget_scores_a_larger_unroll_factor() {
    let source = "void scale(int16 A[64], int16 B[64]) { int i;
      for (i = 0; i < 64; i++) { B[i] = A[i] * 11 + 3; } }";
    let space = Space::new(&[1, 2, 4, 8], &[0], false);
    let unbudgeted = sweep(source, "scale", &space, &ExploreConfig::default());
    let smallest = unbudgeted
        .reports
        .iter()
        .filter_map(|r| r.metrics.map(|m| m.est_slices))
        .min()
        .expect("scored candidates");
    let widest_scored = |budget: u64| {
        let cfg = ExploreConfig {
            budget_slices: Some(budget),
            ..ExploreConfig::default()
        };
        sweep(source, "scale", &space, &cfg)
            .reports
            .into_iter()
            .filter(|r| r.status == Status::Scored)
            .max_by_key(|r| r.candidate.unroll)
            .expect("a candidate fits the budget")
            .candidate
    };
    let tight = widest_scored(smallest);
    let loose = widest_scored(100_000);
    assert!(
        loose.unroll > tight.unroll,
        "loose budget should unroll more: {} vs {}",
        loose.unroll,
        tight.unroll
    );
    let hw = roccc::compile(source, "scale", &loose.options(&CompileOptions::default()))
        .expect("the chosen candidate compiles");
    let a: Vec<i64> = (0..64).collect();
    let arrays = HashMap::from([("A".to_string(), a.clone())]);
    let run = hw.run(&arrays, &HashMap::new()).unwrap();
    let expect: Vec<i64> = a.iter().map(|x| x * 11 + 3).collect();
    assert_eq!(run.arrays["B"], expect);
}

/// A repeat sweep against the same memo recompiles nothing: every
/// previously scored candidate is a memo hit, failures included, and the
/// frontier is unchanged.
#[test]
fn repeat_sweep_is_served_from_the_memo() {
    let (source, function) = fir();
    let space = Space::new(&[1, 2], &[0, 2, 4], false);
    let memo = Memo::new();
    let base = CompileOptions::default();
    let cfg = ExploreConfig::default();
    let first = explore(&source, function, &base, &space, &cfg, &memo);
    assert!(first.stats.scored > 0);
    let second = explore(&source, function, &base, &space, &cfg, &memo);
    assert_eq!(second.stats.scored, 0, "nothing recompiled");
    assert_eq!(
        second.stats.memo_hits,
        first.stats.scored + first.stats.memo_hits,
        "every scored candidate came back as a hit"
    );
    assert_eq!(
        second.stats.skipped, first.stats.skipped,
        "failures memoized too"
    );
    assert_eq!(first.frontier, second.frontier);
    // Hits report the identical metrics the original scoring produced.
    for (a, b) in first.reports.iter().zip(&second.reports) {
        if a.status == Status::Scored {
            assert_eq!(b.status, Status::MemoHit);
            assert_eq!(a.metrics, b.metrics);
        }
    }
}

/// A failing candidate is skip-reported with its error — including
/// fatal `deny`-level verifier findings, which surface as per-candidate
/// diagnostics — and the rest of the sweep completes normally.
#[test]
fn failures_skip_report_instead_of_aborting() {
    use roccc_suite::verify::{Diagnostic, Loc, Phase};
    let (source, function) = fir();
    // Inject a compiler that rejects unroll factor 2 with a deny-style
    // verification failure and delegates everything else.
    let compiler: CompileFn = Arc::new(|src, func, opts| {
        if opts.unroll == UnrollStrategy::Partial(2) {
            return Err(CompileError::Verify(vec![Diagnostic::error(
                Phase::SuifVm,
                "T999-test",
                Loc::None,
                "injected rejection of the u2 configuration",
            )]));
        }
        roccc::compile_timed(src, func, opts)
    });
    let space = Space::new(&[1, 2], &[0], false);
    let result = explore(
        &source,
        function,
        &CompileOptions::default(),
        &space,
        &ExploreConfig {
            compiler: Some(compiler),
            ..ExploreConfig::default()
        },
        &Memo::new(),
    );
    assert_eq!(result.stats.candidates, 2);
    assert_eq!(result.stats.scored, 1);
    assert_eq!(result.stats.skipped, 1);
    let skipped = result
        .reports
        .iter()
        .find(|r| r.status == Status::Skipped)
        .expect("the u2 candidate is reported");
    assert_eq!(skipped.candidate.unroll, 2);
    assert!(
        skipped
            .error
            .as_deref()
            .unwrap_or("")
            .contains("verification failed"),
        "error text: {:?}",
        skipped.error
    );
    assert!(
        skipped.diagnostics.iter().any(|d| d.contains("T999-test")),
        "the fatal finding is surfaced per candidate: {:?}",
        skipped.diagnostics
    );
    assert_eq!(
        result.frontier.len(),
        1,
        "the surviving candidate is the frontier"
    );
}

/// With modulo scheduling requested in the base options, the sweep
/// carries the achieved initiation interval as a fourth frontier axis:
/// the JSON artifact reports it (byte-deterministically), every scored
/// fir candidate achieves II 1 under the default unlimited-LUT
/// multiplier style, and the frontier stays mutually non-dominating on
/// all four axes.
#[test]
fn achieved_ii_is_a_frontier_axis() {
    let (source, function) = fir();
    let space = Space::new(&[1, 2], &[0, 2], false);
    let base = CompileOptions {
        pipeline_ii: Some(0),
        ..CompileOptions::default()
    };
    let cfg = ExploreConfig::default();
    let result = explore(&source, function, &base, &space, &cfg, &Memo::new());
    assert!(!result.frontier.is_empty());
    for r in &result.reports {
        if matches!(r.status, Status::Scored | Status::MemoHit) {
            let m = r.metrics.expect("scored candidates carry metrics");
            assert_eq!(
                m.achieved_ii, 1,
                "fir schedules at II 1 (candidate {})",
                r.candidate.id
            );
            assert!(m.achieved_ii >= m.min_ii);
        }
    }
    for &i in &result.frontier {
        for &j in &result.frontier {
            if i != j {
                let pi = Point::of(result.reports[i].metrics.as_ref().unwrap());
                let pj = Point::of(result.reports[j].metrics.as_ref().unwrap());
                assert!(!pi.dominates(&pj), "frontier point {i} dominates {j}");
            }
        }
    }
    let a = render_json(&result);
    let b = render_json(&explore(
        &source,
        function,
        &base,
        &space,
        &cfg,
        &Memo::new(),
    ));
    assert_eq!(a, b, "scheduled sweeps stay byte-deterministic");
    assert!(a.contains("\"achieved_ii\":1"), "artifact reports the axis");
    assert!(a.contains("\"ii\":1"), "frontier rows report the axis");
}

/// Every Table-1 kernel must produce a non-empty frontier over a small
/// unroll sweep, and the frontier must contain no dominated points.
#[test]
fn table1_kernels_yield_non_dominated_frontiers() {
    let space = Space::new(&[1, 2], &[0], false);
    for b in benchmarks() {
        let result = explore(
            &b.source,
            b.func,
            &b.opts,
            &space,
            &ExploreConfig::default(),
            &Memo::new(),
        );
        assert!(
            !result.frontier.is_empty(),
            "{}: empty frontier ({:?})",
            b.name,
            result.stats
        );
        assert_eq!(result.frontier, frontier(&result.reports), "{}", b.name);
        for &i in &result.frontier {
            for &j in &result.frontier {
                if i == j {
                    continue;
                }
                let pi = Point::of(result.reports[i].metrics.as_ref().unwrap());
                let pj = Point::of(result.reports[j].metrics.as_ref().unwrap());
                assert!(
                    !pi.dominates(&pj),
                    "{}: frontier point {i} dominates {j}",
                    b.name
                );
            }
        }
    }
}
