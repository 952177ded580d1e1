//! End-to-end srclint guarantees:
//!
//! 1. every negative fixture trips **exactly** its declared rule set —
//!    the fixtures prove the rules, and the exact-match comparison
//!    proves no rule over-fires;
//! 2. the real workspace lints clean with every waiver carrying a
//!    reason — the determinism contract holds on the tree as committed;
//! 3. the model-check suite verifies and each mutation is caught.

use csalt_audit::srclint::{lint_source, lint_workspace, srclint_rules};
use csalt_audit::{fixtures, modelcheck};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn every_fixture_trips_exactly_its_rules() {
    let outcomes = fixtures::check_all();
    assert!(
        outcomes.len() >= 10,
        "fixture corpus shrank: {}",
        outcomes.len()
    );
    for o in &outcomes {
        assert!(
            o.pass,
            "fixture {} ({}): expected {:?}, got {:?}",
            o.name, o.path, o.expected, o.actual
        );
    }
}

#[test]
fn every_srclint_rule_has_a_fixture() {
    // S000–S009 must each be exercised by at least one fixture so a
    // regression that silences a rule entirely cannot pass CI.
    let exercised: Vec<String> = fixtures::check_all()
        .into_iter()
        .flat_map(|o| o.expected)
        .collect();
    for rule in srclint_rules() {
        assert!(
            exercised.iter().any(|c| c == rule.code),
            "rule {} ({}) has no negative fixture",
            rule.code,
            rule.name
        );
    }
}

#[test]
fn reasoned_waiver_is_counted_not_silenced() {
    let fx = fixtures::FIXTURES
        .iter()
        .find(|f| f.name == "reasoned_waiver")
        .expect("fixture exists");
    let parsed = fixtures::parse(fx);
    let violations = lint_source(&parsed.path, parsed.body);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].waived);
    assert!(violations[0]
        .waive_reason
        .as_deref()
        .is_some_and(|r| r.contains("wire format")));
}

#[test]
fn workspace_lints_clean_with_zero_unexplained_waivers() {
    let report = lint_workspace(workspace_root()).expect("workspace walk succeeds");
    assert!(report.files >= 50, "walked only {} files", report.files);
    assert!(
        report.clean(),
        "workspace has unwaived srclint findings:\n{}",
        report
            .violations
            .iter()
            .filter(|v| !v.waived)
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    for v in &report.violations {
        assert!(
            v.waive_reason.as_deref().is_some_and(|r| !r.is_empty()),
            "waived finding without a reason: {v}"
        );
    }
}

#[test]
fn modelcheck_suite_passes_and_mutations_are_caught() {
    let report = modelcheck::run_suite();
    assert!(report.clean(), "{:#?}", report.checks);
    let (mutations, correct): (Vec<_>, Vec<_>) = report.checks.iter().partition(|c| c.mutation);
    assert!(mutations.len() >= 4 && correct.len() >= 8);
    for c in &correct {
        assert!(c.violation.is_none(), "{}: {:?}", c.name, c.violation);
    }
    for c in &mutations {
        let v = c.violation.as_ref().expect("mutation must be caught");
        assert!(
            !v.schedule.is_empty(),
            "{}: counterexample lacks a schedule",
            c.name
        );
    }
    // "Exhaustive" has to mean something: tens of thousands of distinct
    // states and thousands of complete interleaving outcomes.
    assert!(
        report.states > 30_000,
        "only {} states explored",
        report.states
    );
    assert!(
        report.terminals > 2_000,
        "only {} terminals",
        report.terminals
    );
}
