//! Registry contract tests: the spec grammar round-trips through both
//! string forms, and every malformed arm produces the exact diagnostic the
//! CLI shows — pinning the messages so help text and errors cannot drift.

use parfem_precond::registry::{examples, grammar_help, GRAMMAR};
use parfem_precond::{CoarseSpec, ParseSpecError, PrecondSpec};
use proptest::prelude::*;

/// Strategy: any spec the registry can print and re-parse — the one-level
/// kinds with a random degree/period, plus the two-level specs (any
/// smoothing depth × any *smoother-grammar* one-level spec — everything
/// except `gls-escalating` and `ilu0`, which have no smoother token).
fn any_spec() -> impl Strategy<Value = PrecondSpec> {
    (0usize..9, 0usize..9, 0usize..6, 0usize..40).prop_map(|(kind, passes, s, n)| match kind {
        0 => PrecondSpec::None,
        1 => PrecondSpec::Jacobi,
        2 => PrecondSpec::Gls {
            degree: n,
            theta: None,
        },
        3 => PrecondSpec::Neumann { degree: n },
        4 => PrecondSpec::Chebyshev { degree: n },
        5 => PrecondSpec::GlsEscalating { period: n + 1 },
        6 => PrecondSpec::Direct,
        7 => PrecondSpec::Ilu0,
        _ => {
            let coarse = CoarseSpec { passes };
            let smoother = match s {
                0 => PrecondSpec::None,
                1 => PrecondSpec::Jacobi,
                2 => PrecondSpec::Gls {
                    degree: n,
                    theta: None,
                },
                3 => PrecondSpec::Neumann { degree: n },
                4 => PrecondSpec::Direct,
                _ => PrecondSpec::Chebyshev { degree: n },
            };
            PrecondSpec::TwoLevel {
                coarse,
                smoother: Box::new(smoother),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(spec.name()) == spec`: the display form (paper curve labels,
    /// `gls(7)` / `gls-escalating(x5)`) is a faithful serialization.
    #[test]
    fn display_name_round_trips(spec in any_spec()) {
        prop_assert_eq!(PrecondSpec::parse(&spec.name()).unwrap(), spec);
    }

    /// `parse(spec.spec_str()) == spec`: the CLI grammar round-trips too.
    #[test]
    fn cli_spec_round_trips(spec in any_spec()) {
        prop_assert_eq!(PrecondSpec::parse(&spec.spec_str()).unwrap(), spec);
    }

    /// Whitespace padding never changes the parse.
    #[test]
    fn parse_ignores_surrounding_whitespace(spec in any_spec()) {
        let padded = format!("  {}\t", spec.spec_str());
        prop_assert_eq!(PrecondSpec::parse(&padded).unwrap(), spec);
    }
}

#[test]
fn examples_cover_every_kind_once() {
    let kinds: Vec<String> = examples()
        .iter()
        .map(|s| s.spec_str().split(':').next().unwrap().to_string())
        .collect();
    let mut unique = kinds.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), kinds.len(), "duplicate kind in examples()");
    for kind in GRAMMAR.split('|') {
        let kind = kind.split(':').next().unwrap();
        assert!(
            kinds.iter().any(|k| k == kind),
            "grammar kind {kind} missing from examples()"
        );
    }
}

#[test]
fn grammar_help_leads_with_the_grammar() {
    let help = grammar_help();
    assert!(
        help.starts_with(GRAMMAR),
        "help must open with the grammar line"
    );
    // Every registered kind is documented in the help body.
    for spec in examples() {
        let kind = spec.spec_str().split(':').next().unwrap().to_string();
        assert!(help.contains(&kind), "help text missing kind {kind}");
    }
}

// -- one test per malformed arm, pinning the exact error and its message --

#[test]
fn unknown_kind_is_rejected_with_the_grammar() {
    // Polynomials are applied in f64 only: `gls-f32` is not a kind.
    for kind in ["ssor", "gls-f32"] {
        let err = PrecondSpec::parse(&format!("{kind}:7")).unwrap_err();
        assert_eq!(err, ParseSpecError::UnknownKind(kind.into()));
        assert_eq!(
            err.to_string(),
            format!("unknown preconditioner {kind}; expected {GRAMMAR}")
        );
    }
    assert!(!GRAMMAR.contains("f32"));
}

#[test]
fn unclosed_display_form_is_rejected() {
    let err = PrecondSpec::parse("gls(7").unwrap_err();
    assert_eq!(err, ParseSpecError::UnknownKind("gls(7".into()));
}

#[test]
fn missing_degree_names_the_fix() {
    for kind in ["gls", "neumann", "chebyshev"] {
        let err = PrecondSpec::parse(kind).unwrap_err();
        assert_eq!(
            err,
            ParseSpecError::MissingDegree {
                kind: kind.to_string()
            }
        );
        assert_eq!(
            err.to_string(),
            format!("{kind} needs a degree, e.g. {kind}:7")
        );
    }
}

#[test]
fn bad_degree_names_kind_and_text() {
    let err = PrecondSpec::parse("gls:seven").unwrap_err();
    assert_eq!(
        err,
        ParseSpecError::BadDegree {
            kind: "gls".into(),
            given: "seven".into()
        }
    );
    assert_eq!(
        err.to_string(),
        "bad degree seven for gls: expected a non-negative integer"
    );
    assert!(PrecondSpec::parse("neumann:-1").is_err());
}

#[test]
fn missing_period_is_its_own_arm() {
    let err = PrecondSpec::parse("gls-escalating").unwrap_err();
    assert_eq!(err, ParseSpecError::MissingPeriod);
    assert_eq!(
        err.to_string(),
        "gls-escalating needs a period, e.g. gls-escalating:5"
    );
}

#[test]
fn bad_period_is_rejected() {
    let err = PrecondSpec::parse("gls-escalating:soon").unwrap_err();
    assert_eq!(err, ParseSpecError::BadPeriod("soon".into()));
    assert_eq!(
        err.to_string(),
        "bad period soon: expected a positive integer"
    );
}

#[test]
fn zero_period_is_rejected() {
    let err = PrecondSpec::parse("gls-escalating:0").unwrap_err();
    assert_eq!(err, ParseSpecError::ZeroPeriod);
    assert_eq!(err.to_string(), "period must be positive");
    // The display form `x0` hits the same arm.
    assert_eq!(
        PrecondSpec::parse("gls-escalating(x0)").unwrap_err(),
        ParseSpecError::ZeroPeriod
    );
}

#[test]
fn twolevel_missing_coarse_is_rejected() {
    for s in ["twolevel", "twolevel:"] {
        let err = PrecondSpec::parse(s).unwrap_err();
        assert_eq!(err, ParseSpecError::MissingCoarse);
        assert_eq!(
            err.to_string(),
            "twolevel needs a coarse space and a smoother, e.g. twolevel:rbm:gls-3"
        );
    }
}

/// What both two-level refusals advise.
const TWOLEVEL_FORM: &str = "the coarse space is rbm or rbm.sK (K >= 1 prolongator-smoothing \
                             passes), composed multiplicatively, e.g. twolevel:rbm.s3:gls-3";

#[test]
fn twolevel_bad_coarse_names_the_choices() {
    // The deleted coarse families (`const`, `lowrank-K`, smoothed or not),
    // `rbm.s0` (no-op smoothing) and `rbm.s2.s2` (nested smoothing) are
    // outside the grammar alongside the plainly malformed tokens.
    for bad in [
        "const",
        "const.s1",
        "lowrank-4",
        "lowrank-4.s2",
        "fine",
        "rbm.s0",
        "rbm.s2.s2",
        "rbm.sx",
    ] {
        let err = PrecondSpec::parse(&format!("twolevel:{bad}:gls-3")).unwrap_err();
        assert_eq!(err, ParseSpecError::BadCoarse(bad.into()));
        assert_eq!(
            err.to_string(),
            format!("bad coarse space {bad}: {TWOLEVEL_FORM}")
        );
    }
}

#[test]
fn twolevel_smoothed_coarse_round_trips() {
    for s in [
        "twolevel:rbm.s3:gls-3",
        "twolevel:rbm.s1:gls-7",
        "twolevel:rbm.s2:neumann-2",
    ] {
        let spec = PrecondSpec::parse(s).unwrap();
        assert_eq!(spec.spec_str(), s);
        assert_eq!(PrecondSpec::parse(&spec.name()).unwrap(), spec);
    }
}

#[test]
fn twolevel_missing_smoother_is_rejected() {
    let err = PrecondSpec::parse("twolevel:rbm").unwrap_err();
    assert_eq!(err, ParseSpecError::MissingSmoother);
    assert_eq!(
        err.to_string(),
        "twolevel needs a smoother, e.g. twolevel:rbm:gls-3"
    );
}

#[test]
fn twolevel_bad_smoother_names_the_choices() {
    // ILU(0) is not a smoother: it breaks down on the floating blocks a
    // coarse space exists for.
    for bad in [
        "gls",
        "gls-x",
        "ssor-2",
        "gls-escalating-5",
        "gls-f32-4",
        "ilu0",
    ] {
        let err = PrecondSpec::parse(&format!("twolevel:rbm:{bad}")).unwrap_err();
        assert_eq!(err, ParseSpecError::BadSmoother(bad.into()));
        assert_eq!(
            err.to_string(),
            format!(
                "bad smoother {bad}: expected none, jacobi, direct, gls-M, \
                 neumann-M or chebyshev-M"
            )
        );
    }
}

/// The coarse correction composes one way: a segment after the smoother —
/// the deleted `add` and `mult` included — is refused with the accepted
/// form, and the benchmark's spec parses as it always did.
#[test]
fn twolevel_bad_composition_is_rejected() {
    for (tail, given) in [
        ("add", "add"),
        ("mult", "mult"),
        ("both", "both"),
        ("add:extra", "add:extra"),
    ] {
        let spec = format!("twolevel:rbm:gls-3:{tail}");
        let err = PrecondSpec::parse(&spec).unwrap_err();
        assert_eq!(err, ParseSpecError::TrailingSegment(given.into()), "{spec}");
        assert_eq!(
            err.to_string(),
            format!("unexpected segment {given} after the smoother: {TWOLEVEL_FORM}")
        );
    }
    let bench = PrecondSpec::parse("twolevel:rbm.s3:gls-3").unwrap();
    assert_eq!(bench.spec_str(), "twolevel:rbm.s3:gls-3");
}

/// The README quotes the `--precond` grammar in a fenced block after the
/// sentence that says it cannot drift from the parser: it is
/// [`grammar_help`], line for line.
#[test]
fn readme_grammar_block_is_grammar_help() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    let intro = "so it cannot drift from the parser):\n\n```\n";
    let start = readme
        .find(intro)
        .expect("README introduces the grammar block")
        + intro.len();
    let block = &readme[start..];
    let block = &block[..block.find("```").expect("grammar block is closed")];
    let help = grammar_help();
    assert_eq!(
        block.lines().collect::<Vec<_>>(),
        help.lines().collect::<Vec<_>>()
    );
}

#[test]
fn unexpected_argument_is_rejected() {
    let err = PrecondSpec::parse("jacobi:3").unwrap_err();
    assert_eq!(
        err,
        ParseSpecError::UnexpectedArgument {
            kind: "jacobi".into(),
            given: "3".into()
        }
    );
    assert_eq!(err.to_string(), "jacobi takes no argument (got jacobi:3)");
    assert!(PrecondSpec::parse("none:1").is_err());
}
