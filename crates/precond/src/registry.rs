//! The preconditioner registry: one spec type, one parser, one factory.
//!
//! Every consumer of a preconditioner — the CLI's `--precond` flag, the
//! distributed [`SolveSession`](https://docs.rs/parfem-dd) pipeline, the
//! bench harness and the tests — goes through this module:
//!
//! 1. [`PrecondSpec::parse`] turns a spec string (`gls:7`, `neumann:3`,
//!    `gls-escalating:5`, …) into a typed [`PrecondSpec`], with a typed
//!    [`ParseSpecError`] for every malformed arm,
//! 2. [`PrecondSpec::instantiate`] constructs the scratch-aware
//!    [`Preconditioner`] for **any** [`LinearOperator`] — the identical
//!    factory serves the sequential solver, the element-based and the
//!    row-based distributed operators,
//! 3. [`grammar_help`] renders the accepted grammar so the CLI usage text
//!    and the README document the registry itself rather than a copy.
//!
//! The parser also accepts the *display* form produced by
//! [`PrecondSpec::name`] (`gls(7)`, `gls-escalating(x5)`, `ilu(0)`), so
//! `parse(spec.name())` round-trips for every spec — pinned by proptest.

use crate::twolevel::{CoarseSolver, CoarseSpec, Composition, SpecPrecond, TwoLevelPrecond};
use crate::{
    ChebyshevPrecond, DirectPrecond, EscalatingGls, GlsPrecond, IdentityPrecond, Ilu0Precond,
    InterfaceConsistency, IntervalUnion, JacobiPrecond, NeumannPrecond, Preconditioner,
};
use parfem_sparse::{LinearOperator, SparseError, SparseLdlt, SparseRows};
use std::fmt;

/// Which preconditioner a solver should build.
#[derive(Debug, Clone, PartialEq)]
pub enum PrecondSpec {
    /// No preconditioning.
    None,
    /// Diagonal (Jacobi) preconditioning on the assembled diagonal.
    Jacobi,
    /// GLS polynomial of the given degree; `theta` defaults to the
    /// post-scaling `(ε, 1)`.
    Gls {
        /// Polynomial degree `m`.
        degree: usize,
        /// Spectrum estimate; `None` means `(ε, 1)`.
        theta: Option<IntervalUnion>,
    },
    /// Neumann series of the given degree (`ω = 1` after scaling).
    Neumann {
        /// Polynomial degree `m`.
        degree: usize,
    },
    /// Chebyshev (min-max) polynomial on the post-scaling interval.
    Chebyshev {
        /// Polynomial degree `m`.
        degree: usize,
    },
    /// Degree-escalating GLS (1→3→7→10) switching every `period`
    /// applications — the flexible-GMRES showcase. Each rank holds its own
    /// schedule state; since every rank performs the same sequence of
    /// applications, the schedules stay in lock step.
    GlsEscalating {
        /// Applications per schedule stage.
        period: usize,
    },
    /// Exact rank-local sparse direct solve (nested-dissection sparse LDLᵀ
    /// with pivot skipping — well-defined even on floating subdomains where
    /// ILU(0) hits the paper's Eq. 45 zero pivot). Needs the rank-local
    /// matrix at build time — see [`PrecondSpec::instantiate`].
    Direct,
    /// Rank-local ILU(0) of the scaled matrix: the paper's sequential
    /// comparator at one rank, block-Jacobi ILU(0) on each row-based rank's
    /// owned block. A floating element-based subdomain is singular, and
    /// its factorization can meet the Eq. 45 zero pivot, which
    /// [`PrecondSpec::instantiate`] reports. Needs the rank-local matrix at
    /// build time.
    Ilu0,
    /// Two-level preconditioning: a per-subdomain coarse space composed
    /// around a one-level smoother (`twolevel:<coarse>:<smoother>[:add]`).
    /// Needs a coarse solver at build time — see
    /// [`PrecondSpec::instantiate`].
    TwoLevel {
        /// Which coarse space to build per part.
        coarse: CoarseSpec,
        /// The one-level smoother spec (never itself `TwoLevel` when
        /// produced by the parser).
        smoother: Box<PrecondSpec>,
        /// `true` for additive composition (`:add`); multiplicative
        /// otherwise.
        additive: bool,
    },
}

/// Renders a smoother as a `twolevel` sub-segment, with `-` standing in
/// for the degree separator so the segment stays colon-free: `gls-3`,
/// `neumann-2`, `jacobi`.
fn smoother_token(spec: &PrecondSpec) -> String {
    match spec {
        PrecondSpec::None => "none".into(),
        PrecondSpec::Jacobi => "jacobi".into(),
        PrecondSpec::Gls { degree, .. } => format!("gls-{degree}"),
        PrecondSpec::Neumann { degree } => format!("neumann-{degree}"),
        PrecondSpec::Chebyshev { degree } => format!("chebyshev-{degree}"),
        PrecondSpec::Direct => "direct".into(),
        // Not parseable back (the registry rejects stateful smoothers and
        // ILU(0) inside twolevel), but printable for hand-built specs.
        PrecondSpec::Ilu0 => "ilu0".into(),
        PrecondSpec::GlsEscalating { period } => format!("gls-escalating-{period}"),
        PrecondSpec::TwoLevel { .. } => "twolevel".into(),
    }
}

/// Parses a `twolevel` smoother sub-segment (the inverse of
/// [`smoother_token`] over the accepted set).
fn parse_smoother(tok: &str) -> Result<PrecondSpec, ParseSpecError> {
    let bad = || ParseSpecError::BadSmoother(tok.to_string());
    match tok {
        "none" => Ok(PrecondSpec::None),
        "jacobi" => Ok(PrecondSpec::Jacobi),
        "direct" => Ok(PrecondSpec::Direct),
        _ => {
            let (base, deg) = tok.rsplit_once('-').ok_or_else(bad)?;
            let degree: usize = deg.parse().map_err(|_| bad())?;
            match base {
                "gls" => Ok(PrecondSpec::Gls {
                    degree,
                    theta: None,
                }),
                "neumann" => Ok(PrecondSpec::Neumann { degree }),
                "chebyshev" => Ok(PrecondSpec::Chebyshev { degree }),
                _ => Err(bad()),
            }
        }
    }
}

impl PrecondSpec {
    /// Display name matching the paper's curve labels, e.g. `gls(7)`.
    ///
    /// [`PrecondSpec::parse`] accepts this form back, so the name doubles
    /// as a serialization (modulo `theta`, which no string form carries).
    pub fn name(&self) -> String {
        match self {
            PrecondSpec::None => "none".into(),
            PrecondSpec::Jacobi => "jacobi".into(),
            PrecondSpec::Gls { degree, .. } => format!("gls({degree})"),
            PrecondSpec::Neumann { degree } => format!("neumann({degree})"),
            PrecondSpec::Chebyshev { degree } => format!("chebyshev({degree})"),
            PrecondSpec::GlsEscalating { period } => format!("gls-escalating(x{period})"),
            PrecondSpec::Direct => "direct".into(),
            PrecondSpec::Ilu0 => "ilu(0)".into(),
            PrecondSpec::TwoLevel { .. } => self.spec_str(),
        }
    }

    /// Canonical CLI spec string, e.g. `gls:7` — the form `--precond`
    /// takes. `parse(spec.spec_str()) == spec` for every spec (modulo
    /// `theta`).
    pub fn spec_str(&self) -> String {
        match self {
            PrecondSpec::None => "none".into(),
            PrecondSpec::Jacobi => "jacobi".into(),
            PrecondSpec::Gls { degree, .. } => format!("gls:{degree}"),
            PrecondSpec::Neumann { degree } => format!("neumann:{degree}"),
            PrecondSpec::Chebyshev { degree } => format!("chebyshev:{degree}"),
            PrecondSpec::GlsEscalating { period } => format!("gls-escalating:{period}"),
            PrecondSpec::Direct => "direct".into(),
            PrecondSpec::Ilu0 => "ilu0".into(),
            PrecondSpec::TwoLevel {
                coarse,
                smoother,
                additive,
            } => format!(
                "twolevel:{}:{}{}",
                coarse.token(),
                smoother_token(smoother),
                if *additive { ":add" } else { "" }
            ),
        }
    }

    /// Parses a spec string in either the CLI grammar (`gls:7`, `ilu0`) or
    /// the display form produced by [`PrecondSpec::name`] (`gls(7)`,
    /// `gls-escalating(x5)`, `ilu(0)`).
    ///
    /// # Errors
    /// Returns a typed [`ParseSpecError`] naming exactly which part of the
    /// spec is malformed.
    pub fn parse(spec: &str) -> Result<PrecondSpec, ParseSpecError> {
        let spec = spec.trim();
        // Split `kind:arg` (CLI grammar) or `kind(arg)` (display form).
        let (kind, arg) = if let Some((k, rest)) = spec.split_once('(') {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseSpecError::UnknownKind(spec.to_string()))?;
            (k, Some(inner))
        } else if let Some((k, d)) = spec.split_once(':') {
            (k, Some(d))
        } else {
            (spec, None)
        };
        let degree = |arg: Option<&str>| -> Result<usize, ParseSpecError> {
            let d = arg.ok_or(ParseSpecError::MissingDegree {
                kind: kind.to_string(),
            })?;
            d.parse().map_err(|_| ParseSpecError::BadDegree {
                kind: kind.to_string(),
                given: d.to_string(),
            })
        };
        let no_arg = |spec: PrecondSpec| -> Result<PrecondSpec, ParseSpecError> {
            match arg {
                None => Ok(spec),
                Some(a) => Err(ParseSpecError::UnexpectedArgument {
                    kind: kind.to_string(),
                    given: a.to_string(),
                }),
            }
        };
        match kind {
            "none" => no_arg(PrecondSpec::None),
            "jacobi" => no_arg(PrecondSpec::Jacobi),
            "direct" => no_arg(PrecondSpec::Direct),
            "ilu0" => no_arg(PrecondSpec::Ilu0),
            // The display form is the paper's label, `ilu(0)`, not a degree.
            "ilu" if spec == "ilu(0)" => Ok(PrecondSpec::Ilu0),
            "gls" => Ok(PrecondSpec::Gls {
                degree: degree(arg)?,
                theta: None,
            }),
            "neumann" => Ok(PrecondSpec::Neumann {
                degree: degree(arg)?,
            }),
            "chebyshev" => Ok(PrecondSpec::Chebyshev {
                degree: degree(arg)?,
            }),
            "twolevel" => {
                // `arg` holds everything after the first `:` — e.g.
                // `rbm:gls-3` or `lowrank-8:neumann-2:add`.
                let rest = arg
                    .filter(|a| !a.is_empty())
                    .ok_or(ParseSpecError::MissingCoarse)?;
                let mut segs = rest.split(':');
                let coarse_tok = segs.next().unwrap_or("");
                let coarse = CoarseSpec::parse(coarse_tok)
                    .ok_or_else(|| ParseSpecError::BadCoarse(coarse_tok.to_string()))?;
                let smoother_tok = segs.next().ok_or(ParseSpecError::MissingSmoother)?;
                let smoother = parse_smoother(smoother_tok)?;
                let additive = match segs.next() {
                    None => false,
                    Some("add") => true,
                    Some("mult") => false,
                    Some(other) => return Err(ParseSpecError::BadComposition(other.to_string())),
                };
                if let Some(extra) = segs.next() {
                    return Err(ParseSpecError::BadComposition(extra.to_string()));
                }
                Ok(PrecondSpec::TwoLevel {
                    coarse,
                    smoother: Box::new(smoother),
                    additive,
                })
            }
            "gls-escalating" => {
                let raw = arg.ok_or(ParseSpecError::MissingPeriod)?;
                // The display form writes the period as `x5`.
                let digits = raw.strip_prefix('x').unwrap_or(raw);
                let period: usize = digits
                    .parse()
                    .map_err(|_| ParseSpecError::BadPeriod(raw.to_string()))?;
                if period == 0 {
                    return Err(ParseSpecError::ZeroPeriod);
                }
                Ok(PrecondSpec::GlsEscalating { period })
            }
            _ => Err(ParseSpecError::UnknownKind(kind.to_string())),
        }
    }

    /// `true` iff building this spec requires the rank-local matrix — i.e.
    /// the spec is [`PrecondSpec::Direct`] or [`PrecondSpec::Ilu0`],
    /// directly or as a `twolevel` smoother. Callers that hold the
    /// post-scaling local matrix (the `SolveSession` rank bodies, the
    /// sequential driver) pass it to [`PrecondSpec::instantiate`]; callers
    /// that cannot supply one reject such specs up front.
    pub fn needs_local_matrix(&self) -> bool {
        match self {
            PrecondSpec::Direct | PrecondSpec::Ilu0 => true,
            PrecondSpec::TwoLevel { smoother, .. } => smoother.needs_local_matrix(),
            _ => false,
        }
    }

    /// Builds this spec as a [`SpecPrecond`] from everything a caller can
    /// supply: a coarse solver (for two-level specs) and the rank-local
    /// post-scaling matrix (for [`PrecondSpec::Direct`] and
    /// [`PrecondSpec::Ilu0`], standalone or as a `twolevel` smoother). Specs
    /// needing neither ignore both arguments.
    ///
    /// `diag` supplies the **assembled** operator diagonal and is invoked
    /// only when the spec actually needs it (Jacobi) — in the distributed
    /// solvers it hides an interface sum, so laziness matters.
    ///
    /// The result names no operator type, so one preconditioner serves a
    /// loop of solves whose operator borrows differ per iteration (the
    /// session's right-hand sides and Newmark steps).
    ///
    /// # Errors
    /// [`SparseError::ZeroPivot`] when ILU(0) of `local` breaks down — the
    /// paper's Eq. 45 failure on a floating subdomain.
    ///
    /// # Panics
    /// Panics when the spec is [`PrecondSpec::TwoLevel`] but `coarse` is
    /// `None`, or [`PrecondSpec::needs_local_matrix`] but `local` is
    /// `None`.
    pub fn instantiate<A: SparseRows + ?Sized>(
        &self,
        coarse: Option<CoarseSolver>,
        local: Option<&A>,
        diag: impl FnOnce() -> Vec<f64>,
    ) -> Result<SpecPrecond, SparseError> {
        let (one_level, additive) = match self {
            PrecondSpec::TwoLevel {
                smoother, additive, ..
            } => (&**smoother, Some(*additive)),
            _ => (self, None),
        };
        let built = match one_level {
            PrecondSpec::None => BuiltPrecond::None(IdentityPrecond),
            PrecondSpec::Jacobi => BuiltPrecond::Jacobi(JacobiPrecond::from_diagonal(&diag())),
            PrecondSpec::Gls { degree, theta } => {
                let t = theta.clone().unwrap_or_else(IntervalUnion::unit);
                BuiltPrecond::Gls(GlsPrecond::new(*degree, t))
            }
            PrecondSpec::Neumann { degree } => {
                BuiltPrecond::Neumann(NeumannPrecond::for_scaled_system(*degree))
            }
            PrecondSpec::Chebyshev { degree } => {
                BuiltPrecond::Chebyshev(ChebyshevPrecond::for_scaled_system(*degree))
            }
            PrecondSpec::GlsEscalating { period } => {
                BuiltPrecond::Escalating(EscalatingGls::default_for_scaled_system(*period))
            }
            PrecondSpec::Direct => BuiltPrecond::Direct(DirectPrecond::new(
                local.expect("direct spec requires the rank-local matrix at build time"),
            )),
            PrecondSpec::Ilu0 => BuiltPrecond::Ilu0(Ilu0Precond::factorize(
                local.expect("ilu0 spec requires the rank-local matrix at build time"),
            )?),
            PrecondSpec::TwoLevel { .. } => panic!(
                "two-level spec `{}` cannot smooth with another two-level spec",
                self.name()
            ),
        };
        Ok(match additive {
            None => SpecPrecond::Plain(built),
            Some(additive) => {
                let solver = coarse.unwrap_or_else(|| {
                    panic!("two-level spec `{}` requires a coarse solver", self.name())
                });
                let composition = if additive {
                    Composition::Additive
                } else {
                    Composition::Multiplicative
                };
                SpecPrecond::TwoLevel(TwoLevelPrecond::new(
                    built,
                    solver,
                    composition,
                    self.name(),
                ))
            }
        })
    }
}

/// A registry-built preconditioner as one concrete (operator-free) value.
///
/// Every variant wraps one concrete preconditioner; the
/// [`Preconditioner`] impl delegates method-for-method.
pub enum BuiltPrecond {
    /// [`PrecondSpec::None`].
    None(IdentityPrecond),
    /// [`PrecondSpec::Jacobi`].
    Jacobi(JacobiPrecond),
    /// [`PrecondSpec::Gls`].
    Gls(GlsPrecond),
    /// [`PrecondSpec::Neumann`].
    Neumann(NeumannPrecond),
    /// [`PrecondSpec::Chebyshev`].
    Chebyshev(ChebyshevPrecond),
    /// [`PrecondSpec::GlsEscalating`].
    Escalating(EscalatingGls),
    /// [`PrecondSpec::Direct`].
    Direct(DirectPrecond),
    /// [`PrecondSpec::Ilu0`].
    Ilu0(Ilu0Precond),
}

impl BuiltPrecond {
    /// The subdomain factorization, when this is the `direct` spec.
    pub fn subdomain_factor(&self) -> Option<&SparseLdlt> {
        match self {
            BuiltPrecond::Direct(p) => Some(p.factor()),
            _ => None,
        }
    }
}

macro_rules! delegate {
    ($self:ident, $p:pat => $e:expr) => {
        match $self {
            BuiltPrecond::None($p) => $e,
            BuiltPrecond::Jacobi($p) => $e,
            BuiltPrecond::Gls($p) => $e,
            BuiltPrecond::Neumann($p) => $e,
            BuiltPrecond::Chebyshev($p) => $e,
            BuiltPrecond::Escalating($p) => $e,
            BuiltPrecond::Direct($p) => $e,
            BuiltPrecond::Ilu0($p) => $e,
        }
    };
}

impl<Op: LinearOperator + InterfaceConsistency + ?Sized> Preconditioner<Op> for BuiltPrecond {
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        delegate!(self, p => p.apply_into(op, v, z))
    }

    fn scratch_vectors(&self) -> usize {
        delegate!(self, p => Preconditioner::<Op>::scratch_vectors(p))
    }

    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        delegate!(self, p => p.apply_scratch(op, v, z, scratch))
    }

    fn operator_applications(&self) -> usize {
        delegate!(self, p => Preconditioner::<Op>::operator_applications(p))
    }

    fn current_operator_applications(&self) -> usize {
        delegate!(self, p => Preconditioner::<Op>::current_operator_applications(p))
    }

    fn name(&self) -> String {
        delegate!(self, p => Preconditioner::<Op>::name(p))
    }
}

/// A malformed preconditioner spec string — one arm per way to get the
/// grammar wrong, each with an error message that names the fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSpecError {
    /// The kind (the part before `:`) is not in the registry.
    UnknownKind(String),
    /// A polynomial kind came without its degree (`gls`, not `gls:7`).
    MissingDegree {
        /// The kind that needs a degree.
        kind: String,
    },
    /// The degree is not a non-negative integer.
    BadDegree {
        /// The kind whose degree is malformed.
        kind: String,
        /// The malformed degree text.
        given: String,
    },
    /// `gls-escalating` came without its period.
    MissingPeriod,
    /// The escalation period is not a positive integer.
    BadPeriod(String),
    /// The escalation period is zero (the schedule would never advance).
    ZeroPeriod,
    /// An argument was given to a kind that takes none (`none`, `jacobi`).
    UnexpectedArgument {
        /// The argument-free kind.
        kind: String,
        /// The spurious argument.
        given: String,
    },
    /// `twolevel` came without its coarse segment (`twolevel`, not
    /// `twolevel:rbm:gls-3`).
    MissingCoarse,
    /// The coarse segment is not `const`, `rbm` or `lowrank-K` (K ≥ 1).
    BadCoarse(String),
    /// `twolevel:<coarse>` came without its smoother segment.
    MissingSmoother,
    /// The smoother segment is not in the accepted one-level set
    /// (`none`, `jacobi`, `direct`, `gls-M`, `neumann-M`, `chebyshev-M`).
    BadSmoother(String),
    /// The composition segment is not `add` or `mult` (or the spec has
    /// trailing segments).
    BadComposition(String),
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::UnknownKind(kind) => {
                write!(f, "unknown preconditioner {kind}; expected {GRAMMAR}")
            }
            ParseSpecError::MissingDegree { kind } => {
                write!(f, "{kind} needs a degree, e.g. {kind}:7")
            }
            ParseSpecError::BadDegree { kind, given } => {
                write!(
                    f,
                    "bad degree {given} for {kind}: expected a non-negative integer"
                )
            }
            ParseSpecError::MissingPeriod => {
                write!(f, "gls-escalating needs a period, e.g. gls-escalating:5")
            }
            ParseSpecError::BadPeriod(given) => {
                write!(f, "bad period {given}: expected a positive integer")
            }
            ParseSpecError::ZeroPeriod => write!(f, "period must be positive"),
            ParseSpecError::UnexpectedArgument { kind, given } => {
                write!(f, "{kind} takes no argument (got {kind}:{given})")
            }
            ParseSpecError::MissingCoarse => {
                write!(
                    f,
                    "twolevel needs a coarse space and a smoother, e.g. twolevel:rbm:gls-3"
                )
            }
            ParseSpecError::BadCoarse(given) => {
                write!(
                    f,
                    "bad coarse space {given}: expected const, rbm or lowrank-K \
                     (K >= 1), optionally .sK for K prolongator-smoothing passes"
                )
            }
            ParseSpecError::MissingSmoother => {
                write!(f, "twolevel needs a smoother, e.g. twolevel:rbm:gls-3")
            }
            ParseSpecError::BadSmoother(given) => {
                write!(
                    f,
                    "bad smoother {given}: expected none, jacobi, direct, gls-M, \
                     neumann-M or chebyshev-M"
                )
            }
            ParseSpecError::BadComposition(given) => {
                write!(f, "bad composition {given}: expected add or mult")
            }
        }
    }
}

impl std::error::Error for ParseSpecError {}

/// The accepted `--precond` grammar, one spec per alternative.
pub const GRAMMAR: &str = "none|jacobi|direct|ilu0|gls:M|neumann:M|chebyshev:M|\
                           gls-escalating:PERIOD|twolevel:COARSE:SMOOTHER[:add]";

/// Multi-line help text for the grammar — rendered by the CLI usage screen
/// and quoted by the README, so the documentation always matches the
/// parser.
pub fn grammar_help() -> String {
    format!(
        "{GRAMMAR}\n\
         none                 unpreconditioned FGMRES\n\
         jacobi               assembled-diagonal scaling\n\
         direct               exact rank-local sparse direct solve (nested-dissection LDLt;\n\
                              pivot-tolerant on floating subdomains where ILU(0) fails)\n\
         ilu0                 rank-local ILU(0): the sequential comparator at one rank,\n\
                              block-Jacobi ILU(0) under rdd; may meet a zero pivot on\n\
                              floating edd subdomains (the paper's Eq. 45)\n\
         gls:M                degree-M generalized least-squares polynomial on (eps, 1)\n\
         neumann:M            degree-M Neumann series (omega = 1 after scaling)\n\
         chebyshev:M          degree-M Chebyshev (min-max) polynomial\n\
         gls-escalating:P     GLS degree schedule 1->3->7->10, advancing every P applies\n\
         twolevel:C:S         coarse space C (const|rbm|lowrank-K, each optionally .sK\n\
                              for K prolongator-smoothing passes, e.g. rbm.s3) around\n\
                              smoother S (none, jacobi, direct, gls-M, neumann-M,\n\
                              chebyshev-M); multiplicative unless :add is appended"
    )
}

/// Every registered spec kind with a representative example — the registry
/// enumerates itself for tests and docs.
pub fn examples() -> Vec<PrecondSpec> {
    vec![
        PrecondSpec::None,
        PrecondSpec::Jacobi,
        PrecondSpec::Gls {
            degree: 7,
            theta: None,
        },
        PrecondSpec::Neumann { degree: 3 },
        PrecondSpec::Chebyshev { degree: 8 },
        PrecondSpec::GlsEscalating { period: 5 },
        PrecondSpec::Direct,
        PrecondSpec::Ilu0,
        PrecondSpec::TwoLevel {
            coarse: CoarseSpec::Rbm,
            smoother: Box::new(PrecondSpec::Gls {
                degree: 3,
                theta: None,
            }),
            additive: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_sparse::CsrMatrix;

    #[test]
    fn parses_cli_grammar() {
        assert_eq!(PrecondSpec::parse("none").unwrap(), PrecondSpec::None);
        assert_eq!(PrecondSpec::parse("jacobi").unwrap(), PrecondSpec::Jacobi);
        assert_eq!(
            PrecondSpec::parse("gls:7").unwrap(),
            PrecondSpec::Gls {
                degree: 7,
                theta: None
            }
        );
        assert_eq!(
            PrecondSpec::parse("neumann:3").unwrap(),
            PrecondSpec::Neumann { degree: 3 }
        );
        assert_eq!(
            PrecondSpec::parse("chebyshev:12").unwrap(),
            PrecondSpec::Chebyshev { degree: 12 }
        );
        assert_eq!(
            PrecondSpec::parse("gls-escalating:5").unwrap(),
            PrecondSpec::GlsEscalating { period: 5 }
        );
    }

    #[test]
    fn parses_display_names_back() {
        for spec in examples() {
            assert_eq!(PrecondSpec::parse(&spec.name()).unwrap(), spec);
            assert_eq!(PrecondSpec::parse(&spec.spec_str()).unwrap(), spec);
        }
    }

    #[test]
    fn builds_every_example_against_a_csr_operator() {
        let a = CsrMatrix::identity(4);
        for spec in examples() {
            if matches!(spec, PrecondSpec::TwoLevel { .. }) {
                // Two-level specs need a coarse solver — covered below.
                continue;
            }
            let pc = spec.instantiate(None, Some(&a), || a.diagonal()).unwrap();
            let z = Preconditioner::<CsrMatrix>::apply(&pc, &a, &[1.0, 2.0, 3.0, 4.0]);
            assert_eq!(z.len(), 4);
            assert!(z.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn direct_instantiates_from_a_local_matrix() {
        let a = CsrMatrix::identity(4);
        let spec = PrecondSpec::parse("direct").unwrap();
        assert!(spec.needs_local_matrix());
        assert!(!matches!(spec, PrecondSpec::TwoLevel { .. }));
        let pc = spec.instantiate(None, Some(&a), || a.diagonal()).unwrap();
        let z = Preconditioner::<CsrMatrix>::apply(&pc, &a, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(z, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(Preconditioner::<CsrMatrix>::name(&pc), "direct");
    }

    #[test]
    fn ilu0_instantiates_from_a_local_matrix_or_reports_the_zero_pivot() {
        for text in ["ilu0", "ilu(0)"] {
            assert_eq!(PrecondSpec::parse(text).unwrap(), PrecondSpec::Ilu0);
        }
        assert!(PrecondSpec::Ilu0.needs_local_matrix());
        let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0]);
        let pc = PrecondSpec::Ilu0.instantiate(None, Some(&a), || a.diagonal());
        let z = Preconditioner::<CsrMatrix>::apply(&pc.unwrap(), &a, &a.spmv(&[1.0, 2.0]));
        assert!((z[0] - 1.0).abs() < 1e-12 && (z[1] - 2.0).abs() < 1e-12);
        // A floating block: the paper's Eq. 45 failure, typed.
        let floating = CsrMatrix::from_dense(2, 2, &[1.0, -1.0, -1.0, 1.0]);
        assert!(matches!(
            PrecondSpec::Ilu0.instantiate(None, Some(&floating), || floating.diagonal()),
            Err(SparseError::ZeroPivot { row: 1, .. })
        ));
    }

    #[test]
    fn instantiates_twolevel_examples_with_a_coarse() {
        use crate::twolevel::{build_coarse_basis, CoarsePartGeometry};
        let a = CsrMatrix::identity(4);
        let parts: Vec<CoarsePartGeometry> = (0..2)
            .map(|p| CoarsePartGeometry {
                dofs: vec![2 * p, 2 * p + 1],
                pos: vec![[p as f64, 0.0, 0.0], [p as f64, 1.0, 0.0]],
                comp: vec![0, 0],
                constrained: vec![false, false],
            })
            .collect();
        let mult = vec![1.0; 4];
        let d = vec![1.0; 4];
        let two_level = |s: &PrecondSpec| matches!(s, PrecondSpec::TwoLevel { .. });
        for spec in examples().into_iter().filter(two_level) {
            let PrecondSpec::TwoLevel { coarse, .. } = &spec else {
                unreachable!()
            };
            let basis = build_coarse_basis(coarse, &parts, &mult, &d, &a, 1e-12);
            let local = spec.needs_local_matrix().then_some(&a);
            let pc = spec
                .instantiate(Some(basis.solver(None)), local, || a.diagonal())
                .unwrap();
            let z = Preconditioner::<CsrMatrix>::apply(&pc, &a, &[1.0, 2.0, 3.0, 4.0]);
            assert_eq!(z.len(), 4);
            assert!(z.iter().all(|v| v.is_finite()));
            assert_eq!(Preconditioner::<CsrMatrix>::name(&pc), spec.name());
        }
    }

    #[test]
    fn twolevel_direct_smoother_round_trips_and_instantiates() {
        use crate::twolevel::{build_coarse_basis, CoarsePartGeometry};
        let spec = PrecondSpec::parse("twolevel:rbm:direct").unwrap();
        assert!(matches!(spec, PrecondSpec::TwoLevel { .. }));
        assert!(spec.needs_local_matrix());
        assert_eq!(spec.spec_str(), "twolevel:rbm:direct");
        assert_eq!(PrecondSpec::parse(&spec.name()).unwrap(), spec);
        let a = CsrMatrix::identity(4);
        let parts = vec![CoarsePartGeometry {
            dofs: vec![0, 1, 2, 3],
            pos: (0..4).map(|g| [g as f64, 0.0, 0.0]).collect(),
            comp: vec![0; 4],
            constrained: vec![false; 4],
        }];
        let mult = vec![1.0; 4];
        let d = vec![1.0; 4];
        let PrecondSpec::TwoLevel { coarse, .. } = &spec else {
            unreachable!()
        };
        let basis = build_coarse_basis(coarse, &parts, &mult, &d, &a, 1e-12);
        let pc = spec
            .instantiate(Some(basis.solver(None)), Some(&a), || a.diagonal())
            .unwrap();
        let z = Preconditioner::<CsrMatrix>::apply(&pc, &a, &[1.0, 2.0, 3.0, 4.0]);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(Preconditioner::<CsrMatrix>::name(&pc), spec.name());
    }
}
