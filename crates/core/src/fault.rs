//! Seeded fault injection and retry governance for the predict boundary.
//!
//! Real Text-to-SQL deployments fail in ways the clean simulation never
//! exercises: providers truncate generations, emit syntactically broken
//! SQL, hallucinate identifiers from the wrong schema, return nothing,
//! or throw transient errors that succeed on retry. A [`FaultPlan`]
//! injects exactly this taxonomy at the
//! [`crate::predict_governed_with`] boundary, deterministically: every
//! draw comes from an [`xrng`] stream forked by `(seed, system,
//! question_id)`, so a fault plan replays bit-identically at any thread
//! count and on any machine.
//!
//! **Monotonicity by construction.** For a fixed seed, the set of faulted
//! questions at rate `r₁` is a subset of the set at rate `r₂ > r₁`: the
//! fault decision compares one rate-independent uniform draw `u` against
//! the rate (`u < r`), so raising the rate only ever adds faults, and
//! the injected *kind* (a second, independent draw) does not change.
//! Likewise a transient fault that recovers on retry at a higher rate
//! also recovers at any lower rate (each attempt recovers iff `v ≥ r`).
//! Since every fault maps an outcome to {unchanged, failure} and never
//! to a success, execution accuracy is exactly — not just statistically
//! — non-increasing in the fault rate. The chaos driver asserts this.
//!
//! **Simulated clock.** Retry backoff never sleeps: delays (exponential
//! with seeded jitter) accumulate on a [`SimClock`] and are added to the
//! prediction's simulated latency, keeping runs deterministic and fast.

use crate::capability::SystemKind;
use xrng::Rng;

/// The injectable failure taxonomy, mirroring the error classes the
/// paper reports for real systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The provider cut the generation mid-token: the SQL is a prefix.
    TruncatedSql,
    /// Syntactically invalid output (unparseable token salad).
    InvalidSql,
    /// Identifiers from a schema the question was never asked against.
    WrongSchema,
    /// The provider returned an empty generation.
    EmptyOutput,
    /// A transient provider error: retryable, may recover.
    Transient,
}

impl FaultKind {
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TruncatedSql,
        FaultKind::InvalidSql,
        FaultKind::WrongSchema,
        FaultKind::EmptyOutput,
        FaultKind::Transient,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TruncatedSql => "truncated_sql",
            FaultKind::InvalidSql => "invalid_sql",
            FaultKind::WrongSchema => "wrong_schema",
            FaultKind::EmptyOutput => "empty_output",
            FaultKind::Transient => "transient",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic fault schedule keyed by `(seed, system, question)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability that a given (system, question) prediction is faulted.
    pub rate: f64,
    /// Probability that the worker evaluating a (system, question) panics
    /// outright — exercises the harness's panic isolation. Drawn from an
    /// independent stream, so panic sets are also nested across rates.
    pub panic_rate: f64,
}

impl FaultPlan {
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            panic_rate: 0.0,
        }
    }

    pub fn with_panic_rate(mut self, panic_rate: f64) -> FaultPlan {
        self.panic_rate = panic_rate;
        self
    }

    /// The fault (if any) for this system/question pair. The uniform
    /// draw and the kind draw are rate-independent, which is what makes
    /// fault sets nested across rates (see module docs).
    pub fn draw(&self, system: SystemKind, question_id: usize) -> Option<FaultKind> {
        let mut rng = Rng::new(self.seed).fork(&format!("fault/{system}/{question_id}"));
        let u = rng.f64();
        let kind = FaultKind::ALL[rng.index(FaultKind::ALL.len())];
        (u < self.rate).then_some(kind)
    }

    /// Whether the worker for this system/question pair panics.
    pub fn draws_panic(&self, system: SystemKind, question_id: usize) -> bool {
        let mut rng = Rng::new(self.seed).fork(&format!("panic/{system}/{question_id}"));
        rng.f64() < self.panic_rate
    }

    /// The injection stream for this pair: SQL corruption choices and
    /// retry jitter draw from here. Separate from the decision streams
    /// so consuming it never perturbs *which* questions are faulted.
    pub fn injection_rng(&self, system: SystemKind, question_id: usize) -> Rng {
        Rng::new(self.seed).fork(&format!("inject/{system}/{question_id}"))
    }
}

/// Exponential-backoff retry schedule for [`FaultKind::Transient`]
/// faults. All delays are simulated seconds on a [`SimClock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    pub max_retries: u32,
    pub base_delay_s: f64,
    pub multiplier: f64,
    pub max_delay_s: f64,
    /// Each delay is scaled by `1 ± jitter` with a seeded uniform draw.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay_s: 0.5,
            multiplier: 2.0,
            max_delay_s: 8.0,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// The (jittered, capped) delay before retry attempt `attempt`
    /// (0-based). Deterministic given the caller's rng state.
    pub fn delay_s(&self, attempt: u32, rng: &mut Rng) -> f64 {
        let raw = self.base_delay_s * self.multiplier.powi(attempt as i32);
        let capped = raw.min(self.max_delay_s);
        let scale = 1.0 + self.jitter * (2.0 * rng.f64() - 1.0);
        capped * scale
    }
}

/// A simulated wall clock: time advances only by explicit increments,
/// never by sleeping, so backoff is free and bit-deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    now_s: f64,
}

impl SimClock {
    pub fn new() -> SimClock {
        SimClock::default()
    }

    pub fn advance(&mut self, seconds: f64) {
        self.now_s += seconds;
    }

    pub fn now_s(&self) -> f64 {
        self.now_s
    }
}

/// Applies a non-transient fault's corruption to a prediction's SQL.
/// `Transient` is handled by the retry loop, not here.
pub fn corrupt_sql(kind: FaultKind, sql: Option<String>, rng: &mut Rng) -> Option<String> {
    match kind {
        FaultKind::EmptyOutput => None,
        FaultKind::InvalidSql => {
            // A trailing dangling operator defeats any parser without
            // depending on what the prediction looked like.
            Some(format!("{} WHERE AND", sql.as_deref().unwrap_or("SELECT")))
        }
        FaultKind::TruncatedSql => sql.map(|s| {
            // Cut at 35–65% of the text, snapped to a char boundary.
            let frac = 0.35 + 0.3 * rng.f64();
            let mut cut = (s.len() as f64 * frac) as usize;
            while cut > 0 && !s.is_char_boundary(cut) {
                cut -= 1;
            }
            s[..cut].to_string()
        }),
        FaultKind::WrongSchema => {
            // Identifiers from a schema that exists nowhere in the
            // benchmark: executes as an unknown-table resolution error.
            let ghost = *rng.choose(&["warehouse_fact", "dim_customer", "order_lines"]);
            Some(format!("SELECT revenue FROM {ghost} WHERE region = 'EMEA'"))
        }
        FaultKind::Transient => sql,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_keyed() {
        let plan = FaultPlan::new(7, 0.5);
        for qid in 0..50 {
            assert_eq!(
                plan.draw(SystemKind::Gpt35, qid),
                plan.draw(SystemKind::Gpt35, qid)
            );
        }
        // Different systems see different fault sets (with overwhelming
        // probability over 200 questions).
        let a: Vec<_> = (0..200).map(|q| plan.draw(SystemKind::Gpt35, q)).collect();
        let b: Vec<_> = (0..200).map(|q| plan.draw(SystemKind::Llama2, q)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn fault_sets_are_nested_across_rates() {
        let lo = FaultPlan::new(3, 0.15);
        let hi = FaultPlan::new(3, 0.6);
        let mut lo_count = 0;
        for qid in 0..400 {
            for &sys in &SystemKind::ALL {
                let l = lo.draw(sys, qid);
                let h = hi.draw(sys, qid);
                if let Some(k) = l {
                    lo_count += 1;
                    assert_eq!(h, Some(k), "fault at low rate must persist at high rate");
                }
            }
        }
        assert!(lo_count > 0, "low rate drew no faults at all");
    }

    #[test]
    fn panic_draws_are_independent_of_fault_draws() {
        let plan = FaultPlan::new(5, 0.3).with_panic_rate(0.3);
        let faults: Vec<bool> = (0..300)
            .map(|q| plan.draw(SystemKind::ValueNet, q).is_some())
            .collect();
        let panics: Vec<bool> = (0..300)
            .map(|q| plan.draws_panic(SystemKind::ValueNet, q))
            .collect();
        assert_ne!(faults, panics);
        assert!(panics.iter().any(|&p| p));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy::default();
        let plan = FaultPlan::new(1, 1.0);
        let mut r1 = plan.injection_rng(SystemKind::Gpt35, 9);
        let mut r2 = plan.injection_rng(SystemKind::Gpt35, 9);
        for attempt in 0..6 {
            let d1 = policy.delay_s(attempt, &mut r1);
            let d2 = policy.delay_s(attempt, &mut r2);
            assert_eq!(d1.to_bits(), d2.to_bits(), "jitter must be seeded");
            assert!(d1 <= policy.max_delay_s * (1.0 + policy.jitter) + 1e-9);
            assert!(d1 >= 0.0);
        }
    }

    #[test]
    fn corruptions_break_sql_the_advertised_way() {
        let plan = FaultPlan::new(11, 1.0);
        let mut rng = plan.injection_rng(SystemKind::T5Picard, 0);
        let sql = Some("SELECT name FROM team WHERE team_id = 1".to_string());
        assert_eq!(
            corrupt_sql(FaultKind::EmptyOutput, sql.clone(), &mut rng),
            None
        );
        let invalid = corrupt_sql(FaultKind::InvalidSql, sql.clone(), &mut rng).unwrap();
        assert!(sqlkit::parse_query(&invalid).is_err());
        let truncated = corrupt_sql(FaultKind::TruncatedSql, sql.clone(), &mut rng).unwrap();
        assert!(truncated.len() < sql.as_ref().unwrap().len());
        let wrong = corrupt_sql(FaultKind::WrongSchema, sql.clone(), &mut rng).unwrap();
        assert!(
            sqlkit::parse_query(&wrong).is_ok(),
            "wrong-schema SQL parses"
        );
        assert_eq!(
            corrupt_sql(FaultKind::Transient, sql.clone(), &mut rng),
            sql
        );
    }

    #[test]
    fn sim_clock_accumulates() {
        let mut clock = SimClock::new();
        clock.advance(0.5);
        clock.advance(1.25);
        assert!((clock.now_s() - 1.75).abs() < 1e-12);
    }
}
