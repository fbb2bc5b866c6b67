//! # ppc-resilience — straggler & gray-failure defense, shared by every paradigm
//!
//! The paper's fault-tolerance story is "re-execute failed tasks", but the
//! failures that dominate real cloud tails are the ones re-execution alone
//! never fixes: *gray* workers that don't die, they just run 10× slow. This
//! crate is the one defense layer all three paradigms (Classic Cloud,
//! MapReduce, Dryad) adopt, native and simulated:
//!
//! * [`HedgePolicy`] — launch a duplicate attempt once a task has run past
//!   a quantile-derived delay (Hadoop's speculative execution generalized:
//!   classic queue re-dispatch, Dryad backup vertices), first result wins,
//!   with a hedge budget so duplicates can't stampede.
//! * [`HealthTracker`] — score workers by EWMA completion latency and
//!   failure streaks, bench gray workers off the assignment path, and
//!   release them through a probation window.
//! * [`DeadlineConfig`] — per-task deadlines with cancel-and-requeue.
//! * [`AttemptLedger`] — the sans-IO attempt state machine the policies
//!   act on: launches, queue redeliveries, hedges of the oldest candidate
//!   in a partition, the per-task failure budget (a task that has spent it
//!   gets no fresh hedges or redeliveries), first-result-wins commit and
//!   the release of killed losers. It also owns the native engines' live
//!   attempts: each armed attempt's worker and kill token, fired for the
//!   losers of a first commit and for the oldest deadline breach it cuts.
//!   MapReduce's scheduler and the Classic sim keep every task in one
//!   partition; native Dryad uses one partition per node.
//!
//! The knobs travel as one [`ResiliencePolicy`] value on
//! `ppc_exec::RunContext` or a paradigm config. With no policy (`None`),
//! Classic Cloud and Dryad run undefended and MapReduce runs Hadoop's
//! default speculation ([`HedgeConfig::legacy_speculation`]). A policy
//! replaces that default, so `Some(ResiliencePolicy::default())` is
//! "speculation off".

use ppc_core::{PpcError, Result};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

mod ledger;
pub use ledger::{AttemptId, AttemptLedger, CompleteOutcome, FailOutcome};

/// When to launch a duplicate (hedged) attempt for a running task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Latency quantile of observed completions that anchors the hedge
    /// delay (0.95 = hedge tasks slower than the p95 so far).
    pub quantile: f64,
    /// Multiplier on the quantile latency: delay = quantile_latency × factor.
    pub factor: f64,
    /// Completions observed before the quantile trigger arms; until then
    /// only `min_delay_s` gates hedging.
    pub min_observations: usize,
    /// Floor on the hedge delay (also the whole delay before the quantile
    /// trigger arms), seconds.
    pub min_delay_s: f64,
    /// Hedge budget as a fraction of the job's task count;
    /// `f64::INFINITY` = uncapped (the legacy Hadoop behavior).
    pub budget_fraction: f64,
    /// Maximum simultaneously live attempts per task (2 = one backup).
    pub max_live_attempts: u32,
}

impl HedgeConfig {
    /// Hadoop's classic speculation, verbatim: duplicate the oldest
    /// running task whenever a worker would otherwise idle — no delay
    /// threshold, no budget, at most one live duplicate. MapReduce runs
    /// it when the run carries no policy.
    pub fn legacy_speculation() -> HedgeConfig {
        HedgeConfig {
            quantile: 0.0,
            factor: 0.0,
            min_observations: 0,
            min_delay_s: 0.0,
            budget_fraction: f64::INFINITY,
            max_live_attempts: 2,
        }
    }

    /// A tail-focused default: hedge past 1.5× the observed p75 (armed
    /// after 3 completions), budget 50% of the task count, one backup.
    pub fn quantile(min_delay_s: f64) -> HedgeConfig {
        HedgeConfig {
            quantile: 0.75,
            factor: 1.5,
            min_observations: 3,
            min_delay_s,
            budget_fraction: 0.5,
            max_live_attempts: 2,
        }
    }

    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.quantile) {
            return Err(PpcError::InvalidArgument(format!(
                "hedge config: quantile = {} is not in [0, 1]",
                self.quantile
            )));
        }
        if !self.factor.is_finite() || self.factor < 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "hedge config: factor = {} must be finite and >= 0",
                self.factor
            )));
        }
        if !self.min_delay_s.is_finite() || self.min_delay_s < 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "hedge config: min_delay_s = {} must be finite and >= 0",
                self.min_delay_s
            )));
        }
        if self.budget_fraction.is_nan() || self.budget_fraction < 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "hedge config: budget_fraction = {} must be >= 0",
                self.budget_fraction
            )));
        }
        if self.max_live_attempts < 2 {
            return Err(PpcError::InvalidArgument(
                "hedge config: max_live_attempts must be at least 2 (the primary plus one backup)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Runtime state of the hedging decision: observed completion latencies
/// feeding the quantile trigger, plus the hedge budget counter. One per
/// job, shared by whatever dispatches attempts in that paradigm.
///
/// Every dispatcher asks for the delay on each hedge decision, so it is
/// kept current on [`observe`](HedgePolicy::observe) instead, making
/// [`hedge_delay`](HedgePolicy::hedge_delay) and
/// [`should_hedge`](HedgePolicy::should_hedge) O(1). The quantile is the
/// exact order statistic at index `clamp(ceil(q·n), 1, n) − 1`, kept in
/// two heaps split at it: a max-heap of the `k` smallest observations,
/// whose top it is, and a min-heap of the rest. `k` grows by at most one
/// per observation, so `observe` is O(log n).
#[derive(Debug, Clone)]
pub struct HedgePolicy {
    cfg: HedgeConfig,
    /// The `k` smallest observations; the top is the quantile.
    low: BinaryHeap<Latency>,
    /// The other observations.
    high: BinaryHeap<Reverse<Latency>>,
    /// `hedge_delay()` for the observations so far.
    delay_s: f64,
    hedges_launched: usize,
}

/// One observed completion latency, seconds, with its arrival ordinal.
/// Ordered by value, equal values (`-0.0` and `0.0` included) by arrival,
/// exactly as a stable sort of the arrival sequence would place them.
#[derive(Debug, Clone, Copy)]
struct Latency {
    seconds: f64,
    arrival: u64,
}

impl Ord for Latency {
    fn cmp(&self, other: &Self) -> Ordering {
        // Observations are finite, so `partial_cmp` is total here.
        self.seconds
            .partial_cmp(&other.seconds)
            .unwrap_or(Ordering::Equal)
            .then(self.arrival.cmp(&other.arrival))
    }
}

impl PartialOrd for Latency {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Latency {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Latency {}

impl HedgePolicy {
    pub fn new(cfg: HedgeConfig) -> HedgePolicy {
        HedgePolicy {
            cfg,
            low: BinaryHeap::new(),
            high: BinaryHeap::new(),
            delay_s: cfg.min_delay_s,
            hedges_launched: 0,
        }
    }

    pub fn config(&self) -> &HedgeConfig {
        &self.cfg
    }

    /// Feed one completed attempt's latency into the quantile estimate.
    pub fn observe(&mut self, latency_s: f64) {
        if !(latency_s.is_finite() && latency_s >= 0.0) {
            return;
        }
        let n = self.low.len() + self.high.len();
        let sample = Latency {
            seconds: latency_s,
            arrival: n as u64,
        };
        // The newest arrival sorts after every equal value.
        if self.low.peek().is_some_and(|top| sample < *top) {
            self.low.push(sample);
        } else {
            self.high.push(Reverse(sample));
        }
        let n = n + 1;
        let k = ((self.cfg.quantile * n as f64).ceil() as usize).clamp(1, n);
        while self.low.len() > k {
            let top = self.low.pop().expect("low holds more than k");
            self.high.push(Reverse(top));
        }
        while self.low.len() < k {
            let Reverse(least) = self.high.pop().expect("n >= k");
            self.low.push(least);
        }
        let quantile = self.low.peek().expect("k >= 1").seconds;
        self.delay_s = if n < self.cfg.min_observations {
            self.cfg.min_delay_s
        } else {
            (quantile * self.cfg.factor).max(self.cfg.min_delay_s)
        };
    }

    /// The delay past which a running task becomes a hedge candidate:
    /// `max(min_delay_s, quantile_latency × factor)` once
    /// `min_observations` completions are in, `min_delay_s` before that.
    pub fn hedge_delay(&self) -> f64 {
        self.delay_s
    }

    /// Whether a task that has been running `age_s` with `live_attempts`
    /// copies in flight should get a backup, given the budget over a job
    /// of `n_tasks`.
    pub fn should_hedge(&self, age_s: f64, live_attempts: u32, n_tasks: usize) -> bool {
        live_attempts < self.cfg.max_live_attempts
            && self.budget_remaining(n_tasks)
            && age_s >= self.hedge_delay()
    }

    /// Whether the hedge budget over a job of `n_tasks` allows another
    /// duplicate.
    pub fn budget_remaining(&self, n_tasks: usize) -> bool {
        if self.cfg.budget_fraction.is_infinite() {
            return true;
        }
        let cap = (self.cfg.budget_fraction * n_tasks as f64).ceil() as usize;
        self.hedges_launched < cap
    }

    /// Record that a hedge was launched (counts against the budget).
    pub fn record_hedge(&mut self) {
        self.hedges_launched += 1;
    }

    pub fn hedges_launched(&self) -> usize {
        self.hedges_launched
    }
}

/// When a worker is scored gray and benched off the assignment path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// EWMA weight of the newest latency sample (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// Quarantine a worker whose EWMA latency exceeds this multiple of the
    /// fleet's median EWMA.
    pub slow_factor: f64,
    /// Consecutive failures that quarantine a worker outright.
    pub failure_threshold: u32,
    /// Latency samples required per worker before the slowness score
    /// applies (failure streaks apply from the first failure).
    pub min_samples: u32,
    /// How long a quarantined worker stays benched, seconds.
    pub quarantine_s: f64,
    /// Probation: successes required after release before the worker is
    /// fully healthy again (a failure on probation re-quarantines).
    pub probation_tasks: u32,
    /// Never bench more than this fraction of the fleet at once — a
    /// defense against quarantining everyone when the whole fleet is slow.
    pub max_quarantined_fraction: f64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            ewma_alpha: 0.3,
            slow_factor: 3.0,
            failure_threshold: 3,
            min_samples: 3,
            quarantine_s: 30.0,
            probation_tasks: 2,
            max_quarantined_fraction: 0.5,
        }
    }
}

impl QuarantineConfig {
    pub fn validate(&self) -> Result<()> {
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(PpcError::InvalidArgument(format!(
                "quarantine config: ewma_alpha = {} must be in (0, 1]",
                self.ewma_alpha
            )));
        }
        if !self.slow_factor.is_finite() || self.slow_factor <= 1.0 {
            return Err(PpcError::InvalidArgument(format!(
                "quarantine config: slow_factor = {} must be finite and > 1",
                self.slow_factor
            )));
        }
        if !self.quarantine_s.is_finite() || self.quarantine_s <= 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "quarantine config: quarantine_s = {} must be finite and > 0",
                self.quarantine_s
            )));
        }
        if !(0.0..=1.0).contains(&self.max_quarantined_fraction) {
            return Err(PpcError::InvalidArgument(format!(
                "quarantine config: max_quarantined_fraction = {} is not in [0, 1]",
                self.max_quarantined_fraction
            )));
        }
        Ok(())
    }
}

/// Where one worker sits in the quarantine state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Health {
    Healthy,
    /// Benched until the stated time.
    Quarantined {
        until_s: f64,
    },
    /// Released, with this many probation successes still owed.
    Probation {
        remaining: u32,
    },
}

#[derive(Debug, Clone)]
struct WorkerScore {
    ewma_s: Option<f64>,
    samples: u32,
    consecutive_failures: u32,
    health: Health,
}

impl WorkerScore {
    fn new() -> WorkerScore {
        WorkerScore {
            ewma_s: None,
            samples: 0,
            consecutive_failures: 0,
            health: Health::Healthy,
        }
    }
}

/// What [`HealthTracker::admit`] decided for a worker asking for work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admit {
    /// Hand the worker work. If its bench had just expired, `admit`
    /// released it to probation and reported the release.
    Go,
    /// Benched: no work until `until_s`, when asking again releases it.
    Benched { until_s: f64 },
}

/// A quarantine state change, reported by the [`HealthTracker`] that made
/// it at the instant it made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The worker was benched as gray (slow or failure-streaked).
    Quarantine,
    /// The worker's bench expired; it re-enters through probation.
    Release,
}

/// Where a [`HealthTracker`] reports its transitions.
/// `ppc_exec::HealthTrace` records them as the run's `Quarantine` /
/// `Release` trace events, which is how every engine, native and
/// simulated, passes them on.
pub trait HealthSink {
    fn transition(&self, worker: u32, at_s: f64, transition: Transition);
}

/// Scores workers by EWMA completion latency and failure streaks and runs
/// the quarantine state machine: Healthy → Quarantined (timed bench) →
/// Probation (earn your way back) → Healthy. Callers ask
/// [`HealthTracker::admit`] before handing a worker new work and
/// [`HealthTracker::record`] each attempt it finishes; the tracker alone
/// decides each transition and reports it to the caller's [`HealthSink`].
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: QuarantineConfig,
    workers: Vec<WorkerScore>,
    quarantines: usize,
    releases: usize,
}

impl HealthTracker {
    pub fn new(cfg: QuarantineConfig) -> HealthTracker {
        HealthTracker {
            cfg,
            workers: Vec::new(),
            quarantines: 0,
            releases: 0,
        }
    }

    fn score(&mut self, worker: u32) -> &mut WorkerScore {
        let i = worker as usize;
        while self.workers.len() <= i {
            self.workers.push(WorkerScore::new());
        }
        &mut self.workers[i]
    }

    /// Median EWMA latency across workers with enough samples.
    fn fleet_median(&self) -> Option<f64> {
        let mut ewmas: Vec<f64> = self
            .workers
            .iter()
            .filter(|w| w.samples >= self.cfg.min_samples)
            .filter_map(|w| w.ewma_s)
            .collect();
        if ewmas.len() < 2 {
            return None; // one worker has no peers to be slow relative to
        }
        ewmas.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(ewmas[ewmas.len() / 2])
    }

    fn benched(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| matches!(w.health, Health::Quarantined { .. }))
            .count()
    }

    /// Whether benching one more worker stays under the fleet-fraction cap.
    fn can_bench(&self) -> bool {
        let fleet = self.workers.len().max(1);
        ((self.benched() + 1) as f64) <= self.cfg.max_quarantined_fraction * fleet as f64
    }

    /// Score a success; whether it shows the worker gray-slow.
    fn score_success(&mut self, worker: u32, latency_s: f64) -> bool {
        let alpha = self.cfg.ewma_alpha;
        let s = self.score(worker);
        s.consecutive_failures = 0;
        s.samples += 1;
        s.ewma_s = Some(match s.ewma_s {
            Some(e) => alpha * latency_s + (1.0 - alpha) * e,
            None => latency_s,
        });
        if let Health::Probation { remaining } = s.health {
            s.health = if remaining <= 1 {
                Health::Healthy
            } else {
                Health::Probation {
                    remaining: remaining - 1,
                }
            };
        }
        // Gray check: slow relative to the fleet, with enough evidence.
        let s = &self.workers[worker as usize];
        s.health == Health::Healthy
            && s.samples >= self.cfg.min_samples
            && match (s.ewma_s, self.fleet_median()) {
                (Some(e), Some(m)) => e > self.cfg.slow_factor * m,
                _ => false,
            }
    }

    /// Score a failure; whether it trips a streak or breaks probation.
    fn score_failure(&mut self, worker: u32) -> bool {
        let threshold = self.cfg.failure_threshold;
        let s = self.score(worker);
        s.consecutive_failures += 1;
        match s.health {
            Health::Probation { .. } => true,
            Health::Healthy => s.consecutive_failures >= threshold,
            Health::Quarantined { .. } => false,
        }
    }

    /// Record one finished attempt: a success with its observed latency,
    /// a failure (or cancellation) with `None`. Either can bench the
    /// worker, a success when it shows the worker gray-slow next to the
    /// fleet, a failure on a streak or during probation; the bench is
    /// reported to `sink` as a [`Transition::Quarantine`] at `now_s`.
    pub fn record(
        &mut self,
        worker: u32,
        latency_s: Option<f64>,
        now_s: f64,
        sink: &dyn HealthSink,
    ) {
        let gray = match latency_s {
            Some(latency_s) => self.score_success(worker, latency_s),
            None => self.score_failure(worker),
        };
        if gray && self.can_bench() {
            let until_s = now_s + self.cfg.quarantine_s;
            self.quarantines += 1;
            let s = self.score(worker);
            s.health = Health::Quarantined { until_s };
            s.consecutive_failures = 0;
            sink.transition(worker, now_s, Transition::Quarantine);
        }
    }

    /// Gate before assignment. A benched worker gets
    /// [`Admit::Benched`]; a bench that has expired by `now_s` is
    /// released to probation here, counted, and reported to `sink` as a
    /// [`Transition::Release`].
    pub fn admit(&mut self, worker: u32, now_s: f64, sink: &dyn HealthSink) -> Admit {
        let probation_tasks = self.cfg.probation_tasks;
        let s = self.score(worker);
        match s.health {
            Health::Quarantined { until_s } if now_s >= until_s => {
                s.health = if probation_tasks == 0 {
                    Health::Healthy
                } else {
                    Health::Probation {
                        remaining: probation_tasks,
                    }
                };
                // The bench was the penalty; probation re-scores from a
                // clean slate so stale gray-era latency can't re-bench a
                // recovered worker on its first task back.
                s.ewma_s = None;
                s.samples = 0;
                self.releases += 1;
                sink.transition(worker, now_s, Transition::Release);
                Admit::Go
            }
            Health::Quarantined { until_s } => Admit::Benched { until_s },
            _ => Admit::Go,
        }
    }

    /// Current state of one worker (observers; assignment goes via `admit`).
    pub fn health(&self, worker: u32) -> Health {
        self.workers
            .get(worker as usize)
            .map(|w| w.health)
            .unwrap_or(Health::Healthy)
    }

    /// Total quarantines imposed over the run.
    pub fn quarantines(&self) -> usize {
        self.quarantines
    }

    /// Total releases back to probation over the run.
    pub fn releases(&self) -> usize {
        self.releases
    }
}

/// Per-task deadline: attempts older than `timeout_s` are cancelled and
/// the task requeued (counting against its attempt budget, so a task that
/// can never meet the deadline still terminates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    pub timeout_s: f64,
}

impl DeadlineConfig {
    pub fn validate(&self) -> Result<()> {
        if !self.timeout_s.is_finite() || self.timeout_s <= 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "deadline config: timeout_s = {} must be finite and > 0",
                self.timeout_s
            )));
        }
        Ok(())
    }
}

/// The one resilience knob a [`ppc_exec::RunContext`] carries: each part is
/// optional, and `ResiliencePolicy::default()` (all `None`) turns every
/// defense off — MapReduce's default speculation included (see the crate
/// docs for what a run with no policy does).
///
/// [`ppc_exec::RunContext`]: https://docs.rs/ppc-exec
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResiliencePolicy {
    pub hedge: Option<HedgeConfig>,
    pub quarantine: Option<QuarantineConfig>,
    pub deadline: Option<DeadlineConfig>,
}

impl ResiliencePolicy {
    /// Hedging only, with the given config.
    pub fn hedged(cfg: HedgeConfig) -> ResiliencePolicy {
        ResiliencePolicy {
            hedge: Some(cfg),
            ..ResiliencePolicy::default()
        }
    }

    /// Hadoop's default speculation as an explicit policy — what a
    /// MapReduce run with no policy does.
    pub fn legacy_speculation() -> ResiliencePolicy {
        ResiliencePolicy::hedged(HedgeConfig::legacy_speculation())
    }

    pub fn with_quarantine(mut self, cfg: QuarantineConfig) -> ResiliencePolicy {
        self.quarantine = Some(cfg);
        self
    }

    pub fn with_deadline(mut self, timeout_s: f64) -> ResiliencePolicy {
        self.deadline = Some(DeadlineConfig { timeout_s });
        self
    }

    pub fn validate(&self) -> Result<()> {
        if let Some(h) = &self.hedge {
            h.validate()?;
        }
        if let Some(q) = &self.quarantine {
            q.validate()?;
        }
        if let Some(d) = &self.deadline {
            d.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_hedge_fires_immediately_and_never_exhausts() {
        let mut p = HedgePolicy::new(HedgeConfig::legacy_speculation());
        assert_eq!(p.hedge_delay(), 0.0);
        assert!(p.should_hedge(0.0, 1, 1));
        assert!(!p.should_hedge(0.0, 2, 1), "one live backup is the cap");
        for _ in 0..1000 {
            p.record_hedge();
        }
        assert!(p.should_hedge(0.0, 1, 1), "legacy budget is unbounded");
    }

    #[test]
    fn quantile_delay_arms_after_min_observations() {
        let cfg = HedgeConfig {
            quantile: 0.5,
            factor: 2.0,
            min_observations: 3,
            min_delay_s: 1.0,
            budget_fraction: 1.0,
            max_live_attempts: 2,
        };
        let mut p = HedgePolicy::new(cfg);
        assert_eq!(p.hedge_delay(), 1.0, "floor applies before arming");
        p.observe(10.0);
        p.observe(10.0);
        assert_eq!(p.hedge_delay(), 1.0, "two of three observations");
        p.observe(20.0);
        // p50 of [10, 10, 20] = 10; delay = 10 × 2 = 20.
        assert_eq!(p.hedge_delay(), 20.0);
        assert!(!p.should_hedge(19.0, 1, 10));
        assert!(p.should_hedge(20.0, 1, 10));
    }

    /// The delay as the policy used to compute it on every call: clone the
    /// observations in arrival order, stable-sort, index the quantile.
    fn reference_delay(cfg: &HedgeConfig, arrivals: &[f64]) -> f64 {
        if arrivals.len() < cfg.min_observations || arrivals.is_empty() {
            return cfg.min_delay_s;
        }
        let mut sorted = arrivals.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((cfg.quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        (sorted[idx] * cfg.factor).max(cfg.min_delay_s)
    }

    #[test]
    fn cached_delay_matches_clone_and_sort_recomputation() {
        use ppc_core::rng::Pcg32;
        for seed in 0..200u64 {
            let mut rng = Pcg32::new(0x4ED6E ^ seed);
            let cfg = HedgeConfig {
                quantile: [0.0, 0.5, 0.75, 0.95, 1.0][rng.next_below(5) as usize],
                factor: [0.0, 1.0, 1.5, 3.0][rng.next_below(4) as usize],
                min_observations: rng.next_below(6) as usize,
                min_delay_s: f64::from(rng.next_below(4)),
                budget_fraction: 0.5,
                max_live_attempts: 2,
            };
            let mut p = HedgePolicy::new(cfg);
            let mut arrivals = Vec::new();
            // Every fortieth sequence runs long enough for the two quantile
            // heaps to rebalance at realistic sizes.
            let len = rng.next_below(if seed % 40 == 0 { 2_000 } else { 120 });
            for _ in 0..len {
                // Coarse values so ties are common; signed zeros, negatives
                // and non-finite values exercise the filter.
                let v = match rng.next_below(12) {
                    0 => -0.0,
                    1 => -1.0,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    _ => f64::from(rng.next_below(16)) * 0.5,
                };
                p.observe(v);
                if v.is_finite() && v >= 0.0 {
                    arrivals.push(v);
                }
                let want = reference_delay(&cfg, &arrivals);
                assert_eq!(
                    p.hedge_delay().to_bits(),
                    want.to_bits(),
                    "seed {seed} after {arrivals:?}"
                );
            }
        }
    }

    #[test]
    fn hedge_budget_caps_duplicates() {
        let cfg = HedgeConfig {
            budget_fraction: 0.25,
            ..HedgeConfig::legacy_speculation()
        };
        let mut p = HedgePolicy::new(cfg);
        // 10 tasks × 0.25 → budget of ceil(2.5) = 3 hedges.
        for _ in 0..3 {
            assert!(p.should_hedge(0.0, 1, 10));
            p.record_hedge();
        }
        assert!(!p.should_hedge(0.0, 1, 10), "budget exhausted");
        assert_eq!(p.hedges_launched(), 3);
    }

    /// Test sink: every transition the tracker reports, in order.
    #[derive(Default)]
    struct Log(std::cell::RefCell<Vec<(u32, f64, Transition)>>);

    impl HealthSink for Log {
        fn transition(&self, worker: u32, at_s: f64, transition: Transition) {
            self.0.borrow_mut().push((worker, at_s, transition));
        }
    }

    impl Log {
        fn take(&self) -> Vec<(u32, f64, Transition)> {
            std::mem::take(&mut *self.0.borrow_mut())
        }
    }

    #[test]
    fn gray_worker_is_quarantined_and_released_through_probation() {
        let cfg = QuarantineConfig {
            min_samples: 2,
            quarantine_s: 10.0,
            probation_tasks: 2,
            ..QuarantineConfig::default()
        };
        let mut t = HealthTracker::new(cfg);
        let log = Log::default();
        // Two healthy peers at ~1 s, one gray worker at ~10 s.
        for _ in 0..3 {
            t.record(0, Some(1.0), 0.0, &log);
            t.record(1, Some(1.0), 0.0, &log);
        }
        t.record(2, Some(10.0), 0.0, &log);
        assert_eq!(
            t.admit(2, 0.0, &log),
            Admit::Go,
            "one sample is not yet evidence"
        );
        t.record(2, Some(10.0), 1.0, &log);
        assert_eq!(
            t.admit(2, 1.0, &log),
            Admit::Benched { until_s: 11.0 },
            "gray worker benched"
        );
        assert_eq!(t.quarantines(), 1);
        assert_eq!(log.take(), [(2, 1.0, Transition::Quarantine)]);
        assert!(
            t.admit(0, 1.0, &log) == Admit::Go && t.admit(1, 1.0, &log) == Admit::Go,
            "peers unaffected"
        );
        // Bench expires → probation → healthy after two successes.
        assert_eq!(
            t.admit(2, 12.0, &log),
            Admit::Go,
            "released after quarantine_s"
        );
        assert_eq!(log.take(), [(2, 12.0, Transition::Release)]);
        assert_eq!(t.health(2), Health::Probation { remaining: 2 });
        t.record(2, Some(1.0), 12.0, &log);
        t.record(2, Some(1.0), 13.0, &log);
        assert_eq!(t.health(2), Health::Healthy);
        assert_eq!(t.releases(), 1);
        assert_eq!(log.take(), [], "a release is reported once");
    }

    #[test]
    fn failure_streak_quarantines_and_probation_failure_rebenches() {
        let cfg = QuarantineConfig {
            failure_threshold: 2,
            quarantine_s: 5.0,
            probation_tasks: 1,
            ..QuarantineConfig::default()
        };
        let mut t = HealthTracker::new(cfg);
        let log = Log::default();
        t.record(0, Some(1.0), 0.0, &log); // a peer, so the fleet isn't one worker
        t.record(1, None, 0.0, &log);
        assert_eq!(
            t.admit(1, 0.0, &log),
            Admit::Go,
            "one failure is not a streak"
        );
        t.record(1, None, 0.0, &log);
        assert_eq!(
            t.admit(1, 0.0, &log),
            Admit::Benched { until_s: 5.0 },
            "streak hit the threshold"
        );
        // A failure scored while benched neither re-benches nor reports.
        t.record(1, None, 1.0, &log);
        assert_eq!(t.admit(1, 6.0, &log), Admit::Go, "released to probation");
        t.record(1, None, 6.0, &log);
        assert_eq!(
            t.admit(1, 6.0, &log),
            Admit::Benched { until_s: 11.0 },
            "a probation failure re-benches at once"
        );
        assert_eq!(t.quarantines(), 2);
        assert_eq!(
            log.take(),
            [
                (1, 0.0, Transition::Quarantine),
                (1, 6.0, Transition::Release),
                (1, 6.0, Transition::Quarantine),
            ]
        );
    }

    #[test]
    fn quarantine_fraction_cap_protects_the_fleet() {
        let cfg = QuarantineConfig {
            failure_threshold: 1,
            max_quarantined_fraction: 0.5,
            ..QuarantineConfig::default()
        };
        let mut t = HealthTracker::new(cfg);
        let log = Log::default();
        // Touch 4 workers so the fleet size is known.
        for w in 0..4 {
            t.record(w, Some(1.0), 0.0, &log);
        }
        t.record(0, None, 0.0, &log);
        t.record(1, None, 0.0, &log);
        assert!(t.admit(0, 0.0, &log) != Admit::Go && t.admit(1, 0.0, &log) != Admit::Go);
        // Benching a third of four would exceed the 50% cap.
        t.record(2, None, 0.0, &log);
        assert_eq!(
            t.admit(2, 0.0, &log),
            Admit::Go,
            "fraction cap held the bench"
        );
        assert_eq!(t.quarantines(), 2);
        assert_eq!(
            log.take(),
            [
                (0, 0.0, Transition::Quarantine),
                (1, 0.0, Transition::Quarantine),
            ],
            "the capped bench is not reported"
        );
        assert_eq!(t.admit(0, 30.0, &log), Admit::Go);
        assert_eq!(t.releases(), 1);
        assert_eq!(log.take(), [(0, 30.0, Transition::Release)]);
    }

    #[test]
    fn policy_default_is_inert_and_validation_rejects_nonsense() {
        let p = ResiliencePolicy::default();
        assert!(p.hedge.is_none() && p.quarantine.is_none() && p.deadline.is_none());
        assert!(p.validate().is_ok());
        assert!(ResiliencePolicy::legacy_speculation().validate().is_ok());
        let bad = ResiliencePolicy::hedged(HedgeConfig {
            quantile: 1.5,
            ..HedgeConfig::legacy_speculation()
        });
        assert!(bad.validate().is_err());
        let bad = ResiliencePolicy::default().with_deadline(0.0);
        assert!(bad.validate().is_err());
        let bad = ResiliencePolicy::default().with_quarantine(QuarantineConfig {
            slow_factor: 0.5,
            ..QuarantineConfig::default()
        });
        assert!(bad.validate().is_err());
        let bad = ResiliencePolicy::hedged(HedgeConfig {
            max_live_attempts: 1,
            ..HedgeConfig::legacy_speculation()
        });
        assert!(bad.validate().is_err());
    }
}
