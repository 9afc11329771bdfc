//! End-to-end pipeline: program + database → output probability space.
//!
//! [`Pipeline`] wires together the translation (Section 3), a grounder
//! (Definitions 3.4 / 5.1), the chase (Section 4) and the output space
//! (Definition 3.8) behind a small builder-style API. It is the entry point
//! used by the examples and the experiment harness.
//!
//! Evaluation is semi-naive throughout: the grounders saturate delta-by-delta
//! over the indexed relations of `gdlog-data`, and the chase descent reuses
//! each node's grounding as the seed of its children's
//! ([`Grounder::ground_from`]). See `ARCHITECTURE.md` at the repository root
//! for the invariants.

use crate::analyze::certainly_single_trigger;
use crate::api::SolveStrategy;
use crate::chase::{enumerate_outcomes_cancellable, ChaseBudget, ChaseResult, TriggerOrder};
use crate::error::CoreError;
use crate::exec::Executor;
use crate::factor::{self, ChaseComponent, Factor, FactorAnalysis, FactoredOutputSpace};
use crate::grounding::Grounder;
use crate::mc::{MonteCarlo, SampleStats};
use crate::outcome::PossibleOutcome;
use crate::perfect_grounder::PerfectGrounder;
use crate::program::Program;
use crate::semantics::OutputSpace;
use crate::simple_grounder::SimpleGrounder;
use crate::translate::SigmaPi;
use gdlog_data::{Database, GroundAtom};
use gdlog_engine::{CancelToken, StableModelLimits};
use gdlog_prob::sampler::Estimate;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which grounder the pipeline should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GrounderChoice {
    /// The simple grounder (Definition 3.4) — correct for every program.
    #[default]
    Simple,
    /// The perfect grounder (Definition 5.1) — requires stratified negation.
    Perfect,
    /// Use the perfect grounder when the program is stratified, otherwise
    /// fall back to the simple grounder.
    Auto,
}

impl GrounderChoice {
    /// Lowercase label (`simple` / `perfect` / `auto`) for flags and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GrounderChoice::Simple => "simple",
            GrounderChoice::Perfect => "perfect",
            GrounderChoice::Auto => "auto",
        }
    }
}

/// Monte-Carlo sampling parameters for [`Pipeline::sampler_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McParams {
    /// Per-walk trigger budget (walks beyond it count as abandoned).
    pub max_triggers: usize,
    /// Root seed; per-walk RNG streams are split from it, so estimates are
    /// bit-identical across executors.
    pub seed: u64,
}

impl McParams {
    /// The default parameters: 64 triggers per walk, seed 0.
    pub fn new() -> Self {
        McParams {
            max_triggers: 64,
            seed: 0,
        }
    }

    /// Override the per-walk trigger budget.
    pub fn with_max_triggers(mut self, max_triggers: usize) -> Self {
        self.max_triggers = max_triggers;
        self
    }

    /// Override the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for McParams {
    fn default() -> Self {
        Self::new()
    }
}

/// A configured evaluation pipeline.
pub struct Pipeline {
    sigma: Arc<SigmaPi>,
    grounder: Box<dyn Grounder>,
    budget: ChaseBudget,
    order: TriggerOrder,
    limits: StableModelLimits,
    /// Shared so a resident [`crate::api::Solver`] can run many pipelines
    /// (one per solve configuration) with one thread count.
    executor: Arc<Executor>,
    /// Cooperative cancellation token observed at every chase node, every
    /// grounding saturation round, every stable-model branch decision and
    /// every Monte-Carlo walk step. Defaults to a token that never fires.
    cancel: CancelToken,
}

impl Pipeline {
    /// Build a pipeline for `program` on `database` with the default
    /// (simple) grounder and default budgets.
    pub fn new(program: &Program, database: &Database) -> Result<Self, CoreError> {
        Self::with_grounder(program, database, GrounderChoice::Simple)
    }

    /// Build a pipeline choosing the grounder explicitly.
    pub fn with_grounder(
        program: &Program,
        database: &Database,
        choice: GrounderChoice,
    ) -> Result<Self, CoreError> {
        let sigma = Arc::new(SigmaPi::translate(program, database)?);
        Self::from_sigma(sigma, program.has_stratified_negation(), choice)
    }

    /// Build a pipeline over an **already translated** program. This is the
    /// "translate once, solve many" entry point of the resident
    /// [`crate::api::Solver`]: the translation is shared, only grounding and
    /// solving run per pipeline. `stratified` is the source program's
    /// stratification verdict (it drives [`GrounderChoice::Auto`]).
    pub fn from_sigma(
        sigma: Arc<SigmaPi>,
        stratified: bool,
        choice: GrounderChoice,
    ) -> Result<Self, CoreError> {
        let grounder: Box<dyn Grounder> = match choice {
            GrounderChoice::Simple => Box::new(SimpleGrounder::new(sigma.clone())),
            GrounderChoice::Perfect => Box::new(PerfectGrounder::new(sigma.clone())?),
            GrounderChoice::Auto => {
                if stratified {
                    Box::new(PerfectGrounder::new(sigma.clone())?)
                } else {
                    Box::new(SimpleGrounder::new(sigma.clone()))
                }
            }
        };
        Ok(Pipeline {
            sigma,
            grounder,
            budget: ChaseBudget::default(),
            order: TriggerOrder::First,
            limits: StableModelLimits::default(),
            // Sequential unless GDLOG_THREADS says otherwise; results are
            // bit-identical either way, so the env knob (and the CI thread
            // matrix built on it) can fan every pipeline consumer's
            // Monte-Carlo walks out without touching call sites.
            executor: Arc::new(Executor::from_env()),
            cancel: CancelToken::never(),
        })
    }

    /// Override the chase budget.
    pub fn budget(mut self, budget: ChaseBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Override the trigger-selection order.
    pub fn trigger_order(mut self, order: TriggerOrder) -> Self {
        self.order = order;
        self
    }

    /// Override the stable-model search limits.
    pub fn stable_limits(mut self, limits: StableModelLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Fan Monte-Carlo walks out to this many worker threads; the chase and
    /// the stable-model search always run on the calling thread. `1` is
    /// sequential, `0` means one thread per available CPU. Results are
    /// bit-identical for every value — the thread count only changes
    /// wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.executor = Arc::new(Executor::new(threads));
        self
    }

    /// Run on a shared executor (the server gives every session's
    /// pipelines one thread count this way).
    pub fn with_executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = executor;
        self
    }

    /// Observe `cancel` throughout the pipeline: the chase cuts cancelled
    /// subtrees to residual mass (a graceful, exact partial result), while
    /// grounding, factor analysis, stable-model search and Monte-Carlo — all
    /// exact-or-nothing — surface [`CoreError::Interrupted`]. The token is
    /// also installed into the grounder, so in-flight saturations stop at
    /// their next round.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.grounder.set_cancel(cancel.clone());
        self.cancel = cancel;
        self
    }

    /// The execution policy in use.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The translated program.
    pub fn sigma(&self) -> &SigmaPi {
        &self.sigma
    }

    /// The grounder in use.
    pub fn grounder(&self) -> &dyn Grounder {
        self.grounder.as_ref()
    }

    /// Run the chase enumeration only.
    pub fn chase(&self) -> Result<ChaseResult, CoreError> {
        enumerate_outcomes_cancellable(
            self.grounder.as_ref(),
            &self.budget,
            self.order,
            &self.cancel,
        )
    }

    /// Run the full pipeline: chase, stable models, output space.
    ///
    /// The stable-model back-end searches each outcome's rules in place, in
    /// chase order on the calling thread. Nothing is memoized: two leaves
    /// of one chase always differ in their choices, so no two outcomes
    /// share a program. With the perfect grounder nothing is searched
    /// either: it grounds a rule only when no negative body atom is
    /// derivable from the complete lower strata (Definition 5.1), so each
    /// outcome's one stable model is its heads plus its choices' results,
    /// and the outcome is keyed from them
    /// ([`OutputSpace::from_chase_cancellable`]). Results are bit-identical
    /// at every thread count.
    pub fn solve(&self) -> Result<OutputSpace, CoreError> {
        self.space_from_chase(self.chase()?)
    }

    fn space_from_chase(&self, chase: ChaseResult) -> Result<OutputSpace, CoreError> {
        OutputSpace::from_chase_cancellable(chase, &self.limits, &self.cancel)
    }

    /// The chase-independence analysis for this pipeline's program and
    /// budget: the components an independent per-component chase would run,
    /// or `None` when the program should take the flat path. Like
    /// [`Pipeline::factor_analysis`], it polls the pipeline's cancel token.
    pub fn factor_components(&self) -> Result<Option<Vec<ChaseComponent>>, CoreError> {
        self.factor_analysis().map(|(components, _)| components)
    }

    /// [`Pipeline::factor_components`] plus the [`FactorAnalysis`] verdict:
    /// `Static` when the predicate-level analysis alone decided (no universe
    /// saturation ran), `Dynamic` when the saturation-based analysis ran,
    /// seeded by the static components.
    pub fn factor_analysis(
        &self,
    ) -> Result<(Option<Vec<ChaseComponent>>, FactorAnalysis), CoreError> {
        factor::analyze_cancellable(&self.sigma, &self.budget, &self.cancel)
    }

    /// How many independent factors [`Pipeline::solve_factored`] would use
    /// (one on the flat path).
    pub fn factor_count(&self) -> Result<usize, CoreError> {
        Ok(self.factor_components()?.map_or(1, |c| c.len()))
    }

    /// Run the full pipeline with front-of-pipeline factorization: when the
    /// ground program splits into chase-independent components, chase and
    /// solve each component separately and answer queries from the *product*
    /// of the per-component output spaces — exact inference past the `2^n`
    /// wall of the flat enumeration. Programs with a single component take
    /// the flat chase, whose [`Pipeline::solve`] space becomes the one
    /// factor.
    pub fn solve_factored(&self) -> Result<FactoredOutputSpace, CoreError> {
        self.solve_with(SolveStrategy::Factored)
            .map(|(space, _)| space)
    }

    /// Solve under `strategy` into the product space every query answers
    /// from, plus the [`FactorAnalysis`] verdict when the factor analysis
    /// ran (`None` on the flat strategy). [`SolveStrategy::Auto`] resolves
    /// via the static analysis alone: flat when a `min_path_probability`
    /// cut is set (joint-mass cuts never factorize) or when
    /// [`certainly_single_trigger`] certifies at most one trigger, factored
    /// otherwise.
    ///
    /// Each factor is chased by a simple grounder over its own Σ_Π slice
    /// ([`ChaseComponent::slice`]), whatever grounder the pipeline is
    /// configured with, and the product keeps the slices for Monte-Carlo
    /// ([`Pipeline::estimate_atoms`]) unless `max_branching` cut a support
    /// ([`ChaseComponent::support_cut`]). Stable-model solving per factor
    /// reuses the pipeline's limits.
    pub fn solve_with(
        &self,
        strategy: SolveStrategy,
    ) -> Result<(FactoredOutputSpace, Option<FactorAnalysis>), CoreError> {
        let (components, analysis) = match resolve_strategy(strategy, &self.sigma, &self.budget) {
            SolveStrategy::Factored => {
                let (components, analysis) = self.factor_analysis()?;
                (components, Some(analysis))
            }
            _ => (None, None),
        };
        let Some(components) = components else {
            let factor = Factor {
                atoms: BTreeSet::new(),
                space: self.solve()?,
            };
            return Ok((FactoredOutputSpace::new(vec![factor]), analysis));
        };
        let mut factors = Vec::with_capacity(components.len());
        let mut slices = Vec::with_capacity(components.len());
        let mut support_cut = false;
        for component in components {
            let grounder = slice_grounder(&component.slice, &self.cancel);
            let chase =
                enumerate_outcomes_cancellable(&grounder, &self.budget, self.order, &self.cancel)?;
            factors.push(Factor {
                atoms: component.atoms,
                space: self.space_from_chase(chase)?,
            });
            support_cut |= component.support_cut;
            slices.push(component.slice);
        }
        let mut space = FactoredOutputSpace::new(factors);
        if !support_cut {
            space = space.with_slices(slices);
        }
        Ok((space, analysis))
    }

    /// A Monte-Carlo estimator over the same grounder (sharing the
    /// pipeline's executor) with the default [`McParams`].
    pub fn sampler(&self) -> MonteCarlo<'_> {
        self.sampler_with(McParams::new())
    }

    /// A Monte-Carlo estimator with explicit [`McParams`].
    pub fn sampler_with(&self, params: McParams) -> MonteCarlo<'_> {
        MonteCarlo::new(self.grounder.as_ref(), params.max_triggers, params.seed)
            .with_executor(&self.executor)
            .with_cancel(self.cancel.clone())
    }

    /// Monte-Carlo estimates of `P(atom ∈ heads(G(Σ)))` over finite walks,
    /// one per atom, for a `space` this pipeline solved, observing `cancel`
    /// at every walk step. Zero `samples` is a request error.
    ///
    /// When the product keeps its factors' slices, atoms are grouped by the
    /// factor that holds them (`FactoredOutputSpace::factor_of`) and each
    /// group's `samples` walks are drawn once over its slice alone, every
    /// walk counting a hit for each atom of the group: `params.max_triggers`
    /// bounds each factor's walk, and the product measure makes an atom's
    /// marginal the same as over the whole program. An atom no factor holds
    /// is underivable: mean zero, no walk, none abandoned. Otherwise — a
    /// one-factor product, or a support that `max_branching` cut, which
    /// walks can leave the universe through ([`ChaseComponent::support_cut`])
    /// — one set of walks covers the whole program with this pipeline's
    /// grounder, exactly as [`Pipeline::sampler_with`] draws them.
    pub fn estimate_atoms(
        &self,
        space: &FactoredOutputSpace,
        atoms: &[GroundAtom],
        samples: usize,
        params: McParams,
        cancel: &CancelToken,
    ) -> Result<Vec<SampleStats>, CoreError> {
        if samples == 0 {
            return Err(CoreError::Request(
                "`--mc` needs at least one sample".into(),
            ));
        }
        // `heads(G(Σ) ∪ Σ)`, tested in place: no program copy.
        let events = |group: &[usize]| -> Vec<_> {
            group
                .iter()
                .map(|&i| {
                    let atom = &atoms[i];
                    move |outcome: &PossibleOutcome| {
                        outcome.rules.heads().contains(atom)
                            || outcome.atr.iter().any(|choice| choice.result == *atom)
                    }
                })
                .collect()
        };
        let Some(slices) = space.slices() else {
            let all: Vec<usize> = (0..atoms.len()).collect();
            return self
                .sampler_with(params)
                .with_cancel(cancel.clone())
                .estimate_each(samples, &events(&all));
        };
        let unwalked = SampleStats {
            estimate: Estimate::from_bernoulli(0, samples),
            abandoned: 0,
            samples,
        };
        let mut stats = vec![unwalked; atoms.len()];
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, atom) in atoms.iter().enumerate() {
            if let Some(j) = space.factor_of(atom) {
                groups.entry(j).or_default().push(i);
            }
        }
        for (j, group) in groups {
            let grounder = slice_grounder(&slices[j], cancel);
            let estimates = MonteCarlo::new(&grounder, params.max_triggers, params.seed)
                .with_executor(&self.executor)
                .with_cancel(cancel.clone())
                .estimate_each(samples, &events(&group))?;
            for (i, estimate) in group.into_iter().zip(estimates) {
                stats[i] = estimate;
            }
        }
        Ok(stats)
    }
}

/// A simple grounder over one factor's slice, observing `cancel`.
fn slice_grounder(slice: &Arc<SigmaPi>, cancel: &CancelToken) -> SimpleGrounder {
    let mut grounder = SimpleGrounder::new(Arc::clone(slice));
    grounder.set_cancel(cancel.clone());
    grounder
}

/// Resolve [`SolveStrategy::Auto`] to a concrete strategy via the static
/// analysis alone (no saturation): flat when a `min_path_probability` cut is
/// set or when [`certainly_single_trigger`] certifies at most one trigger,
/// factored otherwise (the factored path's dynamic analysis still falls back
/// to the flat chase when the program turns out not to factor).
pub(crate) fn resolve_strategy(
    strategy: SolveStrategy,
    sigma: &SigmaPi,
    budget: &ChaseBudget,
) -> SolveStrategy {
    match strategy {
        SolveStrategy::Auto => {
            if budget.min_path_probability > 0.0 || certainly_single_trigger(sigma) {
                SolveStrategy::Flat
            } else {
                SolveStrategy::Factored
            }
        }
        concrete => concrete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use gdlog_data::Const;
    use gdlog_prob::Prob;

    fn network_db() -> Database {
        let mut db = Database::new();
        for i in 1..=3i64 {
            db.insert_fact("Router", [Const::Int(i)]);
            for j in 1..=3i64 {
                if i != j {
                    db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
                }
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        db
    }

    #[test]
    fn end_to_end_example_3_10() {
        let pipeline = Pipeline::new(&network_resilience_program(0.1), &network_db()).unwrap();
        let space = pipeline.solve().unwrap();
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(19, 100));
        assert_eq!(space.residual_mass(), Prob::ZERO);
    }

    #[test]
    fn auto_grounder_selection() {
        // Stratified → perfect.
        let p = Pipeline::with_grounder(
            &dime_quarter_program(),
            &Database::new(),
            GrounderChoice::Auto,
        )
        .unwrap();
        assert_eq!(p.grounder().name(), "perfect");
        // Non-stratified → simple.
        let p = Pipeline::with_grounder(&coin_program(), &Database::new(), GrounderChoice::Auto)
            .unwrap();
        assert_eq!(p.grounder().name(), "simple");
        // Forcing the perfect grounder on a non-stratified program fails.
        assert!(Pipeline::with_grounder(
            &coin_program(),
            &Database::new(),
            GrounderChoice::Perfect
        )
        .is_err());
    }

    #[test]
    fn builder_style_configuration() {
        let pipeline = Pipeline::new(&coin_program(), &Database::new())
            .unwrap()
            .budget(ChaseBudget::small())
            .trigger_order(TriggerOrder::Last)
            .stable_limits(StableModelLimits::default());
        let chase = pipeline.chase().unwrap();
        assert_eq!(chase.outcomes.len(), 2);
        let space = pipeline.solve().unwrap();
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(1, 2));
        assert!(pipeline.sigma().atr_schemas().len() == 1);
    }

    #[test]
    fn repeated_and_parallel_solves_are_bit_identical() {
        let pipeline = Pipeline::new(&network_resilience_program(0.1), &network_db()).unwrap();
        let first = pipeline.solve().unwrap();
        let second = pipeline.solve().unwrap();
        assert_eq!(first.events_by_mass(), second.events_by_mass());

        // A parallel pipeline produces a bit-identical output space.
        let par = Pipeline::new(&network_resilience_program(0.1), &network_db())
            .unwrap()
            .threads(4);
        assert_eq!(
            par.solve().unwrap().events_by_mass(),
            first.events_by_mass()
        );
    }

    #[test]
    fn monte_carlo_from_pipeline() {
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        let params = McParams::new().with_max_triggers(16).with_seed(11);
        assert_eq!((params.max_triggers, params.seed), (16, 11));
        let heads_coin = |outcome: &crate::outcome::PossibleOutcome| {
            outcome
                .rules
                .heads()
                .contains(&gdlog_data::GroundAtom::make("Coin", vec![Const::Int(1)]))
        };
        let stats = pipeline
            .sampler_with(params)
            .estimate(500, heads_coin)
            .unwrap();
        assert!(stats.estimate.consistent_with(0.5, 4.0));
        // The walk RNG is seed-split, so a second estimator with the same
        // params reproduces the estimates bit for bit.
        let again = pipeline
            .sampler_with(params)
            .estimate(500, heads_coin)
            .unwrap();
        assert_eq!(again.estimate.mean, stats.estimate.mean);
        assert_eq!(again.abandoned, stats.abandoned);
        // Default params are a plain sampler.
        assert_eq!(McParams::default(), McParams::new());
        let _ = pipeline.sampler();
    }
}
