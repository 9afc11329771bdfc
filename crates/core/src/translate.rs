//! Translation from GDatalog¬\[Δ\] to TGD¬ (Section 3).
//!
//! A rule `R₁(ū₁), …, ¬P₁(v̄₁), … → R₀(w̄)` whose head contains Δ-terms
//! `δⱼ⟨p̄ⱼ⟩[q̄ⱼ]` is translated into
//!
//! * one rule `body → Activeᵟʲ(p̄ⱼ, q̄ⱼ)` per Δ-term,
//! * one *active-to-result* (AtR) TGD
//!   `Activeᵟʲ(p̄ⱼ, q̄ⱼ) → ∃yⱼ Resultᵟʲ(p̄ⱼ, q̄ⱼ, yⱼ)` per Δ-term, and
//! * one rule `Resultᵟ¹(…, y₁), …, body → R₀(w̄′)` where `w̄′` replaces every
//!   Δ-term by its fresh variable.
//!
//! The AtR TGDs — the only existential rules — encode the probabilistic
//! choices; everything else is an existential-free TGD¬ ([`TgdRule`]). The
//! program `Σ_Π[D]` additionally contains a fact rule `→ α` for every `α ∈ D`.
//!
//! Naming: the paper writes `Active^δ_{|q̄|}`; because a distribution such as
//! `Categorical` may be used with several parameter dimensions we refine the
//! name to `Active_<dist>_<|p̄|>_<|q̄|>` (and likewise for `Result`). These
//! generated predicate names are considered reserved.

use crate::error::CoreError;
use crate::join::JoinPlan;
use crate::program::Program;
use crate::rule::{HeadTerm, Rule};
use gdlog_data::{Atom, Const, Database, GroundAtom, Predicate, Term, Var, WordMap};
use gdlog_prob::{DeltaRegistry, DistError, Distribution, Prob};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An existential-free TGD¬ of `Σ∄_Π[D]`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TgdRule {
    /// Positive body atoms.
    pub pos: Vec<Atom>,
    /// Atoms of the negative body literals.
    pub neg: Vec<Atom>,
    /// The head atom.
    pub head: Atom,
    /// The head predicate of the originating GDatalog¬\[Δ\] rule (for facts,
    /// the fact's predicate). The perfect grounder groups rules by the
    /// stratum of this predicate.
    pub origin_head: Predicate,
}

impl fmt::Display for TgdRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.pos {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        for a in &self.neg {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "not {a}")?;
            first = false;
        }
        if first {
            write!(f, "-> {}.", self.head)
        } else {
            write!(f, " -> {}.", self.head)
        }
    }
}

/// The schema of one family of active-to-result TGDs
/// `Active_δ_k_l(p̄, q̄) → ∃y Result_δ_k_l(p̄, q̄, y)`.
#[derive(Clone, Debug, PartialEq)]
pub struct AtrSchema {
    /// The distribution name as written in the program.
    pub distribution_name: String,
    /// The resolved distribution.
    pub distribution: Distribution,
    /// The `Active` predicate (arity `|p̄| + |q̄|`).
    pub active: Predicate,
    /// The `Result` predicate (arity `|p̄| + |q̄| + 1`).
    pub result: Predicate,
    /// `|p̄|`.
    pub param_len: usize,
    /// `|q̄|`.
    pub event_len: usize,
}

impl AtrSchema {
    /// Split a ground `Active` atom into its distribution parameters and
    /// event signature.
    pub fn split_active<'a>(&self, active: &'a GroundAtom) -> (&'a [Const], &'a [Const]) {
        debug_assert_eq!(active.predicate, self.active);
        active.args.split_at(self.param_len)
    }

    /// Build the ground `Result` atom for an `Active` atom and an outcome.
    pub fn result_atom(&self, active: &GroundAtom, outcome: Const) -> GroundAtom {
        debug_assert_eq!(active.predicate, self.active);
        let mut args = active.args.clone();
        args.push(outcome);
        GroundAtom {
            predicate: self.result,
            args,
        }
    }

    /// The probability `δ⟨p̄⟩(o)` of `outcome` for the given `Active` atom.
    pub fn outcome_probability(
        &self,
        active: &GroundAtom,
        outcome: &Const,
    ) -> Result<Prob, DistError> {
        let (params, _) = self.split_active(active);
        self.distribution.pmf(params, outcome)
    }

    /// Enumerate up to `max` outcomes with positive probability for the given
    /// `Active` atom.
    pub fn outcomes(
        &self,
        active: &GroundAtom,
        max: usize,
    ) -> Result<Vec<(Const, Prob)>, DistError> {
        let (params, _) = self.split_active(active);
        self.distribution.enumerate(params, max)
    }

    /// Does `δ⟨p̄⟩` have finite support?
    pub fn has_finite_support(&self) -> bool {
        self.distribution.has_finite_support()
    }
}

/// The translated program `Σ_Π[D]`, split into its existential-free part
/// `Σ∄` ([`SigmaPi::rules`]) and the schemas of its AtR TGDs `Σ∃`
/// ([`SigmaPi::atr_schemas`]).
///
/// Everything but the rule list lives behind an `Arc`, so a
/// slice — one chase component's share of the rules — shares
/// the AtR schemas and the schema indexes with its parent. Each rule's join
/// plan is compiled once, at translation, and shared by every slice that
/// keeps the rule.
#[derive(Clone, Debug)]
pub struct SigmaPi {
    /// The existential-free TGD¬ rules (including one fact rule per database
    /// atom). Read-only: the grounders match through plans compiled from
    /// these rules at translation.
    pub rules: Vec<TgdRule>,
    /// `plans[i]` is `rules[i]` compiled for matching.
    plans: Vec<Arc<JoinPlan>>,
    choices: Arc<Choices>,
}

/// The parts of `Σ_Π[D]` besides its rules: fixed by the translation and
/// shared by every slice.
#[derive(Debug)]
struct Choices {
    /// The AtR TGD schemas, one per distinct `(δ, |p̄|, |q̄|)` combination.
    atr_schemas: Vec<AtrSchema>,
    active_index: WordMap<Predicate, usize>,
    original_schema: BTreeSet<Predicate>,
}

impl SigmaPi {
    /// Translate `Π[D]` into `Σ_Π[D]`.
    ///
    /// The program is validated first; the database must only use predicates
    /// of `edb(Π)` or predicates not mentioned by the program at all (extra
    /// relations are allowed and simply become facts).
    pub fn translate(program: &Program, database: &Database) -> Result<SigmaPi, CoreError> {
        program.validate()?;
        let mut choices = Choices {
            atr_schemas: Vec::new(),
            active_index: WordMap::default(),
            original_schema: program.schema().iter().copied().collect(),
        };
        for p in database.predicates() {
            choices.original_schema.insert(*p);
        }

        // Σ[D]: one fact rule per database atom.
        let mut rules: Vec<TgdRule> = database
            .canonical_atoms()
            .into_iter()
            .map(|fact| TgdRule {
                pos: Vec::new(),
                neg: Vec::new(),
                head: fact.to_atom(),
                origin_head: fact.predicate,
            })
            .collect();

        for rule in program.rules() {
            choices.translate_rule(rule, program.delta(), &mut rules)?;
        }
        Ok(SigmaPi {
            plans: rules
                .iter()
                .map(|rule| Arc::new(JoinPlan::compile(rule)))
                .collect(),
            rules,
            choices: Arc::new(choices),
        })
    }

    /// The program over the rules at `indices` (in that order) that shares
    /// this one's AtR schemas, original schema and the rules' join plans:
    /// the Σ_Π slice one chase component is chased and sampled over.
    pub(crate) fn slice(&self, indices: &[usize]) -> SigmaPi {
        SigmaPi {
            rules: indices.iter().map(|&i| self.rules[i].clone()).collect(),
            plans: indices
                .iter()
                .map(|&i| Arc::clone(&self.plans[i]))
                .collect(),
            choices: Arc::clone(&self.choices),
        }
    }

    /// The join plans of [`SigmaPi::rules`], index for index.
    pub(crate) fn plans(&self) -> &[Arc<JoinPlan>] {
        &self.plans
    }

    /// The AtR TGD schemas, one per distinct `(δ, |p̄|, |q̄|)` combination.
    pub fn atr_schemas(&self) -> &[AtrSchema] {
        &self.choices.atr_schemas
    }

    /// Is `p` one of the generated `Active` predicates?
    pub fn is_active_predicate(&self, p: &Predicate) -> bool {
        self.choices.active_index.contains_key(p)
    }

    /// The AtR schema whose `Active` predicate is `p`.
    pub fn schema_for_active(&self, p: &Predicate) -> Option<&AtrSchema> {
        let choices = &*self.choices;
        choices
            .active_index
            .get(p)
            .map(|&i| &choices.atr_schemas[i])
    }

    /// The AtR schema whose `Result` predicate is `p`.
    pub fn schema_for_result(&self, p: &Predicate) -> Option<&AtrSchema> {
        self.atr_schemas().iter().find(|s| s.result == *p)
    }

    /// The predicates of the original program and database (everything except
    /// the generated `Active`/`Result` predicates).
    pub fn original_schema(&self) -> &BTreeSet<Predicate> {
        &self.choices.original_schema
    }

    /// Strip the generated `Active` and `Result` atoms from an instance —
    /// "modulo active" in the terminology of Appendix C (we also drop Result
    /// atoms, which Appendix C keeps, via [`SigmaPi::strip_active_only`] if
    /// needed).
    pub fn strip_generated(&self, instance: &Database) -> Database {
        Database::from_atoms(
            instance
                .iter()
                .filter(|a| self.original_schema().contains(&a.predicate))
                .cloned(),
        )
    }

    /// Drop only the `Active` atoms from an instance, keeping `Result` atoms
    /// (the "modulo active" view used by Theorem C.4).
    pub fn strip_active_only(&self, instance: &Database) -> Database {
        Database::from_atoms(
            instance
                .iter()
                .filter(|a| !self.is_active_predicate(&a.predicate))
                .cloned(),
        )
    }
}

impl Choices {
    fn translate_rule(
        &mut self,
        rule: &Rule,
        delta_registry: &DeltaRegistry,
        rules: &mut Vec<TgdRule>,
    ) -> Result<(), CoreError> {
        let deltas = rule.head.delta_terms();
        let origin_head = rule.head.predicate;
        if deltas.is_empty() {
            let head = rule
                .head
                .as_atom()
                .expect("head without Δ-terms converts to an atom");
            rules.push(TgdRule {
                pos: rule.pos.clone(),
                neg: rule.neg.clone(),
                head,
                origin_head,
            });
            return Ok(());
        }

        let used_vars: BTreeSet<Var> = rule
            .positive_variables()
            .into_iter()
            .chain(rule.head.variables())
            .collect();

        let mut result_atoms: Vec<Atom> = Vec::new();
        let mut fresh_vars: Vec<Var> = Vec::new();
        for (j, (_, delta)) in deltas.iter().enumerate() {
            let distribution = delta_registry.get(&delta.distribution)?;
            let schema_idx = self.ensure_schema(
                &delta.distribution,
                distribution,
                delta.params.len(),
                delta.event.len(),
            );
            let schema = &self.atr_schemas[schema_idx];

            // body → Active(p̄, q̄)
            let mut active_args: Vec<Term> = delta.params.clone();
            active_args.extend(delta.event.iter().copied());
            let active_atom = Atom {
                predicate: schema.active,
                args: active_args.clone(),
            };
            rules.push(TgdRule {
                pos: rule.pos.clone(),
                neg: rule.neg.clone(),
                head: active_atom,
                origin_head,
            });

            // Fresh variable yⱼ for the Result atom / new head.
            let fresh = fresh_variable(&used_vars, j);
            fresh_vars.push(fresh);
            let mut result_args = active_args;
            result_args.push(Term::Var(fresh));
            result_atoms.push(Atom {
                predicate: schema.result,
                args: result_args,
            });
        }

        // Result atoms + original body → head with Δ-terms replaced by yⱼ.
        let mut new_head_args: Vec<Term> = Vec::with_capacity(rule.head.args.len());
        let mut delta_counter = 0usize;
        for arg in &rule.head.args {
            match arg {
                HeadTerm::Term(t) => new_head_args.push(*t),
                HeadTerm::Delta(_) => {
                    new_head_args.push(Term::Var(fresh_vars[delta_counter]));
                    delta_counter += 1;
                }
            }
        }
        let mut pos = result_atoms;
        pos.extend(rule.pos.iter().cloned());
        rules.push(TgdRule {
            pos,
            neg: rule.neg.clone(),
            head: Atom {
                predicate: rule.head.predicate,
                args: new_head_args,
            },
            origin_head,
        });
        Ok(())
    }

    fn ensure_schema(
        &mut self,
        name: &str,
        distribution: Distribution,
        param_len: usize,
        event_len: usize,
    ) -> usize {
        let active_name = format!("Active_{name}_{param_len}_{event_len}");
        let active = Predicate::new(&active_name, param_len + event_len);
        if let Some(&idx) = self.active_index.get(&active) {
            return idx;
        }
        let result_name = format!("Result_{name}_{param_len}_{event_len}");
        let schema = AtrSchema {
            distribution_name: name.to_owned(),
            distribution,
            active,
            result: Predicate::new(&result_name, param_len + event_len + 1),
            param_len,
            event_len,
        };
        self.atr_schemas.push(schema);
        let idx = self.atr_schemas.len() - 1;
        self.active_index.insert(active, idx);
        idx
    }
}

fn fresh_variable(used: &BTreeSet<Var>, index: usize) -> Var {
    let mut name = format!("__y{index}");
    while used.contains(&Var::new(&name)) {
        name.push('_');
    }
    Var::new(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use gdlog_data::Const;

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
    fn example_3_2_translation_shape() {
        let program = network_resilience_program(0.1);
        let db = network_db();
        let sigma = SigmaPi::translate(&program, &db).unwrap();

        // Exactly one AtR schema: Flip with one parameter and a two-place
        // event signature.
        assert_eq!(sigma.atr_schemas().len(), 1);
        let schema = &sigma.atr_schemas()[0];
        assert_eq!(schema.distribution_name, "Flip");
        assert_eq!(schema.param_len, 1);
        assert_eq!(schema.event_len, 2);
        assert_eq!(schema.active.arity(), 3);
        assert_eq!(schema.result.arity(), 4);
        assert!(sigma.is_active_predicate(&schema.active));
        assert!(sigma.schema_for_result(&schema.result).is_some());

        // Rules: 10 facts + (infection rule → 2 rules) + uninfected rule +
        // constraint rule + fail/aux rule = 15.
        assert_eq!(sigma.rules.len(), 15);

        // The probabilistic rule produced a body → Active rule and a
        // Result + body → Infected rule (Example 3.2).
        let active_rules: Vec<_> = sigma
            .rules
            .iter()
            .filter(|r| r.head.predicate == schema.active)
            .collect();
        assert_eq!(active_rules.len(), 1);
        assert_eq!(active_rules[0].pos.len(), 2);

        let head_rules: Vec<_> = sigma
            .rules
            .iter()
            .filter(|r| {
                r.head.predicate == Predicate::new("Infected", 2)
                    && r.pos.iter().any(|a| a.predicate == schema.result)
            })
            .collect();
        assert_eq!(head_rules.len(), 1);
        assert_eq!(head_rules[0].pos.len(), 3);
    }

    #[test]
    fn coin_translation_creates_zero_event_schema() {
        let program = coin_program();
        let sigma = SigmaPi::translate(&program, &Database::new()).unwrap();
        assert_eq!(sigma.atr_schemas().len(), 1);
        let schema = &sigma.atr_schemas()[0];
        assert_eq!(schema.event_len, 0);
        assert_eq!(schema.active.arity(), 1);
        // → Coin(Flip⟨0.5⟩) becomes a bodyless rule deriving the Active atom.
        assert!(sigma
            .rules
            .iter()
            .any(|r| r.head.predicate == schema.active && r.pos.is_empty()));
    }

    #[test]
    fn deduplication_of_schemas_across_rules() {
        // The dime/quarter program uses Flip⟨0.5⟩[x] in two different rules:
        // one schema, shared.
        let program = dime_quarter_program();
        let sigma = SigmaPi::translate(&program, &Database::new()).unwrap();
        assert_eq!(sigma.atr_schemas().len(), 1);
        // Σ∄ rules: 2 per probabilistic rule + 1 plain rule = 5.
        assert_eq!(sigma.rules.len(), 5);
    }

    #[test]
    fn atr_schema_helpers() {
        let program = network_resilience_program(0.1);
        let sigma = SigmaPi::translate(&program, &network_db()).unwrap();
        let schema = &sigma.atr_schemas()[0];
        let active = GroundAtom {
            predicate: schema.active,
            args: vec![Const::real(0.1).unwrap(), Const::Int(1), Const::Int(2)],
        };
        let (params, event) = schema.split_active(&active);
        assert_eq!(params.len(), 1);
        assert_eq!(event, &[Const::Int(1), Const::Int(2)]);
        let result = schema.result_atom(&active, Const::Int(1));
        assert_eq!(result.predicate, schema.result);
        assert_eq!(result.args.len(), 4);
        assert_eq!(
            schema.outcome_probability(&active, &Const::Int(1)).unwrap(),
            Prob::ratio(1, 10)
        );
        assert_eq!(schema.outcomes(&active, 10).unwrap().len(), 2);
        assert!(schema.has_finite_support());
    }

    #[test]
    fn strip_generated_and_active_only() {
        let program = coin_program();
        let sigma = SigmaPi::translate(&program, &Database::new()).unwrap();
        let schema = &sigma.atr_schemas()[0];
        let active = GroundAtom {
            predicate: schema.active,
            args: vec![Const::real(0.5).unwrap()],
        };
        let result = schema.result_atom(&active, Const::Int(1));
        let mut instance = Database::new();
        instance.insert(active.clone());
        instance.insert(result.clone());
        instance.insert_fact("Coin", [Const::Int(1)]);

        let stripped = sigma.strip_generated(&instance);
        assert_eq!(stripped.len(), 1);
        let modulo_active = sigma.strip_active_only(&instance);
        assert_eq!(modulo_active.len(), 2);
        assert!(modulo_active.contains(&result));
    }

    #[test]
    fn fresh_variables_avoid_collisions() {
        let used: BTreeSet<Var> = vec![Var::new("__y0")].into_iter().collect();
        let v = fresh_variable(&used, 0);
        assert_ne!(v, Var::new("__y0"));
    }

    #[test]
    fn fact_rules_carry_their_predicate_as_origin() {
        let program = network_resilience_program(0.1);
        let sigma = SigmaPi::translate(&program, &network_db()).unwrap();
        let fact_rules: Vec<_> = sigma
            .rules
            .iter()
            .filter(|r| r.pos.is_empty() && r.neg.is_empty())
            .collect();
        assert_eq!(fact_rules.len(), 10);
        assert!(fact_rules.iter().all(|r| r.origin_head == r.head.predicate));
    }

    #[test]
    fn display_of_translated_rules() {
        let program = network_resilience_program(0.1);
        let sigma = SigmaPi::translate(&program, &Database::new()).unwrap();
        let text: Vec<String> = sigma.rules.iter().map(|r| r.to_string()).collect();
        assert!(text.iter().any(|t| t.contains("Active_Flip_1_2")));
        assert!(text.iter().any(|t| t.contains("Result_Flip_1_2")));
    }
}
