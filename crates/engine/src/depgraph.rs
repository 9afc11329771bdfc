//! Predicate-level dependency graphs, strongly connected components and
//! stratification.
//!
//! Section 5 of the paper defines the dependency graph `dg(Π)` of a program:
//! vertices are the predicates of `sch(Π)` and for every rule there is a
//! positive (resp. negative) edge from each predicate of `B⁺` (resp. `B⁻`) to
//! the head predicate. A program has *stratified negation* if no cycle goes
//! through a negative edge; the strongly connected components then admit a
//! topological ordering into strata (used by the perfect grounder,
//! Definition 5.1, and illustrated in Figure 1).
//!
//! This module implements the graph generically over any rule shape by taking
//! explicit edges, plus a convenience constructor from ground programs.

use crate::ground::GroundProgram;
use gdlog_data::Predicate;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The sign of a dependency edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeSign {
    /// The body predicate occurs in a positive literal.
    Positive,
    /// The body predicate occurs in a negative literal.
    Negative,
}

/// The dependency (multi)graph of a program.
#[derive(Clone, Debug, Default)]
pub struct DependencyGraph {
    vertices: BTreeSet<Predicate>,
    /// Edges `from → to` with their sign; a pair may carry both signs.
    edges: BTreeSet<(Predicate, Predicate, EdgeSign)>,
}

impl DependencyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the dependency graph of a ground program.
    pub fn from_ground_program(program: &GroundProgram) -> Self {
        let mut g = Self::new();
        for rule in program.iter() {
            g.add_vertex(rule.head.predicate);
            for a in &rule.pos {
                g.add_edge(a.predicate, rule.head.predicate, EdgeSign::Positive);
            }
            for a in &rule.neg {
                g.add_edge(a.predicate, rule.head.predicate, EdgeSign::Negative);
            }
        }
        g
    }

    /// Add an isolated vertex.
    pub fn add_vertex(&mut self, p: Predicate) {
        self.vertices.insert(p);
    }

    /// Add an edge `from → to` with the given sign (vertices are added as
    /// needed).
    pub fn add_edge(&mut self, from: Predicate, to: Predicate, sign: EdgeSign) {
        self.vertices.insert(from);
        self.vertices.insert(to);
        self.edges.insert((from, to, sign));
    }

    /// All vertices.
    pub fn vertices(&self) -> impl Iterator<Item = &Predicate> {
        self.vertices.iter()
    }

    /// All edges as `(from, to, sign)`.
    pub fn edges(&self) -> impl Iterator<Item = &(Predicate, Predicate, EdgeSign)> {
        self.edges.iter()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Does `to` depend on `from` (is there a directed path)?
    pub fn depends_on(&self, to: &Predicate, from: &Predicate) -> bool {
        if to == from && self.edges.iter().any(|(f, t, _)| f == t && f == from) {
            return true;
        }
        // BFS from `from`.
        let succ = self.successors();
        let mut seen = BTreeSet::new();
        let mut stack = vec![*from];
        while let Some(v) = stack.pop() {
            if let Some(next) = succ.get(&v) {
                for n in next {
                    if *n == *to {
                        return true;
                    }
                    if seen.insert(*n) {
                        stack.push(*n);
                    }
                }
            }
        }
        false
    }

    fn successors(&self) -> BTreeMap<Predicate, BTreeSet<Predicate>> {
        let mut map: BTreeMap<Predicate, BTreeSet<Predicate>> = BTreeMap::new();
        for (f, t, _) in &self.edges {
            map.entry(*f).or_default().insert(*t);
        }
        map
    }

    /// The strongly connected components in topological (bottom-up) order of
    /// the condensation: a component is listed before every component that
    /// depends on it.
    pub fn sccs(&self) -> Vec<Vec<Predicate>> {
        let verts: Vec<Predicate> = self.vertices.iter().copied().collect();
        let index_of: BTreeMap<Predicate, usize> =
            verts.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); verts.len()];
        for (f, t, _) in &self.edges {
            succ[index_of[f]].push(index_of[t]);
        }
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
        }
        sccs_of(verts.len(), &succ)
            .into_iter()
            .map(|comp| {
                let mut comp: Vec<Predicate> = comp.into_iter().map(|i| verts[i]).collect();
                comp.sort();
                comp
            })
            .collect()
    }

    /// Compute a stratification: the SCCs in topological order
    /// (`C₁, …, Cₙ` such that no predicate of `Cᵢ` depends on one of `Cⱼ` for
    /// `j > i`). Returns an error if some cycle goes through a negative edge
    /// (the program is not stratified).
    pub fn stratify(&self) -> Result<Stratification, NotStratified> {
        let sccs = self.sccs();
        // Map predicate → component index (in Tarjan's reverse-topological
        // output, which is already a valid bottom-up ordering).
        let mut component_of: BTreeMap<Predicate, usize> = BTreeMap::new();
        for (i, comp) in sccs.iter().enumerate() {
            for p in comp {
                component_of.insert(*p, i);
            }
        }
        // A negative edge inside a component means a cycle through negation.
        for (f, t, sign) in &self.edges {
            if *sign == EdgeSign::Negative && component_of[f] == component_of[t] {
                return Err(NotStratified { from: *f, to: *t });
            }
        }
        Ok(Stratification {
            strata: sccs,
            component_of,
        })
    }

    /// Is the program stratified (no cycle through a negative edge)?
    pub fn is_stratified(&self) -> bool {
        self.stratify().is_ok()
    }
}

impl fmt::Display for DependencyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "digraph dependencies {{")?;
        for v in &self.vertices {
            writeln!(f, "  \"{v}\";")?;
        }
        for (from, to, sign) in &self.edges {
            let style = match sign {
                EdgeSign::Positive => "solid",
                EdgeSign::Negative => "dashed",
            };
            writeln!(f, "  \"{from}\" -> \"{to}\" [style={style}];")?;
        }
        write!(f, "}}")
    }
}

/// The strongly connected components of an index-based directed graph, in
/// topological (bottom-up) order of the condensation: a component is listed
/// before every component that depends on it (has an edge *from* it).
///
/// Computed with an iterative Tarjan algorithm (which yields the reverse
/// order) followed by a reversal. This is the graph kernel shared by the
/// predicate-level [`DependencyGraph::sccs`] (stratification, Section 5),
/// the branch order of the stable-model search ([`crate::stable`]) and the
/// static analysis's weak-cycle check: callers map their vertices to `0..n`
/// and pass deduplicated adjacency lists.
pub fn sccs_of(n: usize, succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    debug_assert_eq!(succ.len(), n);
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        edge: usize,
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames = vec![Frame { v: start, edge: 0 }];
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(frame) = frames.last_mut() {
            let v = frame.v;
            if frame.edge < succ[v].len() {
                let w = succ[v][frame.edge];
                frame.edge += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push(Frame { v: w, edge: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
                frames.pop();
                if let Some(parent) = frames.last() {
                    let pv = parent.v;
                    low[pv] = low[pv].min(low[v]);
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order; flip it so
    // dependencies come first (the `C₁, …, Cₙ` ordering of Section 5).
    out.reverse();
    out
}

/// The connected components of the undirected graph on `0..n` given by an
/// edge list (each edge read in both directions), each sorted, ordered by
/// smallest member.
///
/// This is the one independence kernel: the stable-model search splits each
/// residual program with it, and the chase-factorization analysis
/// (`gdlog-core::factor`) and its static prediction partition atoms and
/// predicates with it. Two vertices land in the same component exactly when
/// some chain of edges connects them, so distinct components share no
/// dependencies at all. Union-find with path halving; the larger root joins
/// the smaller, so every root is its component's smallest member.
pub fn connected_components(
    n: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for (a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra.max(rb)] = ra.min(rb);
    }
    // Ascending scan: a root is met before the rest of its component.
    let mut slot = vec![0usize; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        let root = find(&mut parent, v);
        if root == v {
            slot[v] = comps.len();
            comps.push(Vec::new());
        }
        comps[slot[root]].push(v);
    }
    comps
}

/// Error returned when a program is not stratified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotStratified {
    /// Source predicate of a negative edge inside a cycle.
    pub from: Predicate,
    /// Target predicate of that edge.
    pub to: Predicate,
}

impl fmt::Display for NotStratified {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not stratified: negative edge {} -> {} lies on a cycle",
            self.from, self.to
        )
    }
}

impl std::error::Error for NotStratified {}

/// A stratification: the SCCs of the dependency graph in bottom-up
/// topological order.
#[derive(Clone, Debug)]
pub struct Stratification {
    strata: Vec<Vec<Predicate>>,
    component_of: BTreeMap<Predicate, usize>,
}

impl Stratification {
    /// The strata `C₁, …, Cₙ` in topological (bottom-up) order.
    pub fn strata(&self) -> &[Vec<Predicate>] {
        &self.strata
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Is the stratification empty (no predicates)?
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// The stratum index of a predicate, if it occurs in the graph.
    pub fn stratum_of(&self, p: &Predicate) -> Option<usize> {
        self.component_of.get(p).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundRule;
    use gdlog_data::{Const, GroundAtom};

    fn pred(name: &str, arity: usize) -> Predicate {
        Predicate::new(name, arity)
    }

    fn atom1(name: &str, arg: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(arg)])
    }

    #[test]
    fn edges_and_vertices() {
        let mut g = DependencyGraph::new();
        g.add_edge(pred("A", 1), pred("B", 1), EdgeSign::Positive);
        g.add_edge(pred("B", 1), pred("C", 1), EdgeSign::Negative);
        g.add_vertex(pred("D", 0));
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert!(g.depends_on(&pred("C", 1), &pred("A", 1)));
        assert!(!g.depends_on(&pred("A", 1), &pred("C", 1)));
        assert!(!g.depends_on(&pred("D", 0), &pred("A", 1)));
    }

    #[test]
    fn sccs_of_a_cycle() {
        let mut g = DependencyGraph::new();
        g.add_edge(pred("A", 0), pred("B", 0), EdgeSign::Positive);
        g.add_edge(pred("B", 0), pred("A", 0), EdgeSign::Positive);
        g.add_edge(pred("B", 0), pred("C", 0), EdgeSign::Positive);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        // The {A, B} component must come before {C} (bottom-up order).
        let ab_idx = sccs.iter().position(|c| c.len() == 2).unwrap();
        let c_idx = sccs.iter().position(|c| c == &vec![pred("C", 0)]).unwrap();
        assert!(ab_idx < c_idx);
    }

    #[test]
    fn stratified_detection() {
        // Positive cycle + negation out of the cycle: stratified.
        let mut g = DependencyGraph::new();
        g.add_edge(pred("A", 0), pred("B", 0), EdgeSign::Positive);
        g.add_edge(pred("B", 0), pred("A", 0), EdgeSign::Positive);
        g.add_edge(pred("A", 0), pred("C", 0), EdgeSign::Negative);
        assert!(g.is_stratified());
        let s = g.stratify().unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.stratum_of(&pred("A", 0)) < s.stratum_of(&pred("C", 0)));
        assert_eq!(s.stratum_of(&pred("Missing", 0)), None);
        assert!(!s.is_empty());

        // Negative edge on a cycle: not stratified.
        let mut g2 = DependencyGraph::new();
        g2.add_edge(pred("A", 0), pred("B", 0), EdgeSign::Negative);
        g2.add_edge(pred("B", 0), pred("A", 0), EdgeSign::Positive);
        assert!(!g2.is_stratified());
        let err = g2.stratify().unwrap_err();
        assert!(err.to_string().contains("not stratified"));
    }

    #[test]
    fn figure_1_dependency_graph() {
        // The Appendix E program:
        //   Dime(x) → DimeTail(x, Flip)          (Dime → DimeTail, positive)
        //   DimeTail(x,1) → SomeDimeTail         (positive)
        //   Quarter(x), ¬SomeDimeTail → QuarterTail(x, Flip)
        let mut g = DependencyGraph::new();
        g.add_edge(pred("Dime", 1), pred("DimeTail", 2), EdgeSign::Positive);
        g.add_edge(
            pred("DimeTail", 2),
            pred("SomeDimeTail", 0),
            EdgeSign::Positive,
        );
        g.add_edge(
            pred("Quarter", 1),
            pred("QuarterTail", 2),
            EdgeSign::Positive,
        );
        g.add_edge(
            pred("SomeDimeTail", 0),
            pred("QuarterTail", 2),
            EdgeSign::Negative,
        );
        assert!(g.is_stratified());
        let s = g.stratify().unwrap();
        // Five singleton components.
        assert_eq!(s.len(), 5);
        assert!(
            s.stratum_of(&pred("SomeDimeTail", 0)).unwrap()
                < s.stratum_of(&pred("QuarterTail", 2)).unwrap()
        );
        assert!(
            s.stratum_of(&pred("Dime", 1)).unwrap() < s.stratum_of(&pred("DimeTail", 2)).unwrap()
        );
        let dot = g.to_string();
        assert!(dot.contains("dashed"));
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn from_ground_program() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom1("Router", 1)),
            GroundRule::new(
                atom1("Uninfected", 1),
                vec![atom1("Router", 1)],
                vec![atom1("Infected", 1)],
            ),
        ]);
        let g = DependencyGraph::from_ground_program(&p);
        assert!(g.vertex_count() >= 3);
        assert!(g.is_stratified());
        assert!(g
            .edges()
            .any(|(f, _, s)| f.name() == "Infected" && *s == EdgeSign::Negative));
    }

    #[test]
    fn connected_components_symmetrize_and_order() {
        // Edges 0→1, 3→2, isolated 4: components {0,1}, {2,3}, {4}
        // regardless of edge direction, ordered by smallest member.
        assert_eq!(
            connected_components(5, [(0, 1), (3, 2)]),
            vec![vec![0, 1], vec![2, 3], vec![4]]
        );
        // A chain through both directions collapses into one component.
        assert_eq!(
            connected_components(4, [(0, 1), (2, 1), (3, 2)]),
            vec![vec![0, 1, 2, 3]]
        );
        // Members stay ascending when a later edge merges two roots.
        assert_eq!(
            connected_components(6, [(4, 5), (1, 3), (5, 1), (2, 0)]),
            vec![vec![0, 2], vec![1, 3, 4, 5]]
        );
        assert!(connected_components(0, []).is_empty());
    }

    #[test]
    fn self_negation_is_not_stratified() {
        let mut g = DependencyGraph::new();
        g.add_edge(pred("A", 0), pred("A", 0), EdgeSign::Negative);
        assert!(!g.is_stratified());
        assert!(g.depends_on(&pred("A", 0), &pred("A", 0)));
    }
}
