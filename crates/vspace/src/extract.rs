//! Minimal-cost extraction from version spaces (Fig 5A): `extract(v | D)`
//! finds `argmin_{ρ ∈ ⟦v⟧} size(ρ | D)`, where members of the library
//! count as size 1. The optional *candidate* invention is the new routine
//! being scored during abstraction sleep; any node whose extension
//! contains the candidate's body may be replaced by the invention at
//! cost 1.
//!
//! Extraction is two-phase: a cost-only pass over the space DAG records,
//! per node, the minimal cost and which branch achieved it (dense `Vec`
//! memos — [`SpaceId`]s are contiguous arena indices), then the winning
//! expression is rebuilt top-down along the recorded choices only, so the
//! full pass allocates no expression nodes off the optimal path and
//! touches no hash maps.
//!
//! A candidate changes the slot of only the nodes whose extension contains
//! its body, and of the ancestors whose cost that changes: a few of the
//! ~10⁴ nodes of a frontier's refactoring space. Abstraction sleep scores
//! every (proposal, frontier) pair through [`CandidateExtractor`], which
//! keeps one candidate-free pass per frontier and, per candidate, finds
//! the containing nodes by hash-cons lookup, then re-costs them and, in
//! ascending id order, the parents of every node whose cost changed. It
//! stores only the slots that differ from the kept pass, and returns
//! exactly what [`Matcher`] with [`SpaceArena::minimal_inhabitant`]
//! returns.

use std::collections::BTreeSet;
use std::sync::Arc;

use dc_lambda::expr::{Expr, Invented};

use crate::space::{SpaceArena, SpaceId, SpaceNode};

/// Result of extracting the cheapest member of a space.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    /// `size(expr | D)` with library members (and the candidate) costing 1.
    pub cost: usize,
    /// The extracted expression; uses [`Expr::Invented`] where the
    /// candidate was chosen.
    pub expr: Expr,
}

/// Which branch achieved a node's minimal cost (enough to rebuild the
/// winning expression without re-searching).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Choice {
    /// Replace the whole node by the candidate invention.
    Invention,
    /// The node's own index/terminal expression.
    Leaf,
    /// Descend into the abstraction body.
    Abstraction,
    /// Descend into both application children.
    Application,
    /// The winning union member (a [`SpaceId`], narrowed to keep memo
    /// slots at 12 bytes).
    Union(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Slot {
    #[default]
    Unvisited,
    Unreachable,
    Done {
        cost: u32,
        choice: Choice,
    },
}

/// Memo table reusable across extractions with the same candidate:
/// a dense per-[`SpaceId`] table of minimal costs and winning choices.
#[derive(Debug, Default)]
pub struct ExtractionMemo {
    slots: Vec<Slot>,
}

impl ExtractionMemo {
    /// An empty memo.
    pub fn new() -> ExtractionMemo {
        ExtractionMemo::default()
    }

    #[inline]
    fn get(&self, v: SpaceId) -> Slot {
        self.slots.get(v).copied().unwrap_or(Slot::Unvisited)
    }

    #[inline]
    fn set(&mut self, v: SpaceId, s: Slot) {
        if v >= self.slots.len() {
            self.slots.resize(v + 1, Slot::Unvisited);
        }
        self.slots[v] = s;
    }
}

/// The candidate body's subterm structure, numbered so matcher memo keys
/// are small dense integers instead of expression pointers.
#[derive(Debug, Clone, Copy)]
enum Pat {
    Index(usize),
    /// A primitive or invented leaf, compared against terminal space
    /// nodes; the expression lives in `Matcher::exprs` at the same index.
    Leaf,
    Abstraction(u32),
    Application(u32, u32),
}

/// Memoized membership tester for one candidate expression: answers
/// "does `⟦v⟧` contain this expression?" across many spaces cheaply.
/// The memo is a dense three-state table over `(space, subterm)` pairs.
#[derive(Debug)]
pub struct Matcher {
    invention: Arc<Invented>,
    pats: Vec<Pat>,
    exprs: Vec<Expr>,
    memo: Vec<u8>,
}

const MATCH_UNKNOWN: u8 = 0;
const MATCH_NO: u8 = 1;
const MATCH_YES: u8 = 2;

impl Matcher {
    /// Build a matcher for an invention whose body is the expression to
    /// look for inside version spaces.
    pub fn new(invention: Arc<Invented>) -> Matcher {
        let mut pats = Vec::new();
        let mut exprs = Vec::new();
        number_subterms(&invention.body, &mut pats, &mut exprs);
        Matcher {
            invention,
            pats,
            exprs,
            memo: Vec::new(),
        }
    }

    /// The invention this matcher stands for.
    pub fn invention(&self) -> &Arc<Invented> {
        &self.invention
    }

    /// Does `⟦v⟧` contain the candidate's body?
    pub fn matches(&mut self, arena: &SpaceArena, v: SpaceId) -> bool {
        let root = (self.pats.len() - 1) as u32;
        self.matches_at(arena, v, root)
    }

    fn matches_at(&mut self, arena: &SpaceArena, v: SpaceId, p: u32) -> bool {
        let key = v * self.pats.len() + p as usize;
        if key >= self.memo.len() {
            self.memo.resize((v + 1) * self.pats.len(), MATCH_UNKNOWN);
        }
        match self.memo[key] {
            MATCH_NO => return false,
            MATCH_YES => return true,
            _ => {}
        }
        let pat = self.pats[p as usize];
        let r = match (arena.node(v), pat) {
            (SpaceNode::Void, _) => false,
            (SpaceNode::Universe, _) => true,
            (SpaceNode::Union(ms), _) => ms.iter().any(|&m| self.matches_at(arena, m, p)),
            (SpaceNode::Index(i), Pat::Index(j)) => *i == j,
            (SpaceNode::Terminal(t), _) => *t == self.exprs[p as usize],
            (SpaceNode::Abstraction(b), Pat::Abstraction(pb)) => {
                let b = *b;
                self.matches_at(arena, b, pb)
            }
            (SpaceNode::Application(f, x), Pat::Application(pf, px)) => {
                let (f, x) = (*f, *x);
                self.matches_at(arena, f, pf) && self.matches_at(arena, x, px)
            }
            _ => false,
        };
        self.memo[key] = if r { MATCH_YES } else { MATCH_NO };
        r
    }
}

/// Post-order-number `e`'s subterms into `pats`/`exprs`; returns the
/// index assigned to `e` (the root ends up last).
fn number_subterms(e: &Expr, pats: &mut Vec<Pat>, exprs: &mut Vec<Expr>) -> u32 {
    let pat = match e {
        Expr::Index(i) => Pat::Index(*i),
        Expr::Primitive(_) | Expr::Invented(_) => Pat::Leaf,
        Expr::Abstraction(b) => Pat::Abstraction(number_subterms(b, pats, exprs)),
        Expr::Application(f, x) => {
            let pf = number_subterms(f, pats, exprs);
            let px = number_subterms(x, pats, exprs);
            Pat::Application(pf, px)
        }
    };
    pats.push(pat);
    exprs.push(e.clone());
    (pats.len() - 1) as u32
}

impl SpaceArena {
    /// Extract the minimum-cost inhabitant of `v`.
    ///
    /// `candidate` is an optional matcher for a new invention: any node
    /// whose extension contains the invention's body may be replaced by
    /// the invention at cost 1. Pass a shared `memo` when extracting many
    /// spaces against the same candidate.
    pub fn minimal_inhabitant(
        &self,
        v: SpaceId,
        candidate: Option<&mut Matcher>,
        memo: &mut ExtractionMemo,
    ) -> Option<Extraction> {
        let mut candidate = candidate;
        self.compute_cost(v, &mut candidate, memo);
        match memo.get(v) {
            Slot::Done { cost, .. } => Some(Extraction {
                cost: cost as usize,
                expr: self.rebuild(v, candidate.as_ref().map(|m| m.invention()), &|c| {
                    memo.get(c)
                }),
            }),
            _ => None,
        }
    }

    /// Cost-only pass: fill `memo` for `v` and everything below it. No
    /// expressions are built here.
    fn compute_cost(
        &self,
        v: SpaceId,
        candidate: &mut Option<&mut Matcher>,
        memo: &mut ExtractionMemo,
    ) {
        if memo.get(v) != Slot::Unvisited {
            return;
        }
        // Never materialize the invention at `Λ`: the universe "contains"
        // every expression, but an unconstrained slot (an unused redex
        // argument) should stay unextractable rather than be filled with
        // an arbitrary routine.
        let at_universe = matches!(self.node(v), SpaceNode::Universe);
        let invention_cost: Option<u32> = match candidate.as_deref_mut() {
            Some(m) if !at_universe => m.matches(self, v).then_some(1),
            _ => None,
        };
        match self.node(v) {
            SpaceNode::Abstraction(b) => self.compute_cost(*b, candidate, memo),
            SpaceNode::Application(f, x) => {
                self.compute_cost(*f, candidate, memo);
                self.compute_cost(*x, candidate, memo);
            }
            SpaceNode::Union(ms) => {
                for &m in ms {
                    self.compute_cost(m, candidate, memo);
                }
            }
            _ => {}
        }
        let slot = self.settle(v, invention_cost, |c| memo.get(c));
        memo.set(v, slot);
    }

    /// `v`'s slot, given its children's slots and whether the candidate
    /// may replace `v` itself (at cost 1).
    fn settle(
        &self,
        v: SpaceId,
        invention_cost: Option<u32>,
        slot: impl Fn(SpaceId) -> Slot,
    ) -> Slot {
        let structural: Option<(u32, Choice)> = match self.node(v) {
            SpaceNode::Void | SpaceNode::Universe => None,
            SpaceNode::Index(_) | SpaceNode::Terminal(_) => Some((1, Choice::Leaf)),
            SpaceNode::Abstraction(b) => match slot(*b) {
                Slot::Done { cost, .. } => Some((1 + cost, Choice::Abstraction)),
                _ => None,
            },
            SpaceNode::Application(f, x) => match (slot(*f), slot(*x)) {
                (Slot::Done { cost: cf, .. }, Slot::Done { cost: cx, .. }) => {
                    Some((1 + cf + cx, Choice::Application))
                }
                _ => None,
            },
            SpaceNode::Union(ms) => {
                let mut best: Option<(u32, Choice)> = None;
                for &m in ms {
                    if let Slot::Done { cost, .. } = slot(m) {
                        // Strict `<`: ties keep the first (lowest-id) member.
                        if best.is_none_or(|(b, _)| cost < b) {
                            best = Some((cost, Choice::Union(narrow(m))));
                        }
                    }
                }
                best
            }
        };
        match (invention_cost, structural) {
            // The invention wins ties so rewrites actually use it.
            (Some(ic), Some((sc, _))) if ic <= sc => Slot::Done {
                cost: ic,
                choice: Choice::Invention,
            },
            (Some(ic), None) => Slot::Done {
                cost: ic,
                choice: Choice::Invention,
            },
            (_, Some((sc, choice))) => Slot::Done { cost: sc, choice },
            (None, None) => Slot::Unreachable,
        }
    }

    /// Rebuild the winning expression by following recorded choices —
    /// allocation happens only along the optimal path.
    fn rebuild(
        &self,
        v: SpaceId,
        invention: Option<&Arc<Invented>>,
        slot: &impl Fn(SpaceId) -> Slot,
    ) -> Expr {
        let Slot::Done { choice, .. } = slot(v) else {
            unreachable!("rebuild called on unreachable space {v}");
        };
        match choice {
            Choice::Invention => Expr::Invented(Arc::clone(
                invention.expect("invention chosen only when a candidate was supplied"),
            )),
            Choice::Leaf => match self.node(v) {
                SpaceNode::Index(i) => Expr::Index(*i),
                SpaceNode::Terminal(e) => e.clone(),
                other => unreachable!("leaf choice on non-leaf node {other:?}"),
            },
            Choice::Abstraction => match self.node(v) {
                SpaceNode::Abstraction(b) => Expr::abstraction(self.rebuild(*b, invention, slot)),
                other => unreachable!("abstraction choice on {other:?}"),
            },
            Choice::Application => match self.node(v) {
                SpaceNode::Application(f, x) => Expr::application(
                    self.rebuild(*f, invention, slot),
                    self.rebuild(*x, invention, slot),
                ),
                other => unreachable!("application choice on {other:?}"),
            },
            Choice::Union(m) => self.rebuild(m as SpaceId, invention, slot),
        }
    }
}

/// A [`SpaceId`] as stored in the dense extraction tables.
fn narrow(v: SpaceId) -> u32 {
    u32::try_from(v).expect("arena ids fit in 32 bits")
}

/// A slot's cost, the only part of a child's slot that [`SpaceArena::settle`]
/// reads; `None` when the node has no inhabitant.
fn cost(slot: Slot) -> Option<u32> {
    match slot {
        Slot::Done { cost, .. } => Some(cost),
        _ => None,
    }
}

/// Nodes re-costed by [`CandidateExtractor::extract`], summed over calls.
static NODES_RECOSTED: dc_telemetry::CachedCounter =
    dc_telemetry::CachedCounter::new("compression.nodes_recosted");

/// Extraction from fixed roots of one arena under one candidate
/// invention at a time, for scoring many candidates against the same
/// spaces.
///
/// Built once, it holds the candidate-free slot of every node reachable
/// from the roots and the reverse edges between those nodes. A candidate
/// can change a node's slot only where the node's extension contains the
/// candidate's body, or where a child's cost changed, so
/// [`CandidateExtractor::extract`] finds the containing nodes by
/// hash-cons lookup, pattern subterm by pattern subterm, and re-costs
/// them, then each parent of a node whose cost changed, in ascending id
/// order. Only the slots that differ from the candidate-free ones are
/// stored; every other node keeps its candidate-free slot, which is
/// exactly what the full pass would compute for it.
#[derive(Debug)]
pub struct CandidateExtractor {
    roots: Vec<SpaceId>,
    /// Candidate-free slots; `Unvisited` marks a node no root reaches.
    base: ExtractionMemo,
    /// `parents[parent_start[v]..parent_start[v + 1]]` are the reachable
    /// nodes that have `v` as a child, its union parents first.
    parent_start: Vec<u32>,
    parents: Vec<u32>,
}

impl CandidateExtractor {
    /// Cost every node reachable from `roots` without a candidate, and
    /// index the parent edges among them.
    pub fn new(arena: &SpaceArena, roots: &[SpaceId]) -> CandidateExtractor {
        let mut base = ExtractionMemo::new();
        for &root in roots {
            arena.compute_cost(root, &mut None, &mut base);
        }
        let n = base.slots.len();
        let reachable = |v: SpaceId| base.get(v) != Slot::Unvisited;
        let mut parent_start = vec![0u32; n + 1];
        for v in (0..n).filter(|&v| reachable(v)) {
            arena.node(v).for_each_child(|c| parent_start[c + 1] += 1);
        }
        for i in 0..n {
            parent_start[i + 1] += parent_start[i];
        }
        let mut fill = parent_start.clone();
        let mut parents = vec![0; parent_start[n] as usize];
        let is_union = |v: SpaceId| matches!(arena.node(v), SpaceNode::Union(_));
        for unions in [true, false] {
            for v in (0..n).filter(|&v| reachable(v) && is_union(v) == unions) {
                arena.node(v).for_each_child(|c| {
                    parents[fill[c] as usize] = narrow(v);
                    fill[c] += 1;
                });
            }
        }
        CandidateExtractor {
            roots: roots.to_vec(),
            base,
            parent_start,
            parents,
        }
    }

    fn reachable(&self, v: SpaceId) -> bool {
        self.base.get(v) != Slot::Unvisited
    }

    /// The nodes reachable from the roots, ascending.
    pub(crate) fn nodes(&self) -> Vec<SpaceId> {
        (0..self.base.slots.len())
            .filter(|&v| self.reachable(v))
            .collect()
    }

    fn parents_of(&self, v: SpaceId) -> impl Iterator<Item = SpaceId> + '_ {
        let range = match self.parent_start.get(v + 1) {
            Some(&end) => self.parent_start[v] as usize..end as usize,
            None => 0..0,
        };
        self.parents[range].iter().map(|&p| p as SpaceId)
    }

    fn union_parents_of<'a>(
        &'a self,
        arena: &'a SpaceArena,
        v: SpaceId,
    ) -> impl Iterator<Item = SpaceId> + 'a {
        self.parents_of(v)
            .take_while(|&u| matches!(arena.node(u), SpaceNode::Union(_)))
    }

    /// The minimal inhabitant of each root, in order, when `invention`
    /// may replace (at cost 1) any node but `Λ` whose extension contains
    /// its body. Equal to [`SpaceArena::minimal_inhabitant`] with a
    /// [`Matcher`] for `invention`, root by root.
    pub fn extract(
        &self,
        arena: &SpaceArena,
        invention: &Arc<Invented>,
    ) -> Vec<Option<Extraction>> {
        let containing = self.containing(arena, &invention.body);
        // The slots that differ from the candidate-free ones, pushed in
        // ascending id order, so a binary search finds them.
        let mut overlay: Vec<(SpaceId, Slot)> = Vec::new();
        let slot = |overlay: &[(SpaceId, Slot)], v: SpaceId| match overlay
            .binary_search_by_key(&v, |&(u, _)| u)
        {
            Ok(i) => overlay[i].1,
            Err(_) => self.base.get(v),
        };
        // Children have lower ids than their parents, so popping the
        // lowest id settles every changed child before its parents.
        let mut queue: BTreeSet<SpaceId> = containing.iter().copied().collect();
        let mut settled = 0;
        while let Some(v) = queue.pop_first() {
            settled += 1;
            let invention_cost = containing.binary_search(&v).is_ok().then_some(1);
            let new = arena.settle(v, invention_cost, |c| slot(&overlay, c));
            let old = self.base.get(v);
            // Parents read only the cost. The invention can take a leaf on
            // a cost tie: the cost holds but the choice changes, so the
            // slot is still stored for the rebuild.
            if cost(new) != cost(old) {
                queue.extend(self.parents_of(v));
            }
            if new != old {
                overlay.push((v, new));
            }
        }
        NODES_RECOSTED.add(settled);
        let slot = |v: SpaceId| slot(&overlay, v);
        self.roots
            .iter()
            .map(|&root| match slot(root) {
                Slot::Done { cost, .. } => Some(Extraction {
                    cost: cost as usize,
                    expr: arena.rebuild(root, Some(invention), &slot),
                }),
                _ => None,
            })
            .collect()
    }

    /// The reachable nodes other than `Λ` whose extension contains `body`,
    /// ascending. Built up over `body`'s subterms in post-order by the
    /// rules [`Matcher`] checks top down: `Λ` contains everything, a
    /// terminal its own leaf, an index itself, `λ b` the abstractions of
    /// what `b` contains, `(f x)` the applications of what `f` and `x`
    /// contain, and a union what any member contains. Hash-consing makes
    /// `λ b`, `(f x)` and each leaf at most one node, found by lookup;
    /// unions, which never nest, are found through the union parents.
    fn containing(&self, arena: &SpaceArena, body: &Expr) -> Vec<SpaceId> {
        let mut pats = Vec::new();
        let mut exprs = Vec::new();
        number_subterms(body, &mut pats, &mut exprs);
        let found = |node: SpaceNode| arena.lookup(&node).filter(|&v| self.reachable(v));
        let universe = found(SpaceNode::Universe);
        let mut sets: Vec<Vec<SpaceId>> = Vec::with_capacity(pats.len());
        for (pat, expr) in pats.iter().zip(&exprs) {
            let mut set: Vec<SpaceId> = universe.into_iter().collect();
            match *pat {
                Pat::Index(i) => set.extend(found(SpaceNode::Index(i))),
                Pat::Leaf => set.extend(found(SpaceNode::Terminal(expr.clone()))),
                Pat::Abstraction(pb) => {
                    set.extend(
                        sets[pb as usize]
                            .iter()
                            .filter_map(|&b| found(SpaceNode::Abstraction(b))),
                    );
                }
                Pat::Application(pf, px) => {
                    let (fs, xs) = (&sets[pf as usize], &sets[px as usize]);
                    for &f in fs {
                        set.extend(
                            xs.iter()
                                .filter_map(|&x| found(SpaceNode::Application(f, x))),
                        );
                    }
                }
            }
            // Every node found so far is distinct; only a union with
            // several containing members is found twice.
            let direct = set.len();
            for i in 0..direct {
                set.extend(self.union_parents_of(arena, set[i]));
            }
            set.sort_unstable();
            set.dedup();
            sets.push(set);
        }
        let mut set = sets.pop().unwrap_or_default();
        set.retain(|&v| Some(v) != universe);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_lambda::primitives::base_primitives;

    fn parse(s: &str) -> Expr {
        Expr::parse(s, &base_primitives()).unwrap()
    }

    #[test]
    fn extraction_of_singleton_is_identity() {
        let mut a = SpaceArena::new();
        let e = parse("(lambda (+ $0 1))");
        let v = a.incorporate(&e);
        let got = a
            .minimal_inhabitant(v, None, &mut ExtractionMemo::new())
            .unwrap();
        assert_eq!(got.expr, e);
        assert_eq!(got.cost, e.size());
    }

    #[test]
    fn extraction_prefers_smaller_union_member() {
        let mut a = SpaceArena::new();
        let small = parse("0");
        let big = parse("(+ 0 (+ 0 0))");
        let vs = a.incorporate(&small);
        let vb = a.incorporate(&big);
        let u = a.union([vb, vs]);
        let got = a
            .minimal_inhabitant(u, None, &mut ExtractionMemo::new())
            .unwrap();
        assert_eq!(got.expr, small);
    }

    #[test]
    fn candidate_compresses_refactorings() {
        // Refactor (+ 1 1); with the invention double = λ (+ $0 $0), the
        // cheapest member is (double 1) at cost 2.
        let mut a = SpaceArena::new();
        let e = parse("(+ 1 1)");
        let space = a.refactor(&e, 1);
        let body = parse("(lambda (+ $0 $0))");
        let inv = Invented::new("#(lambda (+ $0 $0))", body).unwrap();
        let mut matcher = Matcher::new(inv);
        let got = a
            .minimal_inhabitant(space, Some(&mut matcher), &mut ExtractionMemo::new())
            .unwrap();
        assert_eq!(got.cost, 3, "expected (double 1), got {}", got.expr);
        assert_eq!(got.expr.to_string(), "(#(lambda (+ $0 $0)) 1)");
        // Without the candidate, the original is cheapest.
        let plain = a
            .minimal_inhabitant(space, None, &mut ExtractionMemo::new())
            .unwrap();
        assert_eq!(plain.expr, e);
    }

    #[test]
    fn matcher_finds_bodies_inside_merged_unions() {
        let mut a = SpaceArena::new();
        let e = parse("(+ 1 1)");
        let space = a.refactor(&e, 1);
        let inv = Invented::new("#d", parse("(lambda (+ $0 $0))")).unwrap();
        let mut m = Matcher::new(inv);
        // The abstraction (λ (+ $0 $0)) exists somewhere inside the space
        // even though bodies were merged into unions.
        let hit = a.reachable(space).into_iter().any(|id| m.matches(&a, id));
        assert!(hit, "matcher should find the double body in the space");
    }

    #[test]
    fn universe_is_not_extractable() {
        let mut a = SpaceArena::new();
        let u = a.universe();
        assert!(a
            .minimal_inhabitant(u, None, &mut ExtractionMemo::new())
            .is_none());
        let v = a.void();
        assert!(a
            .minimal_inhabitant(v, None, &mut ExtractionMemo::new())
            .is_none());
    }

    #[test]
    fn shared_memo_is_consistent_across_spaces() {
        let mut a = SpaceArena::new();
        let e1 = parse("(+ 1 1)");
        let e2 = parse("(+ 0 0)");
        let s1 = a.refactor(&e1, 1);
        let s2 = a.refactor(&e2, 1);
        let mut memo = ExtractionMemo::new();
        let r1 = a.minimal_inhabitant(s1, None, &mut memo).unwrap();
        let r2 = a.minimal_inhabitant(s2, None, &mut memo).unwrap();
        assert_eq!(r1.expr, e1);
        assert_eq!(r2.expr, e2);
    }

    #[test]
    fn candidate_extractor_matches_the_full_pass_around_the_universe() {
        // λΛ and (Λ Λ) contain every abstraction and every application,
        // so a candidate makes them extractable; the leaf 1 costs 1, so a
        // candidate with body 1 takes it on a tie and changes no cost.
        let mut a = SpaceArena::new();
        let one = a.incorporate(&parse("1"));
        let plus_one = a.incorporate(&parse("(+ 1)"));
        let u = a.universe();
        let lam_u = a.abstraction(u);
        let app_uu = a.application(u, u);
        let lam_one = a.abstraction(one);
        let f = a.union([lam_u, lam_one]);
        let x = a.union([one, app_uu]);
        let roots = [a.application(f, x), a.application(plus_one, x)];
        let extractor = CandidateExtractor::new(&a, &roots);
        for body in ["1", "(lambda 1)", "(+ 1)", "(+ 1 1)", "(lambda (+ $0 1))"] {
            let inv = Invented::new(&format!("#{body}"), parse(body)).unwrap();
            let mut matcher = Matcher::new(Arc::clone(&inv));
            let mut memo = ExtractionMemo::new();
            let full: Vec<_> = roots
                .iter()
                .map(|&r| a.minimal_inhabitant(r, Some(&mut matcher), &mut memo))
                .collect();
            assert_eq!(extractor.extract(&a, &inv), full, "candidate {body}");
        }
        let inv = Invented::new("#one", parse("1")).unwrap();
        let tie: Vec<String> = extractor
            .extract(&a, &inv)
            .into_iter()
            .map(|ex| ex.unwrap().expr.to_string())
            .collect();
        assert_eq!(tie, ["((lambda #one) #one)", "(+ #one #one)"]);
    }

    #[test]
    fn terminal_nodes_match_whole_subterm_patterns() {
        // Terminal nodes hold only leaves, so a compound pattern subterm
        // is matched against the incorporated structure, node by node.
        let mut a = SpaceArena::new();
        let e = parse("(+ 1 1)");
        let v = a.incorporate(&e);
        let inv = Invented::new("#p", parse("(lambda (+ 1 1))")).unwrap();
        let mut m = Matcher::new(inv);
        // Somewhere in the incorporated space the body (+ 1 1) appears;
        // the matcher's root is (λ (+ 1 1)) which does not.
        assert!(!m.matches(&a, v));
    }
}
