//! Version spaces (Definition 3.1 of the paper): hash-consed terms with
//! nondeterministic union (`⊎`), the empty space `∅`, and the universe `Λ`.
//!
//! All spaces live in a [`SpaceArena`]; each distinct node is stored once
//! ("we hash cons each version space", Fig 5 caption), so equality of
//! [`SpaceId`]s is structural equality and the inversion operators can be
//! memoized per node.

use std::collections::HashMap;

use dc_lambda::expr::Expr;

/// Identifier of a version space inside its arena.
pub type SpaceId = usize;

/// A version-space node (Definition 3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpaceNode {
    /// `∅` — the empty set of programs.
    Void,
    /// `Λ` — every λ-calculus expression.
    Universe,
    /// A de Bruijn index `$i`.
    Index(usize),
    /// A primitive or invented leaf.
    Terminal(Expr),
    /// `λ v`.
    Abstraction(SpaceId),
    /// `(f x)`.
    Application(SpaceId, SpaceId),
    /// `⊎ V` — nondeterministic choice. Invariant: ≥ 2 members, no
    /// duplicates, no nested unions, no `Void`/`Universe` members.
    Union(Vec<SpaceId>),
}

impl SpaceNode {
    /// Call `f` on each child of this node, once per distinct child.
    pub(crate) fn for_each_child(&self, mut f: impl FnMut(SpaceId)) {
        match self {
            SpaceNode::Abstraction(b) => f(*b),
            SpaceNode::Application(a, b) => {
                f(*a);
                if b != a {
                    f(*b);
                }
            }
            SpaceNode::Union(ms) => ms.iter().copied().for_each(f),
            _ => {}
        }
    }
}

/// Arena holding hash-consed version spaces and the memo tables for the
/// inversion operators.
#[derive(Debug, Default)]
pub struct SpaceArena {
    nodes: Vec<SpaceNode>,
    hashcons: HashMap<SpaceNode, SpaceId>,
    /// Cached id of `Void`.
    void_id: Option<SpaceId>,
    /// Cached id of `Universe`.
    universe_id: Option<SpaceId>,
    pub(crate) substitution_memo: HashMap<(SpaceId, usize), Vec<(SpaceId, SpaceId)>>,
    pub(crate) inversion_memo: HashMap<SpaceId, SpaceId>,
    pub(crate) intersection_memo: HashMap<(SpaceId, SpaceId), SpaceId>,
    pub(crate) downshift_memo: HashMap<(SpaceId, usize, usize), SpaceId>,
}

impl SpaceArena {
    /// A fresh, empty arena.
    pub fn new() -> SpaceArena {
        SpaceArena::default()
    }

    /// Number of distinct nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been allocated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Look at a node.
    pub fn node(&self, id: SpaceId) -> &SpaceNode {
        &self.nodes[id]
    }

    /// Free the inversion operators' memo tables, which hold far more
    /// entries than the spaces they built. Nodes and ids are unchanged; a
    /// later inversion starts from cold memos and finds the same nodes.
    pub(crate) fn clear_memos(&mut self) {
        self.substitution_memo = HashMap::new();
        self.inversion_memo = HashMap::new();
        self.intersection_memo = HashMap::new();
        self.downshift_memo = HashMap::new();
    }

    /// The id of `node`, if the arena holds it.
    pub(crate) fn lookup(&self, node: &SpaceNode) -> Option<SpaceId> {
        self.hashcons.get(node).copied()
    }

    fn intern(&mut self, node: SpaceNode) -> SpaceId {
        if let Some(&id) = self.hashcons.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        self.hashcons.insert(node, id);
        id
    }

    /// The empty space `∅`.
    pub fn void(&mut self) -> SpaceId {
        if let Some(id) = self.void_id {
            return id;
        }
        let id = self.intern(SpaceNode::Void);
        self.void_id = Some(id);
        id
    }

    /// The universe `Λ`.
    pub fn universe(&mut self) -> SpaceId {
        if let Some(id) = self.universe_id {
            return id;
        }
        let id = self.intern(SpaceNode::Universe);
        self.universe_id = Some(id);
        id
    }

    /// A de Bruijn index space.
    pub fn index(&mut self, i: usize) -> SpaceId {
        self.intern(SpaceNode::Index(i))
    }

    /// `λ body` — collapses to `∅` when `body = ∅`.
    pub fn abstraction(&mut self, body: SpaceId) -> SpaceId {
        if self.nodes[body] == SpaceNode::Void {
            return self.void();
        }
        self.intern(SpaceNode::Abstraction(body))
    }

    /// `(f x)` — collapses to `∅` when either part is `∅`.
    pub fn application(&mut self, f: SpaceId, x: SpaceId) -> SpaceId {
        if self.nodes[f] == SpaceNode::Void || self.nodes[x] == SpaceNode::Void {
            return self.void();
        }
        self.intern(SpaceNode::Application(f, x))
    }

    /// `⊎ members` — flattens nested unions, drops `∅`, dedups, and
    /// collapses degenerate cases.
    pub fn union(&mut self, members: impl IntoIterator<Item = SpaceId>) -> SpaceId {
        let mut flat = Vec::new();
        let mut stack: Vec<SpaceId> = members.into_iter().collect();
        stack.reverse();
        while let Some(m) = stack.pop() {
            match &self.nodes[m] {
                SpaceNode::Void => {}
                SpaceNode::Universe => return self.universe(),
                SpaceNode::Union(ms) => {
                    let mut inner = ms.clone();
                    inner.reverse();
                    stack.extend(inner);
                }
                _ => {
                    if !flat.contains(&m) {
                        flat.push(m);
                    }
                }
            }
        }
        match flat.len() {
            0 => self.void(),
            1 => flat[0],
            _ => {
                flat.sort_unstable();
                self.intern(SpaceNode::Union(flat))
            }
        }
    }

    /// Convert an expression into the version space denoting exactly it.
    pub fn incorporate(&mut self, e: &Expr) -> SpaceId {
        match e {
            Expr::Index(i) => self.index(*i),
            // The only place a `Terminal` is made, so it always holds a
            // leaf: containment looks terminals up for leaf subterms only.
            Expr::Primitive(_) | Expr::Invented(_) => self.intern(SpaceNode::Terminal(e.clone())),
            Expr::Abstraction(b) => {
                let body = self.incorporate(b);
                self.abstraction(body)
            }
            Expr::Application(f, x) => {
                let fs = self.incorporate(f);
                let xs = self.incorporate(x);
                self.application(fs, xs)
            }
        }
    }

    /// Membership test: `e ∈ ⟦v⟧`.
    pub fn contains(&self, v: SpaceId, e: &Expr) -> bool {
        match (&self.nodes[v], e) {
            (SpaceNode::Void, _) => false,
            (SpaceNode::Universe, _) => true,
            (SpaceNode::Union(ms), _) => ms.iter().any(|&m| self.contains(m, e)),
            (SpaceNode::Index(i), Expr::Index(j)) => i == j,
            (SpaceNode::Terminal(t), _) => t == e,
            (SpaceNode::Abstraction(b), Expr::Abstraction(eb)) => self.contains(*b, eb),
            (SpaceNode::Application(f, x), Expr::Application(ef, ex)) => {
                self.contains(*f, ef) && self.contains(*x, ex)
            }
            _ => false,
        }
    }

    /// Intersection of two spaces (used by the application case of `S_k`).
    pub fn intersect(&mut self, a: SpaceId, b: SpaceId) -> SpaceId {
        if a == b {
            return a;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.intersection_memo.get(&key) {
            return r;
        }
        let result = match (self.nodes[a].clone(), self.nodes[b].clone()) {
            (SpaceNode::Void, _) | (_, SpaceNode::Void) => self.void(),
            (SpaceNode::Universe, _) => b,
            (_, SpaceNode::Universe) => a,
            (SpaceNode::Union(ms), _) => {
                let parts: Vec<SpaceId> = ms.iter().map(|&m| self.intersect(m, b)).collect();
                self.union(parts)
            }
            (_, SpaceNode::Union(ms)) => {
                let parts: Vec<SpaceId> = ms.iter().map(|&m| self.intersect(a, m)).collect();
                self.union(parts)
            }
            (SpaceNode::Index(i), SpaceNode::Index(j)) => {
                if i == j {
                    a
                } else {
                    self.void()
                }
            }
            (SpaceNode::Terminal(t1), SpaceNode::Terminal(t2)) => {
                if t1 == t2 {
                    a
                } else {
                    self.void()
                }
            }
            (SpaceNode::Abstraction(x), SpaceNode::Abstraction(y)) => {
                let body = self.intersect(x, y);
                self.abstraction(body)
            }
            (SpaceNode::Application(f1, x1), SpaceNode::Application(f2, x2)) => {
                let f = self.intersect(f1, f2);
                let x = self.intersect(x1, x2);
                self.application(f, x)
            }
            _ => self.void(),
        };
        self.intersection_memo.insert(key, result);
        result
    }

    /// The downshift utility `↓ᵏ_c` of Fig 5E: free indices `≥ c + k`
    /// drop by `k`; indices in `[c, c+k)` make the branch `∅`.
    pub fn downshift(&mut self, v: SpaceId, k: usize, c: usize) -> SpaceId {
        if k == 0 {
            return v;
        }
        let key = (v, k, c);
        if let Some(&r) = self.downshift_memo.get(&key) {
            return r;
        }
        let result = match self.nodes[v].clone() {
            SpaceNode::Index(i) => {
                if i < c {
                    v
                } else if i >= c + k {
                    self.index(i - k)
                } else {
                    self.void()
                }
            }
            SpaceNode::Terminal(_) | SpaceNode::Void | SpaceNode::Universe => v,
            SpaceNode::Abstraction(b) => {
                let body = self.downshift(b, k, c + 1);
                self.abstraction(body)
            }
            SpaceNode::Application(f, x) => {
                let fs = self.downshift(f, k, c);
                let xs = self.downshift(x, k, c);
                self.application(fs, xs)
            }
            SpaceNode::Union(ms) => {
                let parts: Vec<SpaceId> = ms.iter().map(|&m| self.downshift(m, k, c)).collect();
                self.union(parts)
            }
        };
        self.downshift_memo.insert(key, result);
        result
    }

    /// Count the extension `|⟦v⟧|`, saturating at `cap` (the universe and
    /// anything above `cap` report `cap`). Used to report how many
    /// refactorings a space represents (Fig 2: "10^14 refactorings").
    pub fn extension_count(&self, v: SpaceId, cap: f64) -> f64 {
        let mut memo = HashMap::new();
        self.count_rec(v, cap, &mut memo)
    }

    fn count_rec(&self, v: SpaceId, cap: f64, memo: &mut HashMap<SpaceId, f64>) -> f64 {
        if let Some(&c) = memo.get(&v) {
            return c;
        }
        let c = match &self.nodes[v] {
            SpaceNode::Void => 0.0,
            SpaceNode::Universe => cap,
            SpaceNode::Index(_) | SpaceNode::Terminal(_) => 1.0,
            SpaceNode::Abstraction(b) => self.count_rec(*b, cap, memo),
            SpaceNode::Application(f, x) => {
                (self.count_rec(*f, cap, memo) * self.count_rec(*x, cap, memo)).min(cap)
            }
            SpaceNode::Union(ms) => ms
                .iter()
                .map(|&m| self.count_rec(m, cap, memo))
                .sum::<f64>()
                .min(cap),
        };
        memo.insert(v, c);
        c
    }

    /// Sample up to `limit` members of the extension (DFS order). Members
    /// of `Λ` are not enumerable and contribute nothing.
    pub fn extension_sample(&self, v: SpaceId, limit: usize) -> Vec<Expr> {
        if limit == 0 {
            return Vec::new();
        }
        let mut nodes = self.reachable(v);
        nodes.sort_unstable();
        let mut out = Vec::new();
        self.sample_each(&nodes, limit, |u, sample| {
            if u == v {
                out = sample.to_vec();
            }
        });
        out
    }

    /// Call `visit` with the sample of up to `limit` (≥ 1) members of each
    /// node of `nodes`, which must be ascending and closed under children.
    ///
    /// A node's sample depends only on the node, and the first `k` members
    /// of a node's sample at `limit` are its sample at `k`, so each node
    /// is sampled once, from its children's samples. Ids ascend from
    /// children to parents (hash-consing interns children first), so one
    /// sweep in id order has every child's sample ready, and a sample is
    /// dropped as soon as the last of its parents in `nodes` has read it.
    pub(crate) fn sample_each(
        &self,
        nodes: &[SpaceId],
        limit: usize,
        mut visit: impl FnMut(SpaceId, &[Expr]),
    ) {
        debug_assert!(limit >= 1 && nodes.is_sorted());
        let mut readers = vec![0u32; nodes.last().map_or(0, |&v| v + 1)];
        for &v in nodes {
            self.nodes[v].for_each_child(|c| readers[c] += 1);
        }
        // The samples some parent has yet to read.
        let mut live: HashMap<SpaceId, Vec<Expr>> = HashMap::new();
        for &v in nodes {
            let sample = {
                let of = |c: SpaceId| live[&c].as_slice();
                match &self.nodes[v] {
                    SpaceNode::Void | SpaceNode::Universe => Vec::new(),
                    SpaceNode::Index(i) => vec![Expr::Index(*i)],
                    SpaceNode::Terminal(e) => vec![e.clone()],
                    SpaceNode::Abstraction(b) => {
                        of(*b).iter().cloned().map(Expr::abstraction).collect()
                    }
                    SpaceNode::Application(f, x) => {
                        let xs = of(*x);
                        of(*f)
                            .iter()
                            .flat_map(|fe| {
                                xs.iter()
                                    .map(|xe| Expr::application(fe.clone(), xe.clone()))
                            })
                            .take(limit)
                            .collect()
                    }
                    SpaceNode::Union(ms) => ms
                        .iter()
                        .flat_map(|&m| of(m).iter().cloned())
                        .take(limit)
                        .collect(),
                }
            };
            visit(v, &sample);
            self.nodes[v].for_each_child(|c| {
                readers[c] -= 1;
                if readers[c] == 0 {
                    live.remove(&c);
                }
            });
            if readers[v] > 0 {
                live.insert(v, sample);
            }
        }
    }

    /// All space ids reachable from `v` (through every edge kind).
    pub fn reachable(&self, v: SpaceId) -> Vec<SpaceId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![v];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id] {
                continue;
            }
            seen[id] = true;
            out.push(id);
            self.nodes[id].for_each_child(|c| stack.push(c));
        }
        out
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
    fn hash_consing_dedups() {
        let mut a = SpaceArena::new();
        let e = parse("(+ 1 1)");
        let v1 = a.incorporate(&e);
        let v2 = a.incorporate(&e);
        assert_eq!(v1, v2);
    }

    #[test]
    fn incorporate_then_contains() {
        let mut a = SpaceArena::new();
        let e = parse("(lambda (+ $0 1))");
        let v = a.incorporate(&e);
        assert!(a.contains(v, &e));
        assert!(!a.contains(v, &parse("(lambda (+ $0 0))")));
        assert_eq!(a.extension_count(v, 1e18), 1.0);
        assert_eq!(a.extension_sample(v, 10), vec![e]);
    }

    #[test]
    fn union_flattens_and_dedups() {
        let mut a = SpaceArena::new();
        let x = a.incorporate(&parse("0"));
        let y = a.incorporate(&parse("1"));
        let u1 = a.union([x, y]);
        let u2 = a.union([u1, x]);
        assert_eq!(u1, u2);
        let void = a.void();
        assert_eq!(a.union([void]), void);
        assert_eq!(a.union([x, void]), x);
        let univ = a.universe();
        assert_eq!(a.union([x, univ]), univ);
    }

    #[test]
    fn union_extension_is_set_union() {
        let mut a = SpaceArena::new();
        let x = a.incorporate(&parse("0"));
        let y = a.incorporate(&parse("1"));
        let u = a.union([x, y]);
        assert!(a.contains(u, &parse("0")));
        assert!(a.contains(u, &parse("1")));
        assert!(!a.contains(u, &parse("(+ 0 1)")));
        assert_eq!(a.extension_count(u, 1e18), 2.0);
    }

    #[test]
    fn application_of_unions_multiplies_extensions() {
        // (λ⊎{$0,7})(⊎{4,9}) encodes four expressions (paper example).
        let mut a = SpaceArena::new();
        let i0 = a.index(0);
        let seven = a.incorporate(&parse("1")); // stand-ins for 7/4/9
        let four = a.incorporate(&parse("0"));
        let nine = a.incorporate(&parse("(+ 1 1)"));
        let body = a.union([i0, seven]);
        let lam = a.abstraction(body);
        let arg = a.union([four, nine]);
        let app = a.application(lam, arg);
        assert_eq!(a.extension_count(app, 1e18), 4.0);
        assert_eq!(a.extension_sample(app, 100).len(), 4);
    }

    #[test]
    fn void_propagates_through_constructors() {
        let mut a = SpaceArena::new();
        let v = a.void();
        assert_eq!(a.abstraction(v), v);
        let x = a.incorporate(&parse("0"));
        assert_eq!(a.application(v, x), v);
        assert_eq!(a.application(x, v), v);
    }

    #[test]
    fn intersection_laws() {
        let mut a = SpaceArena::new();
        let x = a.incorporate(&parse("(+ 0 1)"));
        let y = a.incorporate(&parse("(+ 1 1)"));
        let u = a.union([x, y]);
        assert_eq!(a.intersect(u, x), x);
        assert_eq!(a.intersect(x, y), a.void());
        let univ = a.universe();
        assert_eq!(a.intersect(univ, u), u);
        assert_eq!(a.intersect(u, u), u);
    }

    #[test]
    fn downshift_shifts_and_voids() {
        let mut a = SpaceArena::new();
        let i2 = a.index(2);
        assert_eq!(a.downshift(i2, 1, 0), a.index(1));
        let i0 = a.index(0);
        let dropped = a.downshift(i0, 1, 0);
        assert_eq!(dropped, a.void());
        // Under a binder the bound variable survives.
        let lam = a.abstraction(i0);
        assert_eq!(a.downshift(lam, 1, 0), lam);
    }

    #[test]
    fn reachable_walks_everything() {
        let mut a = SpaceArena::new();
        let e = parse("(lambda (+ $0 1))");
        let v = a.incorporate(&e);
        let r = a.reachable(v);
        // lambda, app(+ $0 1) spine: app, app, +, $0, 1 — six nodes.
        assert_eq!(r.len(), 6);
    }
}
