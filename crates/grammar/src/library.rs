//! The library `D`: the set of typed expressions a grammar draws from,
//! together with bigram parent contexts and weight vectors.

use std::fmt;
use std::sync::Arc;

use dc_lambda::expr::{Expr, Invented, Primitive};
use dc_lambda::types::{Scheme, Type};

/// One member of the library: a primitive or an invented routine, with its
/// (polymorphic) type cached.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryItem {
    /// The expression (always `Expr::Primitive` or `Expr::Invented`).
    pub expr: Expr,
    /// Its polymorphic type.
    ty: Type,
    /// `ty` prepared for instantiation at every hole.
    scheme: Scheme,
}

impl LibraryItem {
    fn new(expr: Expr, ty: Type) -> LibraryItem {
        LibraryItem {
            scheme: Scheme::new(&ty),
            expr,
            ty,
        }
    }

    /// Wrap a primitive.
    pub fn from_primitive(p: Arc<Primitive>) -> LibraryItem {
        let ty = p.ty.clone();
        LibraryItem::new(Expr::Primitive(p), ty)
    }

    /// Wrap an invented routine.
    pub fn from_invented(inv: Arc<Invented>) -> LibraryItem {
        let ty = inv.ty.clone();
        LibraryItem::new(Expr::Invented(inv), ty)
    }

    /// The item's polymorphic type.
    pub fn ty(&self) -> &Type {
        &self.ty
    }

    /// The item's type, prepared for instantiation.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Display name of the item.
    pub fn name(&self) -> String {
        self.expr.to_string()
    }

    /// Is this an invented (learned) routine?
    pub fn is_invented(&self) -> bool {
        matches!(self.expr, Expr::Invented(_))
    }
}

/// The library `D`: an ordered set of items. Shared (via [`Arc`]) between
/// the unigram grammar, the contextual grammar, and the recognition model
/// so production indices agree everywhere.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Library {
    /// The items, in a stable order. Index = production id.
    pub items: Vec<LibraryItem>,
}

impl Library {
    /// Build a library from primitives.
    pub fn from_primitives(prims: impl IntoIterator<Item = Arc<Primitive>>) -> Library {
        Library {
            items: prims.into_iter().map(LibraryItem::from_primitive).collect(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the library is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Find the production index of an expression, if present.
    pub fn position(&self, expr: &Expr) -> Option<usize> {
        self.items.iter().position(|it| &it.expr == expr)
    }

    /// Append an invented routine, returning its index.
    pub fn push_invented(&mut self, inv: Arc<Invented>) -> usize {
        self.items.push(LibraryItem::from_invented(inv));
        self.items.len() - 1
    }

    /// The invented routines in this library.
    pub fn inventions(&self) -> impl Iterator<Item = &LibraryItem> {
        self.items.iter().filter(|it| it.is_invented())
    }

    /// Number of layers of inventions-calling-inventions: the paper's
    /// "library depth" metric (Fig 7C). Primitives are depth 0; an
    /// invention's depth is 1 + max depth of the inventions its body uses.
    pub fn depth(&self) -> usize {
        self.items
            .iter()
            .map(|it| Library::item_depth(&it.expr))
            .max()
            .unwrap_or(0)
    }

    fn item_depth(expr: &Expr) -> usize {
        match expr {
            Expr::Invented(inv) => {
                1 + inv
                    .body
                    .subexpressions()
                    .iter()
                    .filter_map(|e| match e {
                        Expr::Invented(i2) if !std::ptr::eq(&**i2, &**inv) => {
                            Some(Library::item_depth(e))
                        }
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// The greatest arity of any item (used to size bigram tensors).
    pub fn max_arity(&self) -> usize {
        self.items.iter().map(|it| it.ty.arity()).max().unwrap_or(0)
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "library of {} items:", self.items.len())?;
        for it in &self.items {
            writeln!(f, "  {} : {}", it.name(), it.ty)?;
        }
        Ok(())
    }
}

/// Bigram parent context: which production (or `start`, or a variable)
/// generated the hole being filled. Mirrors the paper's tensor indices
/// `j ∈ D ∪ {start, var}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BigramParent {
    /// The root of the program (no parent).
    Start,
    /// The parent node is a bound variable applied to arguments.
    Var,
    /// The parent is production `D[i]`.
    Prod(usize),
}

impl BigramParent {
    /// Dense row index for tensor storage, given the library size.
    pub fn row(&self, library_len: usize) -> usize {
        match self {
            BigramParent::Start => library_len,
            BigramParent::Var => library_len + 1,
            BigramParent::Prod(i) => *i,
        }
    }

    /// Number of rows a tensor needs for a library of `library_len` items.
    pub fn row_count(library_len: usize) -> usize {
        library_len + 2
    }
}

/// Unnormalized log-weights for one choice point: a weight for "use a
/// variable" plus one weight per production.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WeightVector {
    /// Log-weight of choosing any bound variable.
    pub log_variable: f64,
    /// Log-weight of each production, indexed like [`Library::items`].
    pub log_productions: Vec<f64>,
}

impl WeightVector {
    /// Uniform weights for a library of `n` productions.
    pub fn uniform(n: usize) -> WeightVector {
        WeightVector {
            log_variable: 0.0,
            log_productions: vec![0.0; n],
        }
    }
}

/// Log-sum-exp with care for empty/-inf inputs.
pub fn logsumexp(values: &[f64]) -> f64 {
    let m = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() && m < 0.0 {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = values.iter().map(|v| (v - m).exp()).sum();
    m + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_lambda::primitives::base_primitives;

    #[test]
    fn library_from_primitives_indexes_stably() {
        let prims = base_primitives();
        let lib = Library::from_primitives(prims.iter().cloned());
        assert_eq!(lib.len(), prims.len());
        let map = lib.items[0].expr.clone();
        assert_eq!(lib.position(&map), Some(0));
        assert!(!lib.is_empty());
        assert!(lib.max_arity() >= 3); // fold has arity 3
    }

    #[test]
    fn depth_of_primitive_library_is_zero() {
        let prims = base_primitives();
        let lib = Library::from_primitives(prims.iter().cloned());
        assert_eq!(lib.depth(), 0);
        assert_eq!(lib.inventions().count(), 0);
    }

    #[test]
    fn depth_counts_nested_inventions() {
        use dc_lambda::expr::{Expr, Invented};
        let prims = base_primitives();
        let double_body = Expr::parse("(lambda (+ $0 $0))", &prims).unwrap();
        let double = Invented::new("double", double_body).unwrap();
        let quad_body = Expr::application(
            Expr::abstraction(Expr::application(
                Expr::Invented(double.clone()),
                Expr::application(Expr::Invented(double.clone()), Expr::Index(0)),
            )),
            Expr::parse("1", &prims).unwrap(),
        );
        let quad = Invented::new("quad1", quad_body).unwrap();
        let mut lib = Library::from_primitives(prims.iter().cloned());
        lib.push_invented(double);
        assert_eq!(lib.depth(), 1);
        lib.push_invented(quad);
        assert_eq!(lib.depth(), 2);
        assert_eq!(lib.inventions().count(), 2);
    }

    #[test]
    fn bigram_rows_are_disjoint() {
        let n = 5;
        let rows: Vec<usize> = (0..n)
            .map(BigramParent::Prod)
            .chain([BigramParent::Start, BigramParent::Var])
            .map(|p| p.row(n))
            .collect();
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), BigramParent::row_count(n));
    }

    #[test]
    fn logsumexp_matches_direct_computation() {
        let vals = [0.5_f64.ln(), 0.25_f64.ln(), 0.25_f64.ln()];
        assert!((logsumexp(&vals) - 0.0).abs() < 1e-12);
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
        assert_eq!(logsumexp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
