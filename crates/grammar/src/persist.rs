//! Saving and loading learned libraries and grammars.
//!
//! A learned library is serialized as surface syntax: primitives by name,
//! inventions as `#(...)` source text (nested inventions re-parse
//! recursively). This lets a downstream user persist what DreamCoder
//! learned and reload it against the same primitive set.

use std::sync::Arc;

use dc_lambda::error::ParseError;
use dc_lambda::expr::{Expr, Invented, PrimitiveLookup};
use dc_lambda::primitives::PrimitiveSet;
use serde::{Deserialize, Serialize};

use dc_lambda::types::Type;

use crate::frontier::{Frontier, FrontierEntry};
use crate::grammar::Grammar;
use crate::library::{Library, LibraryItem, WeightVector};

/// Serialized form of a [`Library`] plus unigram weights.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SavedGrammar {
    /// Names of base primitives, in production order.
    pub primitives: Vec<String>,
    /// Invention bodies as surface syntax, in production order (inventions
    /// come after primitives, matching [`Library::push_invented`]).
    pub inventions: Vec<String>,
    /// `log_variable` weight.
    pub log_variable: f64,
    /// Per-production log weights (primitives then inventions).
    pub log_productions: Vec<f64>,
}

/// Serialized form of one [`FrontierEntry`]: the program as surface
/// syntax plus its scores. Programs calling inventions print as inline
/// `#(...)` literals, so they reload against the primitive set alone.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SavedFrontierEntry {
    /// The program's surface syntax.
    pub expr: String,
    /// `log P[x | ρ]`.
    pub log_likelihood: f64,
    /// `log P[ρ | D, θ]`.
    pub log_prior: f64,
}

/// Serialized form of a [`Frontier`]'s entries, in beam order. The
/// request type is not stored: it is recovered from the task the
/// frontier belongs to.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SavedFrontier {
    /// Beam entries, best-posterior first.
    pub entries: Vec<SavedFrontierEntry>,
}

/// Error loading a saved grammar or frontier.
#[derive(Debug)]
pub enum LoadError {
    /// A primitive name was not found in the supplied primitive set.
    UnknownPrimitive(String),
    /// An invention body failed to parse or typecheck.
    BadInvention(String, ParseError),
    /// A frontier program failed to parse.
    BadProgram(String, ParseError),
    /// Weight vector length disagrees with the library size.
    WeightMismatch {
        /// Productions in the library.
        expected: usize,
        /// Weights provided.
        found: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::UnknownPrimitive(name) => {
                write!(f, "unknown primitive {name:?} in saved grammar")
            }
            LoadError::BadInvention(src, e) => {
                write!(f, "invention {src:?} failed to load: {e}")
            }
            LoadError::BadProgram(src, e) => {
                write!(f, "frontier program {src:?} failed to load: {e}")
            }
            LoadError::WeightMismatch { expected, found } => {
                write!(f, "expected {expected} weights, found {found}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Serialize a grammar (library + θ) for persistence.
pub fn save_grammar(grammar: &Grammar) -> SavedGrammar {
    let mut primitives = Vec::new();
    let mut inventions = Vec::new();
    for item in &grammar.library.items {
        match &item.expr {
            Expr::Invented(inv) => inventions.push(inv.body.to_string()),
            other => primitives.push(other.to_string()),
        }
    }
    SavedGrammar {
        primitives,
        inventions,
        log_variable: grammar.weights.log_variable,
        log_productions: grammar.weights.log_productions.clone(),
    }
}

/// Reconstruct a grammar from its saved form against a primitive set.
///
/// # Errors
/// See [`LoadError`]. Invention bodies referencing earlier inventions are
/// resolved because they serialize as inline `#(...)` literals.
pub fn load_grammar(saved: &SavedGrammar, prims: &PrimitiveSet) -> Result<Grammar, LoadError> {
    let mut items = Vec::new();
    for name in &saved.primitives {
        let p = prims
            .primitive(name)
            .ok_or_else(|| LoadError::UnknownPrimitive(name.clone()))?;
        items.push(LibraryItem::from_primitive(p));
    }
    for src in &saved.inventions {
        let body = Expr::parse(src, prims).map_err(|e| LoadError::BadInvention(src.clone(), e))?;
        let name = format!("#{body}");
        let inv = Invented::new(&name, body)
            .map_err(|e| LoadError::BadInvention(src.clone(), ParseError::new(e.to_string())))?;
        items.push(LibraryItem::from_invented(inv));
    }
    let library = Arc::new(Library { items });
    if saved.log_productions.len() != library.len() {
        return Err(LoadError::WeightMismatch {
            expected: library.len(),
            found: saved.log_productions.len(),
        });
    }
    Ok(Grammar {
        library,
        weights: WeightVector {
            log_variable: saved.log_variable,
            log_productions: saved.log_productions.clone(),
        },
    })
}

/// Serialize a frontier's beam as surface syntax.
pub fn save_frontier(frontier: &Frontier) -> SavedFrontier {
    SavedFrontier {
        entries: frontier
            .entries
            .iter()
            .map(|e| SavedFrontierEntry {
                expr: e.expr.to_string(),
                log_likelihood: e.log_likelihood,
                log_prior: e.log_prior,
            })
            .collect(),
    }
}

/// Reconstruct a frontier from its saved form. Entries are restored
/// verbatim — same order, same scores — so a save/load round trip is
/// bit-for-bit (`insert` is deliberately not re-run, as it would re-trim
/// against an unknown beam size).
///
/// # Errors
/// [`LoadError::BadProgram`] when an entry's surface syntax fails to
/// parse against `prims`.
pub fn load_frontier(
    saved: &SavedFrontier,
    request: Type,
    prims: &PrimitiveSet,
) -> Result<Frontier, LoadError> {
    let mut entries = Vec::with_capacity(saved.entries.len());
    for e in &saved.entries {
        let expr = Expr::parse(&e.expr, prims)
            .map_err(|err| LoadError::BadProgram(e.expr.clone(), err))?;
        entries.push(FrontierEntry {
            expr,
            log_likelihood: e.log_likelihood,
            log_prior: e.log_prior,
        });
    }
    Ok(Frontier { request, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::tint;

    #[test]
    fn grammar_round_trips_through_save_load() {
        let prims = base_primitives();
        let mut lib = Library::from_primitives(prims.iter().cloned());
        let body = Expr::parse("(lambda (+ $0 $0))", &prims).unwrap();
        let inv = Invented::new("#(lambda (+ $0 $0))", body).unwrap();
        lib.push_invented(inv);
        let mut g = Grammar::uniform(Arc::new(lib));
        g.weights.log_variable = -0.5;
        g.weights.log_productions[3] = 1.25;

        let saved = save_grammar(&g);
        let loaded = load_grammar(&saved, &prims).unwrap();
        assert_eq!(loaded.library.len(), g.library.len());
        assert_eq!(loaded.weights, g.weights);
        // Same priors for the same program.
        let e = Expr::parse("(+ 1 1)", &prims).unwrap();
        assert!((loaded.log_prior(&tint(), &e) - g.log_prior(&tint(), &e)).abs() < 1e-12);
    }

    #[test]
    fn nested_inventions_round_trip() {
        let prims = base_primitives();
        let mut lib = Library::from_primitives(prims.iter().cloned());
        let double_body = Expr::parse("(lambda (+ $0 $0))", &prims).unwrap();
        let double = Invented::new("#(lambda (+ $0 $0))", double_body).unwrap();
        lib.push_invented(Arc::clone(&double));
        // quad = λx. double (double x), written with the invention inline.
        let quad_body = Expr::abstraction(Expr::application(
            Expr::Invented(Arc::clone(&double)),
            Expr::application(Expr::Invented(double), Expr::Index(0)),
        ));
        let quad = Invented::new(&format!("#{quad_body}"), quad_body).unwrap();
        lib.push_invented(quad);
        let g = Grammar::uniform(Arc::new(lib));

        let saved = save_grammar(&g);
        let json = serde_json::to_string(&saved).unwrap();
        let back: SavedGrammar = serde_json::from_str(&json).unwrap();
        let loaded = load_grammar(&back, &prims).unwrap();
        assert_eq!(loaded.library.len(), g.library.len());
        assert_eq!(loaded.library.depth(), 2);
    }

    #[test]
    fn frontiers_round_trip_bit_for_bit() {
        let prims = base_primitives();
        let mut lib = Library::from_primitives(prims.iter().cloned());
        let body = Expr::parse("(lambda (+ $0 $0))", &prims).unwrap();
        let inv = Invented::new("#(lambda (+ $0 $0))", body).unwrap();
        lib.push_invented(Arc::clone(&inv));
        let mut f = Frontier::new(tint());
        f.insert(
            crate::frontier::FrontierEntry {
                expr: Expr::parse("(+ 1 1)", &prims).unwrap(),
                log_likelihood: -0.125,
                log_prior: -2.75,
            },
            5,
        );
        // A program that calls the invention, exercising `#(...)` syntax.
        f.insert(
            crate::frontier::FrontierEntry {
                expr: Expr::application(Expr::Invented(inv), Expr::parse("1", &prims).unwrap()),
                log_likelihood: 0.0,
                log_prior: -3.5,
            },
            5,
        );
        let saved = save_frontier(&f);
        let json = serde_json::to_string(&saved).unwrap();
        let back: SavedFrontier = serde_json::from_str(&json).unwrap();
        let loaded = load_frontier(&back, tint(), &prims).unwrap();
        assert_eq!(loaded, f, "entries, order, and scores must survive");
    }

    #[test]
    fn load_frontier_reports_bad_programs() {
        let prims = base_primitives();
        let saved = SavedFrontier {
            entries: vec![SavedFrontierEntry {
                expr: "(no-such-prim 1".into(),
                log_likelihood: 0.0,
                log_prior: 0.0,
            }],
        };
        assert!(matches!(
            load_frontier(&saved, tint(), &prims),
            Err(LoadError::BadProgram(_, _))
        ));
    }

    #[test]
    fn load_frontier_rejects_programs_nested_past_max_depth() {
        // Runs on the default test-thread stack: a hostile checkpoint must
        // come back as an error, not overflow the parser.
        let prims = base_primitives();
        let deep = format!("{}1{}", "(lambda ".repeat(100_000), ")".repeat(100_000));
        let saved = SavedFrontier {
            entries: vec![SavedFrontierEntry {
                expr: deep,
                log_likelihood: 0.0,
                log_prior: 0.0,
            }],
        };
        let json = serde_json::to_string(&saved).unwrap();
        let back: SavedFrontier = serde_json::from_str(&json).unwrap();
        assert!(matches!(
            load_frontier(&back, tint(), &prims),
            Err(LoadError::BadProgram(_, _))
        ));
    }

    #[test]
    fn load_errors_are_informative() {
        let prims = base_primitives();
        let saved = SavedGrammar {
            primitives: vec!["no-such-prim".into()],
            inventions: vec![],
            log_variable: 0.0,
            log_productions: vec![0.0],
        };
        assert!(matches!(
            load_grammar(&saved, &prims),
            Err(LoadError::UnknownPrimitive(_))
        ));
        let saved = SavedGrammar {
            primitives: vec!["+".into()],
            inventions: vec![],
            log_variable: 0.0,
            log_productions: vec![],
        };
        assert!(matches!(
            load_grammar(&saved, &prims),
            Err(LoadError::WeightMismatch { .. })
        ));
    }
}
