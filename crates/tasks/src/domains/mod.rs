//! The eight evaluation domains of the paper (§5), each with any
//! simulator substrate it needs, and the table that names them.

use crate::domain::Domain;

pub mod list;
pub mod logo;
pub mod origami;
pub mod physics;
pub mod reals;
pub mod regex;
pub mod symreg;
pub mod text;
pub mod tower;

/// Builds a domain from its corpus seed.
pub type MakeDomain = fn(u64) -> Box<dyn Domain>;

/// Every domain by name, in the order `dreamcoder domains` lists them.
pub const ALL: &[(&str, MakeDomain)] = &[
    ("list", |seed| Box::new(list::ListDomain::new(seed))),
    ("text", |seed| Box::new(text::TextDomain::new(seed))),
    ("logo", |seed| Box::new(logo::LogoDomain::new(seed))),
    ("tower", |seed| Box::new(tower::TowerDomain::new(seed))),
    ("regex", |seed| Box::new(regex::RegexDomain::new(seed))),
    ("symreg", |seed| Box::new(symreg::SymRegDomain::new(seed))),
    ("physics", |seed| {
        Box::new(physics::PhysicsDomain::new(seed))
    }),
    ("origami", |seed| {
        Box::new(origami::OrigamiDomain::new(seed))
    }),
];

/// Build the domain called `name` with corpus seed `seed`; `None` when
/// no domain has that name.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Domain>> {
    ALL.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, make)| make(seed))
}
