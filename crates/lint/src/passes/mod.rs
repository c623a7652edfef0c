pub mod cast;
pub mod ordering;
pub mod safety;
pub mod scope;
