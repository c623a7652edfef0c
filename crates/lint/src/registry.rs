//! Parser for the machine-readable invariant registry (`INVARIANTS.md`).
//!
//! The registry is ordinary Markdown constrained to one convention: every
//! invariant is introduced by a level-2 heading of the form
//! `## INV-xx — title`. The linter only needs the set of declared IDs; the
//! prose (statement, paper citation, discharge obligations) is for humans.

use std::collections::BTreeSet;
use std::path::Path;

/// The set of declared invariant IDs (`INV-01`, `INV-02`, …).
#[derive(Debug, Default)]
pub struct Registry {
    pub ids: BTreeSet<String>,
}

impl Registry {
    /// Parses `INVARIANTS.md`. Returns an error string when the file is
    /// missing or declares no invariants — an empty registry would silently
    /// accept nothing and reject everything.
    pub fn load(path: &Path) -> Result<Registry, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read invariant registry {}: {e}", path.display()))?;
        let mut ids = BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("## ") {
                let id: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                if id.starts_with("INV-") && id.len() > 4 {
                    ids.insert(id);
                }
            }
        }
        if ids.is_empty() {
            return Err(format!(
                "invariant registry {} declares no `## INV-xx` headings",
                path.display()
            ));
        }
        Ok(Registry { ids })
    }

    pub fn contains(&self, id: &str) -> bool {
        self.ids.contains(id)
    }
}

/// Extracts every `[INV-nn]` citation from a comment block; a placeholder
/// such as `[INV-xx]` cites nothing.
pub fn cited_invariants(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    for tail in comment.split("[INV-").skip(1) {
        let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
        if digits > 0 && tail[digits..].starts_with(']') {
            out.push(format!("INV-{}", &tail[..digits]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citations_extracted() {
        let c = "// SAFETY: [INV-01] protected read; see also [INV-12].";
        assert_eq!(cited_invariants(c), vec!["INV-01", "INV-12"]);
        assert!(cited_invariants("// SAFETY: no citation").is_empty());
        assert!(cited_invariants("// [INV-] malformed").is_empty());
        assert!(cited_invariants("/// cite as `// SAFETY: [INV-xx]`").is_empty());
    }
}
