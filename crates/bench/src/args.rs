//! Minimal `--key value` command-line parsing for the experiment
//! binaries (no external dependency needed for eight flags).

use std::collections::HashMap;

/// Parsed `--key value` arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parse from `std::env::args`. Unknown keys are kept (a caller that
    /// knows its whole flag set calls [`Args::reject_unknown`]); a
    /// trailing key without a value is an error.
    pub fn parse() -> Args {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable). Not `FromIterator`:
    /// this panics on malformed input, which `collect()` must not.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = String>) -> Args {
        let mut map = HashMap::new();
        let mut it = iter.into_iter().peekable();
        while let Some(key) = it.next() {
            let Some(stripped) = key.strip_prefix("--") else {
                panic!("unexpected positional argument: {key}");
            };
            let value = it.next().unwrap_or_else(|| panic!("missing value for --{stripped}"));
            map.insert(stripped.to_string(), value);
        }
        Args { map }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.map
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|e| panic!("bad value for --{key}: {e:?}")))
            .unwrap_or(default)
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Panic, listing the valid flags, if a key outside `known` was given:
    /// a mistyped `--round 3` must not silently run at the default scale.
    pub fn reject_unknown(&self, known: &[&str]) {
        let mut unknown: Vec<&str> =
            self.map.keys().map(String::as_str).filter(|k| !known.contains(k)).collect();
        unknown.sort_unstable();
        if let Some(key) = unknown.first() {
            panic!("unknown flag --{key}; valid flags: --{}", known.join(" --"));
        }
    }

    /// Whether a key was provided.
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typed_values() {
        let a = Args::from_iter(
            ["--rounds", "12", "--ratio", "0.5", "--name", "x"].map(String::from),
        );
        assert_eq!(a.get::<usize>("rounds", 1), 12);
        assert!((a.get::<f32>("ratio", 0.0) - 0.5).abs() < 1e-6);
        assert_eq!(a.get_str("name", "y"), "x");
        assert_eq!(a.get::<usize>("missing", 7), 7);
        assert!(a.has("rounds") && !a.has("missing"));
    }

    #[test]
    #[should_panic(expected = "unknown flag --round; valid flags: --rounds --seed")]
    fn rejects_unknown_flag() {
        let a = Args::from_iter(["--rounds", "3", "--round", "3"].map(String::from));
        a.reject_unknown(&["rounds", "seed"]);
    }

    #[test]
    fn accepts_known_flags() {
        Args::from_iter(["--seed", "3"].map(String::from)).reject_unknown(&["rounds", "seed"]);
    }

    #[test]
    #[should_panic]
    fn rejects_positional() {
        let _ = Args::from_iter(["oops".to_string()]);
    }
}
