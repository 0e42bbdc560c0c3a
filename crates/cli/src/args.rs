//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

use crate::CliError;

/// Parsed `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    flags: BTreeMap<String, String>,
}

impl Parsed {
    /// Parses `--key value` pairs for a command that accepts the flags
    /// in `known`; flags named in `switches` take no value (`--force`),
    /// are recorded as `"true"` and read back with [`Parsed::switch`].
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on positional arguments, dangling flags, and
    /// flags that are neither in `known` nor in `switches`.
    pub fn parse(argv: &[String], known: &[&str], switches: &[&str]) -> Result<Self, CliError> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument `{token}`"
                )));
            };
            if switches.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            if !known.contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown flag --{key} (see `rfcgen help`)"
                )));
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!(
                    "flag --{key} is missing its value"
                )));
            };
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Self { flags })
    }

    /// True when a switch flag (see [`Parsed::parse`]) was present.
    pub fn switch(&self, key: &str) -> bool {
        self.flags.get(key).is_some_and(|v| v == "true")
    }

    /// Raw string flag.
    pub fn str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Optional raw string flag.
    pub fn opt_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Parsed numeric flag with default.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: cannot parse `{raw}`"))),
        }
    }

    /// Optional parsed numeric flag.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse.
    pub fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("--{key}: cannot parse `{raw}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn parse(tokens: &[&str]) -> Result<Parsed, CliError> {
        Parsed::parse(&argv(tokens), &["radix", "kind", "seed"], &[])
    }

    #[test]
    fn parses_pairs() {
        let p = parse(&["--radix", "12", "--kind", "rfc"]).unwrap();
        assert_eq!(p.num::<usize>("radix", 0).unwrap(), 12);
        assert_eq!(p.str("kind", "x"), "rfc");
        assert_eq!(p.str("missing", "fallback"), "fallback");
        assert_eq!(p.opt_num::<u64>("seed").unwrap(), None);
    }

    #[test]
    fn rejects_positionals_dangling_and_unknown_flags() {
        assert!(parse(&["stray"]).is_err());
        assert!(parse(&["--radix"]).is_err());
        let Err(CliError::Usage(msg)) = parse(&["--topology", "cft"]) else {
            panic!("an unknown flag must be a usage error");
        };
        assert!(msg.contains("--topology"), "{msg}");
    }

    #[test]
    fn switch_flags_take_no_value() {
        let tokens = argv(&["--force", "--only", "fig8,costs", "--list"]);
        let p = Parsed::parse(&tokens, &["only"], &["force", "list"]).unwrap();
        assert!(p.switch("force"));
        assert!(p.switch("list"));
        assert!(!p.switch("missing"));
        assert_eq!(p.str("only", ""), "fig8,costs");
        // Without the switch declaration, `--force` would swallow `--only`.
        assert!(Parsed::parse(&tokens, &["only", "force"], &["list"]).is_err());
    }

    #[test]
    fn rejects_unparsable_numbers() {
        let p = parse(&["--radix", "twelve"]).unwrap();
        assert!(p.num::<usize>("radix", 0).is_err());
        assert!(p.opt_num::<usize>("radix").is_err());
    }
}
