//! Minimal flag parsing for the `cape` binary (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand, `--key value` options, and `--flag`
/// booleans.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub command: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Option keys that take a value; everything else starting with `--` is a
/// boolean flag.
const VALUE_KEYS: &[&str] = &[
    "csv",
    "schema",
    "save",
    "store",
    "sql",
    "tuple",
    "dir",
    "k",
    "psi",
    "theta",
    "delta",
    "lambda",
    "support",
    "rows",
    "seed",
    "agg",
    "agg-attr",
    "exclude",
    "metrics",
    "questions",
    "threads",
    "timeout-ms",
    "cache",
    "trace-out",
    "access-log",
    "snapshot",
    "top",
    "listen",
    "name",
    "queue",
    "max-body",
    "deadline-ms",
    "max-connections",
    "min-members",
    "max-loss",
];

/// Single-dash short flags and the long flag each expands to.
const SHORT_FLAGS: &[(&str, &str)] = &[("-v", "verbose"), ("-q", "quiet")];

impl Args {
    /// Parse `argv[1..]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if VALUE_KEYS.contains(&key) {
                    let value =
                        argv.get(i + 1).ok_or_else(|| format!("--{key} requires a value"))?;
                    out.options.insert(key.to_string(), value.clone());
                    i += 2;
                } else {
                    out.flags.push(key.to_string());
                    i += 1;
                }
            } else if let Some((_, long)) = SHORT_FLAGS.iter().find(|(s, _)| s == a) {
                out.flags.push(long.to_string());
                i += 1;
            } else if a.starts_with('-') {
                return Err(format!("unknown flag `{a}`"));
            } else if out.command.is_none() {
                out.command = Some(a.clone());
                i += 1;
            } else {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A typed option with a default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse::<T>().map_err(|_| format!("invalid value for --{key}: `{v}`")),
            None => Ok(default),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_command_options_flags() {
        let a = Args::parse(&argv("mine --csv pub.csv --psi 3 --fd")).unwrap();
        assert_eq!(a.command.as_deref(), Some("mine"));
        assert_eq!(a.get("csv"), Some("pub.csv"));
        assert_eq!(a.get_parse::<usize>("psi", 4).unwrap(), 3);
        assert!(a.flag("fd"));
        assert!(!a.flag("narrate"));
    }

    #[test]
    fn short_flags_and_metrics() {
        let a = Args::parse(&argv("explain --metrics out.json -v")).unwrap();
        assert_eq!(a.get("metrics"), Some("out.json"));
        assert!(a.flag("verbose"));
        let q = Args::parse(&argv("mine -q")).unwrap();
        assert!(q.flag("quiet"));
        assert!(Args::parse(&argv("mine -x")).is_err());
    }

    #[test]
    fn defaults_and_errors() {
        let a = Args::parse(&argv("explain")).unwrap();
        assert_eq!(a.get_parse::<usize>("k", 10).unwrap(), 10);
        assert!(a.require("csv").is_err());
        assert!(Args::parse(&argv("mine --csv")).is_err());
        assert!(Args::parse(&argv("mine extra-positional")).is_err());
        let bad = Args::parse(&argv("mine --psi abc")).unwrap();
        assert!(bad.get_parse::<usize>("psi", 4).is_err());
    }
}
