//! Tiny dependency-free argument parsing for the `xbfs` binary.

use std::collections::HashMap;

/// Options that never take a value. A bare flag does not consume the next
/// token (`--verify g.bin` is the flag plus a positional), and
/// `--verify=no` is a usage error rather than a silent "on".
const BARE_FLAGS: [&str; 10] = [
    "verify",
    "validate",
    "timing",
    "rearrange",
    "auto-alpha",
    "push-only",
    "allow-chaos",
    "multi-source",
    "shutdown",
    "no-reconnect",
];

/// Parsed command line: a subcommand, positional args, and
/// `--key value` / `--flag` options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Args {
    pub command: String,
    pub positional: Vec<String>,
    pub options: HashMap<String, String>,
}

impl Args {
    /// Parse from an iterator of argument strings (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, String> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().unwrap_or_default();
        let mut out = Args {
            command,
            ..Default::default()
        };
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name".into());
                }
                // `--key=value`, `--key value`, or bare `--flag`.
                if let Some((k, v)) = key.split_once('=') {
                    if BARE_FLAGS.contains(&k) {
                        return Err(format!("--{k} is a flag and takes no value (got {v:?})"));
                    }
                    out.options.insert(k.to_string(), v.to_string());
                } else if !BARE_FLAGS.contains(&key)
                    && it.peek().is_some_and(|n| !n.starts_with("--"))
                {
                    out.options.insert(key.to_string(), it.next().unwrap());
                } else {
                    out.options.insert(key.to_string(), String::new());
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// A typed option with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// A required option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_mixed_forms() {
        let a = parse(&[
            "bfs",
            "input.bin",
            "--source",
            "5",
            "--scale=18",
            "--validate",
        ]);
        assert_eq!(a.command, "bfs");
        assert_eq!(a.positional, vec!["input.bin"]);
        assert_eq!(a.get::<u32>("source", 0).unwrap(), 5);
        assert_eq!(a.get::<u32>("scale", 0).unwrap(), 18);
        assert!(a.flag("validate"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["generate"]);
        assert_eq!(a.get::<u32>("scale", 14).unwrap(), 14);
        assert!(a.require("out").is_err());
        assert!(parse(&["x", "--scale", "abc"])
            .get::<u32>("scale", 1)
            .is_err());
    }

    #[test]
    fn bare_flag_never_eats_the_next_argument() {
        let a = parse(&["bfs", "--verify", "g.bin", "--timing", "--source", "3"]);
        assert!(a.flag("verify") && a.flag("timing"));
        assert_eq!(a.positional, vec!["g.bin"]);
        assert_eq!(a.get::<u32>("source", 0).unwrap(), 3);
        // A value-taking option still takes the next token.
        assert_eq!(parse(&["x", "--out", "f.bin"]).require("out"), Ok("f.bin"));
    }

    #[test]
    fn bare_flag_with_a_value_is_a_usage_error() {
        for bad in ["--verify=no", "--shutdown=1", "--multi-source="] {
            let err = Args::parse(["sweep", bad].map(String::from)).unwrap_err();
            assert!(err.contains("takes no value"), "{bad}: {err}");
        }
        assert!(Args::parse(["bfs", "--source=4"].map(String::from)).is_ok());
    }

    #[test]
    fn empty_argv() {
        let a = Args::parse(std::iter::empty()).unwrap();
        assert_eq!(a.command, "");
    }
}
