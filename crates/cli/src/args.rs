//! Minimal command-line argument parsing (no external dependencies).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Remaining positional arguments.
    positional: Vec<String>,
    /// `--key value` options and boolean `--flag`s (value `"true"`).
    options: HashMap<String, String>,
    /// Keys some accessor has asked for, present or not (see
    /// [`Args::unread`]).
    read: RefCell<HashSet<String>>,
    /// How many leading positional arguments some accessor has asked for.
    positional_read: Cell<usize>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding `argv[0]`).
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut pending_key: Option<String> = None;
        for a in argv.by_ref() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some(k) = pending_key.take() {
                    args.options.insert(k, "true".into());
                }
                pending_key = Some(key.to_string());
            } else if let Some(k) = pending_key.take() {
                args.options.insert(k, a);
            } else if args.command.is_empty() {
                args.command = a;
            } else {
                args.positional.push(a);
            }
        }
        if let Some(k) = pending_key.take() {
            args.options.insert(k, "true".into());
        }
        args
    }

    /// The raw value of `key`, recording that it was read.
    fn value(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_string());
        self.options.get(key)
    }

    /// Positional argument `i` (0 is the first after the subcommand),
    /// recording that the command takes it.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional_read
            .set(self.positional_read.get().max(i + 1));
        self.positional.get(i).map(String::as_str)
    }

    /// The arguments given on the command line that no accessor has read:
    /// the options apart from `allowed`, as `--key` sorted by name, then
    /// the positional arguments past those read, in order. A command that
    /// has read every argument it takes calls this to refuse the rest.
    pub fn unread(&self, allowed: &[&str]) -> Vec<String> {
        let read = self.read.borrow();
        let mut unread: Vec<String> = self
            .options
            .keys()
            .filter(|k| !read.contains(*k) && !allowed.contains(&k.as_str()))
            .map(|k| format!("--{k}"))
            .collect();
        unread.sort_unstable();
        unread.extend(
            self.positional
                .iter()
                .skip(self.positional_read.get())
                .cloned(),
        );
        unread
    }

    /// String option with a default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.value(key).map(String::as_str).unwrap_or(default)
    }

    /// Integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error message when the value is not an integer.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get_int(key, default)
    }

    /// Integer option with a default, as a `usize` (a count or a size).
    ///
    /// # Errors
    ///
    /// Returns an error message when the value is not an integer that
    /// fits a `usize`.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.get_int(key, default)
    }

    fn get_int<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
        }
    }

    /// Floating-point option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error message when the value is not a number.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    /// Seconds option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error message when the value is not a number, or is
    /// negative, not finite or too large for a [`Duration`].
    pub fn get_secs(&self, key: &str, default: Duration) -> Result<Duration, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| {
                    format!("--{key} expects a finite, non-negative number of seconds, got `{v}`")
                }),
        }
    }

    /// Boolean flag: given bare (or as `--key true`) or not at all. The
    /// parser cannot tell a flag from an option, so the word after a flag
    /// reaches here as its value.
    ///
    /// # Errors
    ///
    /// Returns an error message naming the flag and the word when the flag
    /// was given any other value, rather than reading it as "off" and
    /// dropping the word.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.value(key).map(String::as_str) {
            None => Ok(false),
            Some("true") => Ok(true),
            Some(v) => Err(format!("--{key} is a flag and takes no value, got `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse("analyze --model vgg16 --pes 256 --json");
        assert_eq!(a.command, "analyze");
        assert_eq!(a.get("model", ""), "vgg16");
        assert_eq!(a.get_u64("pes", 64).unwrap(), 256);
        assert_eq!(a.flag("json"), Ok(true));
        assert_eq!(a.flag("quiet"), Ok(false));
    }

    #[test]
    fn positional_arguments() {
        let a = parse("zoo resnet50 extra");
        assert_eq!(a.command, "zoo");
        assert_eq!(a.positional, vec!["resnet50", "extra"]);
    }

    #[test]
    fn unread_lists_options_then_positionals_no_accessor_read() {
        let a = parse("dse --model vgg16 --bogus 1 stray --metrics -");
        assert_eq!(a.get("model", ""), "vgg16");
        assert_eq!(a.unread(&["metrics"]), vec!["--bogus", "stray"]);
        let t = parse("trace abc extra --from host:1");
        assert_eq!(t.positional(0), Some("abc"));
        assert_eq!(t.get("from", ""), "host:1");
        assert_eq!(t.unread(&[]), vec!["extra"]);
        assert_eq!(t.positional(1), Some("extra"));
        assert!(t.unread(&[]).is_empty());
    }

    #[test]
    fn a_flag_given_a_value_is_an_error_naming_the_flag_and_the_word() {
        let a = parse("dse --json stray --progress true --metrics -");
        assert_eq!(
            a.flag("json"),
            Err("--json is a flag and takes no value, got `stray`".to_string())
        );
        assert_eq!(a.flag("progress"), Ok(true), "an explicit true is a flag");
        let b = parse("analyze --json false");
        assert!(b.flag("json").unwrap_err().contains("`false`"));
        // A valued option is read through `get`, not `flag`.
        assert_eq!(a.get("metrics", ""), "-");
    }

    #[test]
    fn bad_integer_reports_error() {
        let a = parse("x --pes lots --workers -1");
        assert!(a.get_u64("pes", 1).is_err());
        assert!(a.get_usize("workers", 4).is_err());
        assert_eq!(a.get_usize("missing", 4), Ok(4));
    }

    #[test]
    fn float_options() {
        let a = parse("x --tol-runtime 12.5");
        assert_eq!(a.get_f64("tol-runtime", 1.0).unwrap(), 12.5);
        assert_eq!(a.get_f64("missing", 2.5).unwrap(), 2.5);
        assert!(a.get_f64("tol-runtime", 1.0).is_ok());
        let b = parse("x --tol-l1 wide");
        assert!(b.get_f64("tol-l1", 1.0).is_err());
    }

    #[test]
    fn trailing_flag() {
        let a = parse("x --verbose");
        assert_eq!(a.flag("verbose"), Ok(true));
    }
}
