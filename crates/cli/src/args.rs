//! Table-driven command-line parsing (no external dependencies).
//!
//! Each command declares the flags it takes once, in a table of
//! [`Flag`]s, and [`Args::parse`] reads every table. It checks each value
//! against its flag's [`Kind`], and refuses an unknown flag, a word given
//! to a boolean flag and a stray positional argument before the command
//! starts any work, so a typo or a retired knob never runs with settings
//! the caller did not ask for.

use std::collections::HashMap;
use std::time::Duration;

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No value: given bare (or as `--flag true`), or not at all.
    Bool,
    /// A non-negative integer.
    Int,
    /// A number.
    Num,
    /// A finite, non-negative number of seconds.
    Secs,
    /// Any word.
    Text,
}

impl Kind {
    /// `None` when `value` is of this kind, else what the flag expects.
    fn refuses(self, value: &str) -> Option<&'static str> {
        let (ok, expects) = match self {
            Kind::Bool => (value == "true", "is a flag and takes no value"),
            Kind::Int => (value.parse::<u64>().is_ok(), "expects an integer"),
            Kind::Num => (value.parse::<f64>().is_ok(), "expects a number"),
            Kind::Secs => (
                secs(value).is_some(),
                "expects a finite, non-negative number of seconds",
            ),
            Kind::Text => (true, ""),
        };
        (!ok).then_some(expects)
    }
}

/// One flag a command takes.
#[derive(Debug)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    pub kind: Kind,
    /// The value when the flag is not given; `""` for none.
    pub default: &'static str,
    /// One line for the usage text.
    pub help: &'static str,
}

impl Flag {
    pub const fn new(
        name: &'static str,
        kind: Kind,
        default: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            kind,
            default,
            help,
        }
    }

    /// The flag's line in the usage text.
    pub fn usage(&self) -> String {
        let value = match self.kind {
            Kind::Bool => "",
            Kind::Int => " <n>",
            Kind::Num => " <x>",
            Kind::Secs => " <secs>",
            Kind::Text => " <text>",
        };
        let flag = format!("--{}{value}", self.name);
        match self.default {
            "" => format!("      {flag:<28}{}\n", self.help),
            d => format!("      {flag:<28}{} (default {d})\n", self.help),
        }
    }
}

/// One command's command line, parsed against its flag table.
#[derive(Debug)]
pub struct Args {
    /// The command, for the messages that name it.
    command: &'static str,
    flags: Vec<&'static Flag>,
    /// The flags given, with their checked values.
    given: HashMap<&'static str, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse `argv`, the words after `command`'s name, against the flags
    /// it takes, keeping up to `positionals` positional arguments. A word
    /// after a flag is the flag's value unless it is another flag; a
    /// boolean flag given bare is on.
    ///
    /// # Errors
    ///
    /// A message naming the word refused: a flag not in `flags`, a
    /// missing or malformed value, a word other than `true` after a
    /// boolean flag, or a positional argument past the last one taken.
    pub fn parse(
        command: &'static str,
        flags: impl IntoIterator<Item = &'static Flag>,
        positionals: usize,
        argv: &[String],
    ) -> Result<Args, String> {
        let mut args = Args {
            command,
            flags: flags.into_iter().collect(),
            given: HashMap::new(),
            positional: Vec::new(),
        };
        let mut words = argv.iter().peekable();
        while let Some(word) = words.next() {
            let flag = match word.strip_prefix("--") {
                Some(name) => args.flags.iter().find(|f| f.name == name).copied(),
                None if args.positional.len() < positionals => {
                    args.positional.push(word.clone());
                    continue;
                }
                None => None,
            };
            let flag = flag.ok_or_else(|| format!("{command} does not take {word}"))?;
            let value = match words.next_if(|w| !w.starts_with("--")) {
                Some(value) => value.clone(),
                None if flag.kind == Kind::Bool => "true".to_string(),
                None => return Err(format!("{word} expects a value")),
            };
            if let Some(expects) = flag.kind.refuses(&value) {
                return Err(format!("{word} {expects}, got `{value}`"));
            }
            args.given.insert(flag.name, value);
        }
        Ok(args)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// The value of `name`, read as `kind`: the one given, else its table
    /// default (`None` when that is empty). A command reading a flag its
    /// table does not declare, or as another kind, is a bug in the
    /// command: this panics, so no table drifts from its command.
    fn value(&self, name: &str, kind: Kind) -> Option<&str> {
        let Some(flag) = self.flags.iter().find(|f| f.name == name && f.kind == kind) else {
            panic!(
                "{} reads --{name} as {kind:?}, which its table does not declare",
                self.command
            );
        };
        match self.given.get(name) {
            Some(v) => Some(v),
            None => Some(flag.default).filter(|d| !d.is_empty()),
        }
    }

    /// The value of `name` as `parse` reads it. Values given were checked
    /// by [`Args::parse`], and table defaults by the tests, so this
    /// panics only on a flag with neither.
    fn parsed<T>(&self, name: &str, kind: Kind, parse: impl Fn(&str) -> Option<T>) -> T {
        let value = self.value(name, kind).and_then(parse);
        value.unwrap_or_else(|| panic!("{} reads --{name} with no default", self.command))
    }

    /// Whether boolean flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.value(name, Kind::Bool).is_some()
    }

    /// Text flag `name`, or `""` when it has no value.
    pub fn text(&self, name: &str) -> &str {
        self.value(name, Kind::Text).unwrap_or_default()
    }

    pub fn u64(&self, name: &str) -> u64 {
        self.parsed(name, Kind::Int, |v| v.parse().ok())
    }

    /// [`Args::u64`] as a count or a size, saturating where a `usize` is
    /// narrower.
    pub fn usize(&self, name: &str) -> usize {
        usize::try_from(self.u64(name)).unwrap_or(usize::MAX)
    }

    pub fn f64(&self, name: &str) -> f64 {
        self.parsed(name, Kind::Num, |v| v.parse().ok())
    }

    pub fn secs(&self, name: &str) -> Duration {
        self.parsed(name, Kind::Secs, secs)
    }

    /// Whether flag `name` was given, whatever its value.
    pub fn given(&self, name: &str) -> bool {
        let declared = self.flags.iter().any(|f| f.name == name);
        assert!(
            declared,
            "{} asks for --{name}, which its table does not declare",
            self.command
        );
        self.given.contains_key(name)
    }
}

/// `value` as a [`Duration`]: `None` unless it is a finite, non-negative
/// number of seconds that fits one.
fn secs(value: &str) -> Option<Duration> {
    let secs = value.parse().ok()?;
    Duration::try_from_secs_f64(secs).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::new("model", Kind::Text, "vgg16", "model"),
        Flag::new("layer", Kind::Text, "", "layer"),
        Flag::new("pes", Kind::Int, "256", "PEs"),
        Flag::new("workers", Kind::Int, "", "workers"),
        Flag::new("tol", Kind::Num, "1.5", "tolerance"),
        Flag::new("wait", Kind::Secs, "5", "wait"),
        Flag::new("json", Kind::Bool, "", "JSON"),
        Flag::new("progress", Kind::Bool, "", "progress"),
        Flag::new("metrics", Kind::Text, "", "metrics"),
    ];

    fn parse(line: &str, positionals: usize) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse("cmd", FLAGS, positionals, &argv)
    }

    #[test]
    fn values_given_and_defaults() {
        let a = parse("--model resnet50 --workers 2 --json --metrics -", 0).unwrap();
        assert_eq!(a.text("model"), "resnet50");
        assert_eq!(a.usize("workers"), 2);
        assert!(a.flag("json"));
        assert_eq!(a.text("metrics"), "-");
        assert_eq!(a.u64("pes"), 256);
        assert_eq!(a.f64("tol"), 1.5);
        assert_eq!(a.secs("wait"), Duration::from_secs(5));
        assert!(!a.flag("progress"));
        assert_eq!(a.text("layer"), "");
    }

    #[test]
    fn an_unknown_flag_is_refused_naming_the_command_and_the_flag() {
        assert_eq!(
            parse("--model vgg16 --bogus 1", 0).unwrap_err(),
            "cmd does not take --bogus"
        );
        assert_eq!(
            parse("--modle vgg16", 0).unwrap_err(),
            "cmd does not take --modle"
        );
    }

    #[test]
    fn positionals_past_the_count_are_refused() {
        assert_eq!(
            parse("--model vgg16 stray", 0).unwrap_err(),
            "cmd does not take stray"
        );
        let a = parse("abc --metrics -", 1).unwrap();
        assert_eq!(a.positional(0), Some("abc"));
        assert_eq!(a.positional(1), None);
        assert_eq!(a.text("metrics"), "-");
        assert_eq!(
            parse("abc extra", 1).unwrap_err(),
            "cmd does not take extra"
        );
        let b = parse("abc extra", 2).unwrap();
        assert_eq!(b.positional(1), Some("extra"));
    }

    #[test]
    fn a_flag_given_a_value_is_an_error_naming_the_flag_and_the_word() {
        assert_eq!(
            parse("--json stray --progress true", 0).unwrap_err(),
            "--json is a flag and takes no value, got `stray`"
        );
        let a = parse("--progress true --json", 0).unwrap();
        assert!(a.flag("progress"), "an explicit true is a flag");
        assert!(a.flag("json"), "a trailing flag is on");
        assert!(parse("--json false", 0).unwrap_err().contains("`false`"));
    }

    #[test]
    fn malformed_values_are_refused_before_any_read() {
        assert_eq!(
            parse("--pes lots", 0).unwrap_err(),
            "--pes expects an integer, got `lots`"
        );
        assert!(parse("--workers -1", 0).is_err());
        assert_eq!(
            parse("--tol wide", 0).unwrap_err(),
            "--tol expects a number, got `wide`"
        );
        for bad in ["-1", "nan", "inf", "1e300"] {
            assert_eq!(
                parse(&format!("--wait {bad}"), 0).unwrap_err(),
                format!("--wait expects a finite, non-negative number of seconds, got `{bad}`")
            );
        }
        assert_eq!(parse("--model", 0).unwrap_err(), "--model expects a value");
        assert_eq!(
            parse("--layer --json", 0).unwrap_err(),
            "--layer expects a value"
        );
    }

    #[test]
    fn the_last_value_given_wins() {
        let a = parse("--pes 64 --pes 128", 0).unwrap();
        assert_eq!(a.u64("pes"), 128);
    }

    #[test]
    #[should_panic(expected = "cmd reads --bogus as Text, which its table does not declare")]
    fn reading_an_undeclared_flag_panics() {
        parse("", 0).unwrap().text("bogus");
    }

    #[test]
    #[should_panic(expected = "cmd asks for --workerz, which its table does not declare")]
    fn asking_for_an_undeclared_flag_panics() {
        parse("", 0).unwrap().given("workerz");
    }

    #[test]
    #[should_panic(expected = "cmd reads --pes as Text")]
    fn reading_a_flag_as_another_kind_panics() {
        parse("", 0).unwrap().text("pes");
    }

    #[test]
    #[should_panic(expected = "cmd reads --workers with no default")]
    fn reading_a_number_with_neither_value_nor_default_panics() {
        parse("", 0).unwrap().u64("workers");
    }
}
