//! Shared harness for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the index and EXPERIMENTS.md for the
//! recorded outcomes). This library provides the tiny argument parser,
//! table formatting and the scale presets; sweeps over many simulation
//! configurations run on [`quorum_stats::par_map`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use quorum_des::SimParams;
use std::collections::BTreeMap;
use std::fmt;

pub mod manifest;
pub mod validate;

/// Minimal `--key value` / `--flag` argument parser.
///
/// Values live in a `BTreeMap` (quorum-lint `no-unordered-iteration`):
/// today only keyed lookup happens here, but argument maps are exactly
/// the kind of state that later grows a "dump all options into the
/// manifest" loop, and that loop must be ordered from day one.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<String>,
    values: BTreeMap<String, String>,
}

/// A command-line argument the parser cannot accept.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(String);

impl ArgError {
    /// Reports the error on stderr and exits with status 2, the usual
    /// status for command-line misuse.
    fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2)
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name); a positional
    /// argument is reported on stderr and exits with status 2.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| e.exit())
    }

    /// Parses an explicit argument list.
    ///
    /// # Errors
    /// Returns an [`ArgError`] for a positional argument.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {arg:?}")));
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let v = iter.next().expect("peeked");
                    out.values.insert(name.to_string(), v);
                }
                _ => out.flags.push(name.to_string()),
            }
        }
        Ok(out)
    }

    /// True if `--name` was passed as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Value of `--name <value>`, parsed, or an [`ArgError`] naming the
    /// option if the value does not parse as `T`.
    fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: fmt::Display,
    {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| ArgError(format!("--{name} {v:?}: {e}")))
            })
            .transpose()
    }

    /// Value of `--name <value>`, parsed; a value that does not parse is
    /// reported on stderr and exits with status 2.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: fmt::Display,
    {
        self.try_get(name).unwrap_or_else(|e| e.exit())
    }

    /// Value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: fmt::Display,
    {
        self.get(name).unwrap_or(default)
    }
}

/// Simulation scale preset chosen on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: 30 k-access batches (default).
    Quick,
    /// Intermediate: 150 k-access batches.
    Medium,
    /// The paper's §5.2 parameters: 100 k warm-up, 1 M-access batches,
    /// 5–18 batches, CI ±0.5 %.
    Paper,
}

impl Scale {
    /// Reads `--paper-scale` / `--medium-scale` / `--quick` flags
    /// (`--quick` is the default and accepted explicitly so CI recipes
    /// can spell out the scale they run at).
    pub fn from_args(args: &Args) -> Self {
        if args.flag("paper-scale") {
            Scale::Paper
        } else if args.flag("medium-scale") {
            Scale::Medium
        } else {
            Scale::Quick
        }
    }

    /// The corresponding simulation parameters.
    pub fn params(self) -> SimParams {
        match self {
            Scale::Quick => SimParams::quick(),
            Scale::Medium => SimParams {
                warmup_accesses: 20_000,
                batch_accesses: 150_000,
                min_batches: 4,
                max_batches: 8,
                ci_half_width: 0.01,
                ..SimParams::paper()
            },
            Scale::Paper => SimParams::paper(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// Formats a fraction as the paper prints availabilities (percent).
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Prints a TSV header + rows to stdout.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Default thread count for experiment drivers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_argv(s: &str) -> Result<Args, ArgError> {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    fn argv(s: &str) -> Args {
        try_argv(s).expect("valid arguments")
    }

    #[test]
    fn parse_flags_and_values() {
        let a = argv("--topology 16 --paper-scale --seed 42");
        assert_eq!(a.get::<usize>("topology"), Some(16));
        assert!(a.flag("paper-scale"));
        assert!(!a.flag("medium-scale"));
        assert_eq!(a.get_or::<u64>("seed", 1), 42);
        assert_eq!(a.get_or::<u64>("missing", 7), 7);
    }

    #[test]
    fn scale_selection() {
        assert_eq!(Scale::from_args(&argv("")), Scale::Quick);
        assert_eq!(Scale::from_args(&argv("--quick")), Scale::Quick);
        assert_eq!(
            Scale::from_args(&argv("--quick --manifest /tmp/m.json")),
            Scale::Quick
        );
        assert_eq!(Scale::from_args(&argv("--paper-scale")), Scale::Paper);
        assert_eq!(Scale::from_args(&argv("--medium-scale")), Scale::Medium);
        assert_eq!(Scale::Paper.params().batch_accesses, 1_000_000);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.721), " 72.1%");
    }

    #[test]
    fn positional_args_rejected() {
        let err = try_argv("--seed 3 topology").expect_err("positional");
        assert_eq!(
            err.to_string(),
            "unexpected positional argument \"topology\""
        );
    }

    #[test]
    fn unparsable_values_rejected() {
        let a = argv("--seed twelve --alpha 0.5");
        let err = a.try_get::<u64>("seed").expect_err("not a u64");
        assert!(err.to_string().starts_with("--seed \"twelve\": "), "{err}");
        assert_eq!(a.try_get::<f64>("alpha"), Ok(Some(0.5)));
        assert_eq!(a.try_get::<f64>("missing"), Ok(None));
    }
}
