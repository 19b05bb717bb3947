//! The flag reader every MEEK command line shares, and its exit-code
//! rule: 0 for success, 1 for a runtime or verdict failure, 2 for a
//! usage error.

use crate::seed::parse_seed;
use std::process::ExitCode;
use std::str::FromStr;

/// Why a command did not run to success, and so its exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `-h` or `--help`: print the usage text and exit 0.
    Help,
    /// A command line the command cannot run: exit 2.
    Usage(String),
    /// A run that failed: exit 1.
    Failed(String),
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Failed(e.to_string())
    }
}

/// Runs a command on the process's arguments under the exit-code rule.
/// `run` returns whether the run passed its verdict checks; `false`
/// exits 1 without a message, for the run has printed its own report.
pub fn main(usage: &str, run: impl FnOnce(&[String]) -> Result<bool, CliError>) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(CliError::Help) => {
            print!("{usage}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{usage}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Reads a command line's flags front to back:
///
/// ```
/// use meek_campaign::cli::{CliError, Flags};
///
/// let argv: Vec<String> = ["--faults", "8", "--seed", "0xBEEF"].map(String::from).into();
/// let (mut faults, mut seed) = (0usize, 0u64);
/// let mut flags = Flags::new(&argv);
/// while let Some(flag) = flags.next_flag()? {
///     match flag {
///         "--faults" => faults = flags.value()?,
///         "--seed" => seed = flags.seed()?,
///         _ => return Err(flags.unknown()),
///     }
/// }
/// assert_eq!((faults, seed), (8, 0xBEEF));
/// # Ok::<(), CliError>(())
/// ```
pub struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// A reader over `argv`, the arguments after the command (and its
    /// subcommand, if it has one).
    pub fn new(argv: &'a [String]) -> Flags<'a> {
        Flags { rest: argv.iter(), flag: "" }
    }

    /// The next flag, `None` at the end.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `-h` or `--help`.
    pub fn next_flag(&mut self) -> Result<Option<&'a str>, CliError> {
        match self.rest.next().map(String::as_str) {
            Some("-h" | "--help") => Err(CliError::Help),
            next => {
                self.flag = next.unwrap_or_default();
                Ok(next)
            }
        }
    }

    /// The current flag's value, parsed as a `T`.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or does not parse.
    pub fn value<T: FromStr>(&mut self) -> Result<T, CliError> {
        let text = self.text()?;
        text.parse().map_err(|_| {
            CliError::Usage(format!("{}: cannot parse `{text}` as a number", self.flag))
        })
    }

    /// The current flag's value as a seed: decimal, `0x` hex, or any
    /// other text, hashed ([`parse_seed`]).
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing.
    pub fn seed(&mut self) -> Result<u64, CliError> {
        self.text().map(parse_seed)
    }

    /// The usage error for a flag the command does not know.
    pub fn unknown(&self) -> CliError {
        CliError::Usage(format!("unknown flag `{}`", self.flag))
    }

    fn text(&mut self) -> Result<&'a str, CliError> {
        let flag = self.flag;
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    }
}

/// The default a usage text documents for `flag` (its `[default: X]`),
/// so each command's tests can pin its parsed defaults to its help.
pub fn usage_default<'u>(usage: &'u str, flag: &str) -> Option<&'u str> {
    let mut lines = usage.lines().skip_while(|l| !l.trim_start().starts_with(&format!("{flag} ")));
    let entry =
        lines.next().into_iter().chain(lines.take_while(|l| !l.trim_start().starts_with('-')));
    entry
        .filter_map(|l| l.split_once("[default: "))
        .find_map(|(_, rest)| rest.split_once(']'))
        .map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(line: &str) -> Result<(usize, u64), CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (mut faults, mut seed) = (0, 0);
        let mut flags = Flags::new(&argv);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--faults" => faults = flags.value()?,
                "--seed" => seed = flags.seed()?,
                _ => return Err(flags.unknown()),
            }
        }
        Ok((faults, seed))
    }

    #[test]
    fn flags_read_typed_values_and_every_seed_form() {
        assert_eq!(read(""), Ok((0, 0)));
        assert_eq!(read("--faults 12 --seed 42"), Ok((12, 42)));
        assert_eq!(read("--seed 0xBEEF"), Ok((0, 48879)));
        assert_eq!(read("--seed 0XbeEF"), Ok((0, 48879)));
        assert_eq!(read("--seed 0xMEEK"), Ok((0, crate::fnv1a("0xMEEK"))));
    }

    #[test]
    fn bad_command_lines_are_usage_errors_and_help_is_not() {
        let usage = |msg: &str| Err(CliError::Usage(msg.into()));
        assert_eq!(read("--faults"), usage("--faults needs a value"));
        assert_eq!(read("--seed"), usage("--seed needs a value"));
        assert_eq!(read("--faults 0x10"), usage("--faults: cannot parse `0x10` as a number"));
        assert_eq!(read("--faults -1"), usage("--faults: cannot parse `-1` as a number"));
        assert_eq!(read("--faults 3 --no-such-flag"), usage("unknown flag `--no-such-flag`"));
        assert_eq!(read("--faults 3 --help"), Err(CliError::Help));
        assert_eq!(read("-h --no-such-flag"), Err(CliError::Help));
    }

    #[test]
    fn usage_defaults_are_read_per_flag() {
        let usage = "\
OPTIONS:
    --faults <N>     Faults [default: 3]
    --quiet          No default here
    --threads <N>    Worker threads; 0 = all
                     [default: 0]
";
        assert_eq!(usage_default(usage, "--faults"), Some("3"));
        assert_eq!(usage_default(usage, "--threads"), Some("0"));
        assert_eq!(usage_default(usage, "--quiet"), None, "not the next flag's default");
        assert_eq!(usage_default(usage, "--missing"), None);
    }
}
