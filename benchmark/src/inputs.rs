//! Seeded inputs. The program under test only ever sees these as files
//! and HTTP bodies.

use crate::rng::{mix, Rng};
use padfa::suite::corpus::HardLoop;
use padfa::suite::patterns::Gen;
use padfa::suite::PROGRAM_SPECS;
use std::path::Path;

pub struct Input {
    pub name: &'static str,
    pub source: String,
    /// The generator's own label → expectation table: what each
    /// labelled loop is by construction, independent of the analyzer.
    pub hard: Vec<HardLoop>,
}

/// Re-emit the 30 corpus programs with each spec's generator seed
/// perturbed by `seed`. Seed 0 is the built-in corpus byte for byte
/// (`mix(0) == 0`); the pattern counts, and so the loop population,
/// are the spec's and do not depend on the seed — trip counts,
/// extents and constants do.
pub fn generate(seed: u64) -> Vec<Input> {
    PROGRAM_SPECS
        .iter()
        .map(|spec| {
            let mut gen = Gen::new(spec.name, spec.seed ^ mix(seed));
            spec.emit(&mut gen);
            let hard = std::mem::take(&mut gen.hard);
            Input {
                name: spec.name,
                source: gen.finish(),
                hard,
            }
        })
        .collect()
}

/// Byte ranges of every `N` in a ` to N {` loop header with `N >= 3`.
fn editable_bounds(source: &str) -> Vec<(usize, usize, u64)> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = source[from..].find(" to ") {
        let start = from + at + 4;
        let end = start
            + bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
        if end > start && source[end..].starts_with(" {") {
            if let Ok(n) = source[start..end].parse::<u64>() {
                if n >= 3 {
                    out.push((start, end, n));
                }
            }
        }
        from = start;
    }
    out
}

/// The one-line edit `store_edit` applies: decrement one constant
/// upper bound, chosen by `rng`. Every corpus program has such a loop.
pub fn edit(source: &str, rng: &mut Rng) -> String {
    let sites = editable_bounds(source);
    assert!(!sites.is_empty(), "program has no constant loop bound >= 3");
    let (start, end, n) = sites[rng.below(sites.len())];
    format!("{}{}{}", &source[..start], n - 1, &source[end..])
}

/// Edit number `set` of a program at `seed` (`store_edit` cycles
/// through a few).
pub fn edited(input: &Input, seed: u64, set: usize) -> String {
    edit(
        &input.source,
        &mut Rng::new(seed, &format!("edit/{}/{set}", input.name)),
    )
}

/// Write `<dir>/<name>.mf` for every input; `source` says what goes in.
pub fn write(
    dir: &Path,
    inputs: &[Input],
    source: impl Fn(&Input) -> String,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for input in inputs {
        let path = dir.join(format!("{}.mf", input.name));
        std::fs::write(&path, source(input))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The smallest useful program: what a `padfa` process costs before it
/// has any real work (`padfa.startup_ms`).
pub const ONE_LOOP: &str =
    "proc main(n: int) {\n  array a[100];\n  for i = 1 to n { a[i] = i * 2.0; }\n}\n";

#[cfg(test)]
mod tests {
    use super::*;
    use padfa::prelude::parse_program;

    #[test]
    fn seed_zero_is_the_built_in_corpus() {
        let ours = generate(0);
        let theirs = padfa::suite::build_corpus();
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.source, b.source, "{} differs from build_corpus", a.name);
            assert_eq!(a.hard.len(), b.hard.len());
        }
    }

    #[test]
    fn other_seeds_parse_and_keep_the_loop_population() {
        let base: Vec<u32> = generate(0)
            .iter()
            .map(|i| parse_program(&i.source).unwrap().num_loops())
            .collect();
        for seed in [1, 7, 12345] {
            let inputs = generate(seed);
            assert_ne!(inputs[0].source, generate(0)[0].source);
            let loops: Vec<u32> = inputs
                .iter()
                .map(|i| parse_program(&i.source).unwrap().num_loops())
                .collect();
            assert_eq!(loops, base, "seed {seed}");
            assert_eq!(inputs[3].source, generate(seed)[3].source);
        }
        assert_eq!(base.iter().sum::<u32>(), 4482);
    }

    #[test]
    fn edits_always_parse_and_change_one_line() {
        for seed in [0, 7] {
            for input in generate(seed) {
                for round in 0..3 {
                    let edited = edited(&input, seed, round);
                    assert!(
                        parse_program(&edited).is_ok(),
                        "{} round {round}",
                        input.name
                    );
                    let changed = input
                        .source
                        .lines()
                        .zip(edited.lines())
                        .filter(|(a, b)| a != b)
                        .count();
                    assert_eq!(changed, 1, "{} round {round}", input.name);
                    assert_eq!(input.source.lines().count(), edited.lines().count());
                }
            }
        }
    }

    #[test]
    fn one_loop_program_parses() {
        assert_eq!(parse_program(ONE_LOOP).unwrap().num_loops(), 1);
    }
}
