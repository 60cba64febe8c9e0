//! Correctness checks that do not trust the analyzer: the generator
//! knows what every labelled loop is by construction, and outputs that
//! must be equal are compared byte for byte.

use crate::json::{self, Value};
use padfa::prelude::Variant;
use padfa::suite::corpus::{Expect, HardLoop};

/// Check the `loops` array of an `explain --json` document or an
/// `/analyze` body against the generator's expectations. Returns one
/// message per disagreement.
pub fn check_loops(doc: &str, hard: &[HardLoop]) -> Vec<String> {
    let parsed = match json::parse(doc) {
        Ok(v) => v,
        Err(e) => return vec![format!("output is not JSON: {e}")],
    };
    let Some(loops) = parsed.get("loops").and_then(Value::as_arr) else {
        return vec!["output has no \"loops\" array".to_string()];
    };
    let mut errors = Vec::new();
    for h in hard {
        let Some(entry) = loops
            .iter()
            .find(|l| l.get("label").and_then(Value::as_str) == Some(h.label.as_str()))
        else {
            errors.push(format!("loop {} missing from output", h.label));
            continue;
        };
        let outcome = entry.get("outcome").and_then(Value::as_str).unwrap_or("");
        // `explain --json` carries the disqualifier beside the outcome;
        // `/analyze` folds it into the outcome string.
        let candidate = matches!(entry.get("not_candidate"), None | Some(Value::Null));
        let parallelized = candidate && matches!(outcome, "parallel" | "parallel-if");
        let want = h.expect.parallelized_by(Variant::Predicated);
        if parallelized != want {
            errors.push(format!(
                "loop {} ({:?}): expected parallelized={want}, got outcome '{outcome}'",
                h.label, h.expect
            ));
        }
        if h.expect == Expect::PredicatedRT && outcome != "parallel-if" {
            errors.push(format!(
                "loop {} expected a run-time test, got outcome '{outcome}'",
                h.label
            ));
        }
    }
    errors
}

/// Ledger rows with the fields that legitimately differ between runs
/// zeroed, and the `meta` stamp dropped — the normalisation CI's store
/// equivalence step uses.
pub fn normalize_ledger(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("\"meta\""))
        .map(|l| zero_field(&zero_field(l, "\"ms\":"), "\"limit_overflows\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn zero_field(line: &str, key: &str) -> String {
    match line.find(key) {
        Some(at) => {
            let start = at + key.len();
            let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
            format!("{}0{}", &line[..start], &line[start + digits..])
        }
        None => line.to_string(),
    }
}

/// `padfa corpus` stdout with its wall-clock fields blanked (`NN ms`
/// per program, `in N.Ns` in the summary) and the `store:` line, which
/// differs between a cold and a warm store by design, dropped.
pub fn normalize_corpus_stdout(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("store:"))
        .map(|l| {
            let l = blank_number_before(l, " ms ");
            match l.rfind(" in ") {
                Some(at) if l.starts_with("corpus:") => l[..at].to_string(),
                _ => l,
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn blank_number_before(line: &str, unit: &str) -> String {
    let Some(at) = line.find(unit) else {
        return line.to_string();
    };
    let head = line[..at].trim_end_matches(|c: char| c.is_ascii_digit());
    format!("{}#{}", head.trim_end(), &line[at..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hard(label: &str, expect: Expect) -> HardLoop {
        HardLoop {
            label: label.to_string(),
            expect,
            inner: false,
        }
    }

    #[test]
    fn loop_oracle_accepts_agreement_and_names_each_mismatch() {
        let table = [
            hard("a", Expect::PredicatedCT),
            hard("b", Expect::PredicatedRT),
            hard("c", Expect::Sequential),
            hard("d", Expect::NotCandidate),
        ];
        let good = r#"{"loops":[
            {"label":"a","outcome":"parallel","not_candidate":null},
            {"label":"b","outcome":"parallel-if","not_candidate":null},
            {"label":"c","outcome":"sequential","not_candidate":null},
            {"label":"d","outcome":"parallel","not_candidate":"io"},
            {"label":null,"outcome":"parallel"}]}"#;
        assert_eq!(check_loops(good, &table), Vec::<String>::new());
        // The /analyze shape: no not_candidate field.
        let service = r#"{"loops":[
            {"label":"a","outcome":"parallel"},{"label":"b","outcome":"parallel-if"},
            {"label":"c","outcome":"sequential"},{"label":"d","outcome":"not-candidate"}]}"#;
        assert_eq!(check_loops(service, &table), Vec::<String>::new());
        let bad = r#"{"loops":[
            {"label":"a","outcome":"sequential"},{"label":"b","outcome":"parallel"},
            {"label":"c","outcome":"parallel"}]}"#;
        let errors = check_loops(bad, &table);
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert_eq!(check_loops("not json", &table).len(), 1);
    }

    #[test]
    fn ledger_normaliser_zeroes_time_and_drops_meta() {
        let cold = "{\"meta\":{\"git_rev\":\"x\"}}\n\
                    {\"name\":\"a\",\"ms\":41,\"loops\":3,\"limit_overflows\":2,\"won\":{}}\n";
        let warm = "{\"meta\":{\"git_rev\":\"y\"}}\n\
                    {\"name\":\"a\",\"ms\":0,\"loops\":3,\"limit_overflows\":0,\"won\":{}}\n";
        assert_eq!(normalize_ledger(cold), normalize_ledger(warm));
        assert!(normalize_ledger(cold).contains("\"ms\":0,\"loops\":3"));
        let other = cold.replace("\"loops\":3", "\"loops\":4");
        assert_ne!(normalize_ledger(cold), normalize_ledger(&other));
    }

    #[test]
    fn corpus_stdout_normaliser_blanks_only_timing() {
        let a = "adm      ok     46 ms  265 loops, 140 parallel\n\
                 corpus: 30 program(s): 30 ok, 0 degraded, 0 error, 0 panic in 0.8s\n\
                 store: 0 hits, 34 misses\n";
        let b = "adm      ok      2 ms  265 loops, 140 parallel\n\
                 corpus: 30 program(s): 30 ok, 0 degraded, 0 error, 0 panic in 0.0s\n\
                 store: 34 hits, 0 misses\n";
        assert_eq!(normalize_corpus_stdout(a), normalize_corpus_stdout(b));
        let c = a.replace("140 parallel", "141 parallel");
        assert_ne!(normalize_corpus_stdout(a), normalize_corpus_stdout(&c));
    }
}
