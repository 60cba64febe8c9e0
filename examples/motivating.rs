//! The paper's Figure 1: run all three analysis variants over the four
//! motivating examples and show which mechanism each one needs.
//!
//! Run with: `cargo run -p padfa --example motivating`

use padfa::prelude::*;
use padfa::suite::fig1;

fn main() {
    let cases: Vec<(&str, &str, padfa::ir::Program)> = vec![
        (
            "1(a)",
            "guarded values improve compile-time analysis",
            fig1::fig1a(),
        ),
        (
            "1(b)",
            "a run-time test is derived from guards",
            fig1::fig1b(),
        ),
        (
            "1(c)",
            "predicate embedding (index-dependent guard)",
            fig1::fig1c(),
        ),
        (
            "1(d)",
            "extraction: exposure depends on a symbolic bound",
            fig1::fig1d(),
        ),
        (
            "1(d')",
            "extraction: boundary-condition run-time test",
            fig1::fig1d_runtime(),
        ),
    ];

    for (tag, blurb, prog) in cases {
        println!("Figure {tag} — {blurb}");
        for (name, opts) in [
            ("base", Options::base()),
            ("guarded", Options::guarded()),
            ("predicated", Options::predicated()),
        ] {
            let sess = AnalysisSession::new(opts).with_provenance();
            let (result, _) = analyze_program_session(&prog, &sess).expect("analysis failed");
            let outer = result.by_label("outer").expect("outer loop");
            let mut extras = Vec::new();
            if !outer.privatized.is_empty() {
                let names: Vec<String> = outer.privatized.iter().map(|p| p.array.name()).collect();
                extras.push(format!("privatize {}", names.join(",")));
            }
            let m = outer.provenance.as_ref().expect("evidence").mechanisms;
            if m.embedding {
                extras.push("embedding".into());
            }
            if m.extraction {
                extras.push("extraction".into());
            }
            println!(
                "  {name:>10}: {}{}",
                outer.outcome,
                if extras.is_empty() {
                    String::new()
                } else {
                    format!("   [{}]", extras.join(", "))
                }
            );
        }
        println!();
    }
}
