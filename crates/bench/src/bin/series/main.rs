//! The perf-trajectory series the ledger cannot produce: it drives
//! `min(2, cores)` closed-loop clients against a healthy store, so the
//! 1→8 thread sweep, open-loop overload and the fault matrix stay here.
//!
//! ```text
//! cargo run --release -p mpq_bench --bin series -- scaling [--quick] [--out F]   # BENCH_pr3.json
//! cargo run --release -p mpq_bench --bin series -- netload [--quick] [--out F]   # BENCH_pr7.json
//! cargo run --release -p mpq_bench --bin series -- chaos   [--quick] [--out F]   # BENCH_pr8.json
//! cargo run --release -p mpq_bench --bin series -- validate F
//! ```
//!
//! Every run writes its artifact and validates what it wrote; `validate`
//! checks any artifact, dispatching on the file's `schema` tag. Each
//! series has two fixed sizes, `--quick` (CI) and full.

mod artifact;
mod chaos;
mod netload;
mod scaling;

use artifact::Series;

const ALL: [&Series; 3] = [&scaling::SERIES, &netload::SERIES, &chaos::SERIES];

fn usage() -> ! {
    eprintln!(
        "usage: series <scaling|netload|chaos> [--quick] [--out FILE] | series validate FILE"
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    let (path, outcome) = if command == "validate" {
        let path = args.next().unwrap_or_else(|| usage());
        let outcome = artifact::validate_file(&path, &ALL);
        (path, outcome)
    } else {
        let series = ALL
            .iter()
            .find(|s| s.name == command)
            .unwrap_or_else(|| usage());
        let (mut quick, mut out) = (false, series.default_out.to_string());
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--out" => out = args.next().unwrap_or_else(|| usage()),
                _ => usage(),
            }
        }
        let outcome = artifact::emit(series, quick, &out);
        (out, outcome)
    };
    match outcome {
        Ok(summary) => println!("{path}: OK ({summary})"),
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_bench::json::Json;

    /// The committed artifacts are the record the series continue: the
    /// rule tables must keep accepting them, and must still notice a
    /// missed acceptance bar.
    #[test]
    fn committed_artifacts_validate_and_tampered_ones_do_not() {
        for (file, field) in [
            ("BENCH_pr3.json", r#""identical_to_sequential":true"#),
            ("BENCH_pr7.json", r#""goodput_within_10pct":true"#),
            ("BENCH_pr8.json", r#""mutations_after_recovery":true"#),
        ] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            artifact::validate_file(&path, &ALL).unwrap_or_else(|e| panic!("{file}: {e}"));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains(field), "{file} lacks {field}");
            let tampered = Json::parse(&text.replace(field, &field.replace("true", "false")));
            assert!(artifact::validate(&tampered.unwrap(), &ALL).is_err());
        }
    }
}
