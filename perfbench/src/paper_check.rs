//! `--paper-check`: a one-off regeneration of the committed paper
//! figures, outside the repeated benchmark loop (about two minutes).
//!
//! Runs `harness::run` over the suite at `HarnessOptions::paper_scaled()`
//! and compares the Fig. 10 SWPNC/Serial/SWP8 speedups (to the two
//! decimals the file prints) and the Table II bytes with
//! `results/fig10.txt` and `results/table2.txt`, which it only reads.
//! Only SWP coarsening 8 is measured: Fig. 10 shows no other, and the
//! serial batch does not depend on the coarsening list.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use swpipe::harness::{self, HarnessOptions};

fn results_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("results")
        .join(name)
}

/// Rows of a whitespace-aligned report table whose first cell names a
/// suite benchmark (or `GeoMean`): `(name, remaining cells)`.
fn table_rows(text: &str) -> Vec<(String, Vec<String>)> {
    let names = crate::metrics::BENCHMARKS;
    text.lines()
        .filter_map(|line| {
            let mut cells = line.split_whitespace().map(String::from);
            let first = cells.next()?;
            (names.contains(&first.as_str()) || first == "GeoMean")
                .then(|| (first, cells.collect()))
        })
        .collect()
}

fn read(name: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    let path = results_file(name);
    std::fs::read_to_string(&path)
        .map(|t| table_rows(&t))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// One committed cell next to the fresh value, rendered as the file
/// renders it.
fn compare(label: &str, committed: Option<&String>, fresh: String, mismatches: &mut u32) -> String {
    let same = committed == Some(&fresh);
    if !same {
        *mismatches += 1;
    }
    format!(
        "{label} {} -> {fresh}{}",
        committed.map_or("?", String::as_str),
        if same { "" } else { " (DIFFERS)" }
    )
}

pub fn main() -> ExitCode {
    let (fig10, table2) = match (read("fig10.txt"), read("table2.txt")) {
        (Ok(f), Ok(t)) => (f, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("paper-check: {e}");
            return ExitCode::from(2);
        }
    };
    let mut opts = HarnessOptions::paper_scaled();
    opts.coarsenings = vec![8];
    let started = Instant::now();
    let mut mismatches = 0u32;
    let (mut nc, mut serial, mut swp8) = (Vec::new(), Vec::new(), Vec::new());
    for b in streambench::suite() {
        let t = Instant::now();
        let r = match b
            .spec
            .flatten()
            .map_err(swpipe::Error::from)
            .and_then(|g| harness::run(b.name, &g, &b.input, &opts))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("paper-check: {}: {e}", b.name);
                return ExitCode::from(1);
            }
        };
        let s8 = r.swp_at(8).map_or(0.0, |s| s.speedup);
        nc.push(r.swpnc.speedup);
        serial.push(r.serial.speedup);
        swp8.push(s8);
        let f = fig10.iter().find(|(n, _)| n == b.name).map(|(_, c)| c);
        let t2 = table2.iter().find(|(n, _)| n == b.name).map(|(_, c)| c);
        let cells = [
            compare(
                "SWPNC",
                f.and_then(|c| c.first()),
                format!("{:.2}", r.swpnc.speedup),
                &mut mismatches,
            ),
            compare(
                "Serial",
                f.and_then(|c| c.get(1)),
                format!("{:.2}", r.serial.speedup),
                &mut mismatches,
            ),
            compare(
                "SWP8",
                f.and_then(|c| c.get(2)),
                format!("{s8:.2}"),
                &mut mismatches,
            ),
            compare(
                "TableII",
                t2.and_then(|c| c.get(1))
                    .map(|s| s.replace(',', ""))
                    .as_ref(),
                r.table2_bytes.to_string(),
                &mut mismatches,
            ),
        ];
        println!(
            "{:>11} ({:>5.1}s)  {}",
            b.name,
            t.elapsed().as_secs_f64(),
            cells.join("  ")
        );
    }
    let geo = fig10.iter().find(|(n, _)| n == "GeoMean").map(|(_, c)| c);
    let geomean = |v: &[f64]| format!("{:.2}", harness::geometric_mean(v));
    let cells = [
        compare(
            "SWPNC",
            geo.and_then(|c| c.first()),
            geomean(&nc),
            &mut mismatches,
        ),
        compare(
            "Serial",
            geo.and_then(|c| c.get(1)),
            geomean(&serial),
            &mut mismatches,
        ),
        compare(
            "SWP8",
            geo.and_then(|c| c.get(2)),
            geomean(&swp8),
            &mut mismatches,
        ),
    ];
    println!("{:>11}          {}", "GeoMean", cells.join("  "));
    println!(
        "paper-check: {mismatches} cell(s) differ from results/fig10.txt and results/table2.txt \
         ({:.0} s)",
        started.elapsed().as_secs_f64()
    );
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_benchmark_rows_of_the_committed_tables() {
        let fig10 = read("fig10.txt").expect("results/fig10.txt");
        assert_eq!(fig10.len(), 9, "eight benchmarks and the geomean");
        let des = &fig10.iter().find(|(n, _)| n == "DES").expect("DES row").1;
        assert!(des[0].parse::<f64>().is_ok());
        let table2 = read("table2.txt").expect("results/table2.txt");
        assert_eq!(table2.len(), 8);
        let bytes = table2[0].1[1].replace(',', "");
        assert!(bytes.parse::<u64>().is_ok(), "{bytes}");
    }
}
