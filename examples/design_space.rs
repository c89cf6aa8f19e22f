//! Design-space exploration: sweep the low-swing fraction α and the
//! segment count, and report the energy/delay/margin frontier — the
//! "energy-aware design" knobs the paper turns.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use ftcam::cells::{FeFetTcam, RowTestbench, SearchTiming};
use ftcam::devices::TechCard;
use ftcam::workloads::{Ternary, TernaryWord};

fn stored(width: usize) -> TernaryWord {
    (0..width)
        .map(|i| {
            if i % 2 == 0 {
                Ternary::One
            } else {
                Ternary::Zero
            }
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = 16;
    let word = stored(width);
    let miss = word.with_spread_mismatches(width / 2);
    let timing = SearchTiming::default();
    let card = TechCard::hp45();

    println!("== low-swing fraction α (EA-LS, {width}-bit) ==");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "α", "E (fJ)", "delay (ns)", "margin (V)", "EDP (fJ·ns)"
    );
    let mut best = (f64::INFINITY, 0.0);
    for alpha in [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let mut row = RowTestbench::new(
            Box::new(FeFetTcam::low_swing(alpha)),
            card.clone(),
            Default::default(),
            width,
        )?;
        row.program_word(&word)?;
        let hit = row.search(&word, &timing)?;
        let mis = row.search(&miss, &timing)?;
        let energy = 0.5 * (hit.energy_total + mis.energy_total);
        let delay = hit.latency.max(mis.latency);
        let margin = hit.sense_margin.min(mis.sense_margin);
        let edp = energy * delay * 1e24;
        if margin > 0.05 && edp < best.0 {
            best = (edp, alpha);
        }
        println!(
            "{alpha:>5.1} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            energy * 1e15,
            delay * 1e9,
            margin,
            edp
        );
    }
    println!(
        "→ minimum-EDP point with ≥50 mV margin: α = {:.1}\n",
        best.1
    );

    println!("== segment count (EA-MLS, {width}-bit, half-width mismatch) ==");
    println!(
        "{:>9} {:>12} {:>14} {:>12}",
        "segments", "E (fJ)", "stages run", "delay (ns)"
    );
    for segments in [1usize, 2, 4, 8] {
        let mut row = RowTestbench::new(
            Box::new(FeFetTcam::ml_segmented(segments)),
            card.clone(),
            Default::default(),
            width,
        )?;
        row.program_word(&word)?;
        let out = row.search(&miss, &timing)?;
        println!(
            "{segments:>9} {:>12.3} {:>14} {:>12.3}",
            out.energy_total * 1e15,
            out.stages.len(),
            out.latency * 1e9
        );
    }
    println!("\nMore segments terminate earlier on mismatches but serialise matches.");
    Ok(())
}
