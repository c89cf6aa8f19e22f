//! A full multi-row array testbench: several match lines sharing one set
//! of search-line drivers.
//!
//! The array projections in `ftcam-array` scale a calibrated single row
//! linearly, on the assumption that rows are electrically independent
//! (they share only the search lines, which are driven rails). This
//! testbench builds an actual `R × W` transistor-level array so that
//! assumption can be *checked* rather than believed: every row's decision
//! must match the golden model, and total search energy must track
//! `R ×` the single-row measurement.
//!
//! Array sizes here are kept small (≤ ~16×32) — the point is validation,
//! not capacity; larger arrays belong to the analytical model.

use ftcam_circuit::analysis::TransientOpts;
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, NewtonSettings, NodeId, PinId, RecoveryStats, SolverPerf, StepStats};
use ftcam_devices::TechCard;
use ftcam_workloads::{TcamTable, TernaryWord};

use crate::design::{CellDesign, CellHandle, CellSite, FooterStyle};
use crate::error::CellError;
use crate::geometry::Geometry;
use crate::row::{
    build_footers, build_match_line, build_search_lines, drive_digit, evaluate_pulse,
    window_energies, PrechargeKind, Solver,
};
use crate::search::SearchTiming;

/// Result of one array search.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySearchOutcome {
    /// Per-row match decisions, in row order.
    pub row_matches: Vec<bool>,
    /// Highest-priority (lowest-index) matching row, if any.
    pub first_match: Option<usize>,
    /// Total supply energy of the steady-state cycle (joules).
    pub energy_total: f64,
    /// Search-line driver energy (joules) — shared across all rows.
    pub energy_sl: f64,
    /// Match-line (precharge rail) energy summed over rows (joules).
    pub energy_ml: f64,
}

/// A transistor-level `rows × width` TCAM array.
///
/// Restricted to flat (single-segment) designs; hierarchical designs are
/// validated at row level and composed analytically.
#[derive(Debug)]
pub struct ArrayTestbench {
    ckt: Circuit,
    design: Box<dyn CellDesign>,
    card: TechCard,
    rows: usize,
    width: usize,
    cells: Vec<Vec<CellHandle>>,
    sl_pins: Vec<(PinId, PinId)>,
    ml_nodes: Vec<NodeId>,
    pre_pins: Vec<PinId>,
    en_pin: Option<PinId>,
    stored: TcamTable,
    solver: Solver,
}

impl ArrayTestbench {
    /// Builds the array testbench.
    ///
    /// # Errors
    ///
    /// * [`CellError::InvalidParameter`] for zero dimensions or a
    ///   hierarchical (multi-segment) design.
    pub fn new(
        design: Box<dyn CellDesign>,
        card: TechCard,
        geometry: Geometry,
        rows: usize,
        width: usize,
    ) -> Result<Self, CellError> {
        if rows == 0 || width == 0 {
            return Err(CellError::InvalidParameter(
                "array dimensions must be positive".into(),
            ));
        }
        let features = design.features();
        if features.segments > 1 {
            return Err(CellError::InvalidParameter(
                "array testbench supports flat designs only".into(),
            ));
        }
        let area_f2 = design.area_f2();
        let mut ckt = Circuit::new();

        // Shared search lines: one driver per column feeding every row, and
        // every row crossing adds its share of the column wire.
        let (sl_pins, sl_nodes) = build_search_lines(
            &mut ckt,
            &geometry,
            width,
            geometry.sl_wire_cap_per_cell(area_f2) * rows as f64,
        )?;

        // Shared search-enable for gated designs.
        let en_pin = match features.footer {
            FooterStyle::None => None,
            FooterStyle::SharedPerGroup(_) => {
                let en = ckt.node("en");
                Some(
                    ckt.pin(en, "EN", Waveform::dc(0.0))
                        .map_err(CellError::from)?,
                )
            }
        };

        // Rows: ML + wire cap + precharge device each.
        let mut ml_nodes = Vec::with_capacity(rows);
        let mut pre_pins = Vec::with_capacity(rows);
        let mut cells = Vec::with_capacity(rows);
        let all_columns = [(0..width).collect::<Vec<_>>()];
        for r in 0..rows {
            // PMOS precharge (array testbench keeps full-swing designs
            // simple; low-swing arrays validate at row level).
            let (ml, pre_pin) = build_match_line(
                &mut ckt,
                design.as_ref(),
                &card,
                &geometry,
                PrechargeKind::Pmos,
                width,
                r,
            )?;
            ml_nodes.push(ml);
            pre_pins.push(pre_pin);

            let source_rail = build_footers(
                &mut ckt,
                &card,
                &geometry,
                features.footer,
                &all_columns,
                width,
                &format!("m_footer_r{r}_"),
            );

            let mut row_cells = Vec::with_capacity(width);
            for i in 0..width {
                let site = CellSite {
                    index: r * width + i,
                    ml,
                    sl: sl_nodes[i].0,
                    slb: sl_nodes[i].1,
                    source_rail: source_rail[i],
                };
                row_cells.push(design.build_cell(&mut ckt, &card, &geometry, &site));
            }
            cells.push(row_cells);
        }

        Ok(Self {
            ckt,
            design,
            card,
            rows,
            width,
            cells,
            sl_pins,
            ml_nodes,
            pre_pins,
            en_pin,
            stored: TcamTable::new(width),
            solver: Solver::default(),
        })
    }

    /// Array shape `(rows, width)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.width)
    }

    /// Cumulative transient step statistics over every search this
    /// testbench has run.
    pub fn step_stats(&self) -> StepStats {
        self.solver.step_stats
    }

    /// Cumulative recovery-ladder statistics over every search this
    /// testbench has run.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.solver.recovery_stats
    }

    /// Cumulative solver hot-path counters (factorisations, LU bypasses,
    /// baseline reuses, ...) over every search this testbench has run.
    pub fn solver_perf(&self) -> SolverPerf {
        self.solver.solver_perf
    }

    /// Overrides the Newton solver settings for every subsequent search.
    pub fn set_newton_settings(&mut self, newton: NewtonSettings) {
        self.solver.newton = newton;
    }

    /// The stored content as a golden-model table.
    pub fn stored_table(&self) -> &TcamTable {
        &self.stored
    }

    /// Programs the whole array (ideal write), row 0 first.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] if shapes disagree.
    pub fn program(&mut self, words: &[TernaryWord]) -> Result<(), CellError> {
        if words.len() != self.rows {
            return Err(CellError::WidthMismatch {
                expected: self.rows,
                got: words.len(),
            });
        }
        let mut table = TcamTable::new(self.width);
        for (r, word) in words.iter().enumerate() {
            if word.width() != self.width {
                return Err(CellError::WidthMismatch {
                    expected: self.width,
                    got: word.width(),
                });
            }
            for (i, handle) in self.cells[r].iter().enumerate() {
                self.design
                    .program_cell(&mut self.ckt, handle, &self.card, word.get(i));
            }
            table.push(word.clone());
        }
        self.stored = table;
        Ok(())
    }

    /// Runs one array search (two cycles, steady-state measurement).
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] for a wrong-width query or a
    /// wrapped simulation failure.
    pub fn search(
        &mut self,
        query: &TernaryWord,
        timing: &SearchTiming,
    ) -> Result<ArraySearchOutcome, CellError> {
        if query.width() != self.width {
            return Err(CellError::WidthMismatch {
                expected: self.width,
                got: query.width(),
            });
        }
        let vdd = self.card.vdd;
        let threshold = self.design.sense_threshold(&self.card);
        let t_cycle = timing.cycle();
        let t_total = 2.0 * t_cycle;

        for pin in &self.pre_pins {
            self.ckt
                .set_pin_waveform(*pin, PrechargeKind::Pmos.clock(vdd, timing));
        }
        for (i, &(sl_pin, slb_pin)) in self.sl_pins.iter().enumerate() {
            let (sl, slb) = drive_digit(self.design.as_ref(), &self.card, query.get(i), timing);
            self.ckt.set_pin_waveform(sl_pin, sl);
            self.ckt.set_pin_waveform(slb_pin, slb);
        }
        if let Some(en) = self.en_pin {
            self.ckt.set_pin_waveform(en, evaluate_pulse(vdd, timing));
        }

        let opts =
            TransientOpts::new(timing.dt, t_total).record_nodes(self.ml_nodes.iter().copied());
        let result = self.solver.run(&mut self.ckt, opts, timing.step)?;

        let t_sense = t_cycle + timing.t_precharge + timing.sense_offset;
        let mut row_matches = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let ml = result.trace(&format!("ml{r}"))?;
            row_matches.push(ml.value_at(t_sense) > threshold);
        }
        let (energy_ml, energy_sl) =
            window_energies(&result, self.rows, self.width, t_cycle, t_total);
        Ok(ArraySearchOutcome {
            first_match: row_matches.iter().position(|&m| m),
            row_matches,
            energy_total: result.total_supply_energy_in(t_cycle, t_total),
            energy_sl,
            energy_ml,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;

    #[test]
    fn rejects_segmented_designs_and_bad_shapes() {
        let err = ArrayTestbench::new(
            DesignKind::EaMlSegmented.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            2,
            8,
        );
        assert!(matches!(err, Err(CellError::InvalidParameter(_))));
        let err = ArrayTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            0,
            8,
        );
        assert!(err.is_err());
    }

    #[test]
    fn program_checks_shapes() {
        let mut arr = ArrayTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            2,
            4,
        )
        .unwrap();
        assert!(arr.program(&["1010".parse().unwrap()]).is_err());
        assert!(arr
            .program(&["1010".parse().unwrap(), "01X1".parse().unwrap()])
            .is_ok());
        assert_eq!(arr.stored_table().len(), 2);
    }
}
