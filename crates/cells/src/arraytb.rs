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

use ftcam_circuit::analysis::{Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, NewtonSettings, NodeId, PinId, RecoveryStats, SolverPerf, StepStats};
use ftcam_devices::{Mosfet, TechCard};
use ftcam_workloads::{TcamTable, TernaryWord};

use crate::design::{CellDesign, CellHandle, CellSite, FooterStyle};
use crate::error::CellError;
use crate::geometry::Geometry;
use crate::row::two_cycle_pwl;
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
    ml_names: Vec<String>,
    pre_pins: Vec<PinId>,
    en_pin: Option<PinId>,
    stored: TcamTable,
    step_stats: StepStats,
    recovery_stats: RecoveryStats,
    solver_perf: SolverPerf,
    newton: NewtonSettings,
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
        let v_pre = design.ml_precharge_voltage(&card);
        let area_f2 = design.area_f2();
        let mut ckt = Circuit::new();

        // Shared search lines: one driver per column feeding every row.
        let mut sl_pins = Vec::with_capacity(width);
        let mut sl_nodes = Vec::with_capacity(width);
        for i in 0..width {
            let mut line = |tag: &str| -> Result<(PinId, NodeId), CellError> {
                let drv = ckt.node(&format!("{tag}drv{i}"));
                let node = ckt.node(&format!("{tag}{i}"));
                let pin = ckt
                    .pin(drv, format!("{}{i}", tag.to_uppercase()), Waveform::dc(0.0))
                    .map_err(CellError::from)?;
                ckt.add_labeled(
                    format!("r_{tag}{i}"),
                    Resistor::new(drv, node, geometry.sl_driver_resistance),
                );
                // Column wire: every row crossing contributes its share.
                ckt.add_labeled(
                    format!("c_{tag}wire{i}"),
                    Capacitor::new(
                        node,
                        NodeId::GROUND,
                        geometry.sl_wire_cap_per_cell(area_f2) * rows as f64,
                    ),
                );
                Ok((pin, node))
            };
            let (sl_pin, sl) = line("sl")?;
            let (slb_pin, slb) = line("slb")?;
            sl_pins.push((sl_pin, slb_pin));
            sl_nodes.push((sl, slb));
        }

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
        let mut ml_names = Vec::with_capacity(rows);
        let mut pre_pins = Vec::with_capacity(rows);
        let mut cells = Vec::with_capacity(rows);
        for r in 0..rows {
            let ml_name = format!("ml_r{r}");
            let ml = ckt.node(&ml_name);
            ckt.add_labeled(
                format!("c_ml_wire_r{r}"),
                Capacitor::new(ml, ckt.ground(), geometry.ml_wire_cap(area_f2, width)),
            );
            let rail = ckt.node(&format!("vpre_r{r}"));
            ckt.pin(rail, format!("VPRE{r}"), Waveform::dc(v_pre))
                .map_err(CellError::from)?;
            let clk = ckt.node(&format!("preb_r{r}"));
            let pre_pin = ckt
                .pin(clk, format!("PREB{r}"), Waveform::dc(card.vdd))
                .map_err(CellError::from)?;
            // PMOS precharge (array testbench keeps full-swing designs
            // simple; low-swing arrays validate at row level).
            let pre = card.pmos.scaled(geometry.precharge_width_mult);
            ckt.add_labeled(format!("m_pre_r{r}"), Mosfet::new(pre, rail, clk, ml));
            ml_nodes.push(ml);
            ml_names.push(ml_name);
            pre_pins.push(pre_pin);

            // Footer rails for gated designs, per row.
            let mut source_rail = vec![NodeId::GROUND; width];
            if let FooterStyle::SharedPerGroup(group) = features.footer {
                let en = ckt.node("en");
                for chunk_start in (0..width).step_by(group.max(1)) {
                    let rail = ckt.fresh_node("footer_rail");
                    let footer = card.nmos.scaled(geometry.footer_width_mult);
                    ckt.add_labeled(
                        format!("m_footer_r{r}_{chunk_start}"),
                        Mosfet::new(footer, rail, en, ckt.ground()),
                    );
                    let chunk_end = (chunk_start + group).min(width);
                    source_rail[chunk_start..chunk_end].fill(rail);
                }
            }

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
            ml_names,
            pre_pins,
            en_pin,
            stored: TcamTable::new(width),
            step_stats: StepStats::default(),
            recovery_stats: RecoveryStats::default(),
            solver_perf: SolverPerf::default(),
            newton: NewtonSettings::default(),
        })
    }

    /// Array shape `(rows, width)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.width)
    }

    /// Cumulative transient step statistics over every search this
    /// testbench has run.
    pub fn step_stats(&self) -> StepStats {
        self.step_stats
    }

    /// Cumulative recovery-ladder statistics over every search this
    /// testbench has run.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Cumulative solver hot-path counters (factorisations, LU bypasses,
    /// baseline reuses, ...) over every search this testbench has run.
    pub fn solver_perf(&self) -> SolverPerf {
        self.solver_perf
    }

    /// Overrides the Newton solver settings for every subsequent search.
    pub fn set_newton_settings(&mut self, newton: NewtonSettings) {
        self.newton = newton;
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
        let features = self.design.features();
        let threshold = self.design.sense_threshold(&self.card);
        let t_cycle = timing.cycle();
        let t_total = 2.0 * t_cycle;

        for pin in &self.pre_pins {
            self.ckt
                .set_pin_waveform(*pin, two_cycle_pwl([0.0, vdd, 0.0, vdd], timing));
        }
        for (i, &(sl_pin, slb_pin)) in self.sl_pins.iter().enumerate() {
            let (v_sl, v_slb) = self.design.sl_levels(query.get(i), &self.card);
            let (sl_wave, slb_wave) = if features.sl_return_to_zero {
                (
                    two_cycle_pwl([0.0, v_sl, 0.0, v_sl], timing),
                    two_cycle_pwl([0.0, v_slb, 0.0, v_slb], timing),
                )
            } else {
                (Waveform::dc(v_sl), Waveform::dc(v_slb))
            };
            self.ckt.set_pin_waveform(sl_pin, sl_wave);
            self.ckt.set_pin_waveform(slb_pin, slb_wave);
        }
        if let Some(en) = self.en_pin {
            self.ckt
                .set_pin_waveform(en, two_cycle_pwl([0.0, vdd, 0.0, vdd], timing));
        }

        let opts = TransientOpts::new(timing.dt, t_total)
            .use_initial_conditions()
            .with_step_control(timing.step)
            .with_newton(self.newton)
            .record_nodes(self.ml_nodes.iter().copied());
        let result = Transient::new(opts)
            .run(&mut self.ckt)
            .map_err(CellError::from)?;
        self.step_stats += result.step_stats();
        self.recovery_stats += result.recovery_stats();
        self.solver_perf += result.solver_perf();

        let t_sense = t_cycle + timing.t_precharge + timing.sense_offset;
        let mut row_matches = Vec::with_capacity(self.rows);
        for name in &self.ml_names {
            let ml = result.trace(name).map_err(CellError::from)?;
            row_matches.push(ml.value_at(t_sense) > threshold);
        }
        let first_match = row_matches.iter().position(|&m| m);
        let energy_total = result.total_supply_energy_in(t_cycle, t_total);
        let energy_sl: f64 = (0..self.width)
            .map(|i| {
                result
                    .supply_energy_in(&format!("SL{i}"), t_cycle, t_total)
                    .expect("pin exists")
                    + result
                        .supply_energy_in(&format!("SLB{i}"), t_cycle, t_total)
                        .expect("pin exists")
            })
            .sum();
        let energy_ml: f64 = (0..self.rows)
            .map(|r| {
                result
                    .supply_energy_in(&format!("VPRE{r}"), t_cycle, t_total)
                    .expect("pin exists")
            })
            .sum();
        Ok(ArraySearchOutcome {
            row_matches,
            first_match,
            energy_total,
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
