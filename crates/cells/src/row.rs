//! The match-line row testbench: one TCAM word under test.

use ftcam_circuit::analysis::{RecordMode, Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{
    Circuit, Edge, NewtonSettings, NodeId, PinId, RecoveryStats, SolverPerf, StepStats,
};
use ftcam_devices::{FeFet, Mosfet, MosfetParams, Polarity, TechCard};
use ftcam_workloads::{Ternary, TernaryWord};

use crate::design::{CellDesign, CellHandle, CellSite, FooterStyle};
use crate::error::CellError;
use crate::geometry::Geometry;
use crate::search::{SearchOutcome, SearchTiming, StageOutcome};
use crate::write::{WriteOutcome, WriteTiming};

/// Gate boost applied to an NMOS precharge clock so a low-swing rail is
/// passed without a threshold drop (a standard boosted-clock technique).
const NMOS_PRECHARGE_BOOST: f64 = 0.4;

/// How the match line of a segment is precharged.
#[derive(Debug, Clone, Copy)]
enum PrechargeKind {
    /// PMOS device, clock active-low.
    Pmos,
    /// NMOS device with a boosted active-high clock (low-swing rails).
    Nmos,
}

impl PrechargeKind {
    fn on_level(self, vdd: f64) -> f64 {
        match self {
            PrechargeKind::Pmos => 0.0,
            PrechargeKind::Nmos => vdd + NMOS_PRECHARGE_BOOST,
        }
    }

    fn off_level(self, vdd: f64) -> f64 {
        match self {
            PrechargeKind::Pmos => vdd,
            PrechargeKind::Nmos => 0.0,
        }
    }
}

/// Recorded match-line waveform of one stage (for the waveform figures).
#[derive(Debug, Clone, PartialEq)]
pub struct MlTrace {
    /// Segment index.
    pub segment: usize,
    /// Sample instants (seconds).
    pub times: Vec<f64>,
    /// ML voltage samples (volts).
    pub volts: Vec<f64>,
}

/// A transistor-level testbench for one TCAM row (word).
///
/// Construction instantiates the full netlist — cells, search-line drivers
/// with realistic output resistance and wire loading, per-segment precharge
/// devices, optional gated footers and write clamps. The testbench then
/// supports repeated [`RowTestbench::program_word`] /
/// [`RowTestbench::search`] cycles; device state (ferroelectric
/// polarization, ML charge) carries across operations exactly as it would
/// on silicon.
#[derive(Debug)]
pub struct RowTestbench {
    ckt: Circuit,
    design: Box<dyn CellDesign>,
    card: TechCard,
    geometry: Geometry,
    width: usize,
    cells: Vec<CellHandle>,
    sl_pins: Vec<(PinId, PinId)>,
    ml_nodes: Vec<NodeId>,
    ml_names: Vec<String>,
    pre_pins: Vec<PinId>,
    precharge: PrechargeKind,
    en_pin: Option<PinId>,
    wen_pin: Option<PinId>,
    segment_of_column: Vec<usize>,
    segment_columns: Vec<Vec<usize>>,
    stored: TernaryWord,
    step_stats: StepStats,
    recovery_stats: RecoveryStats,
    solver_perf: SolverPerf,
    newton: NewtonSettings,
}

impl RowTestbench {
    /// Builds the testbench for `width` cells of the given design.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::InvalidParameter`] for a zero width.
    pub fn new(
        design: Box<dyn CellDesign>,
        card: TechCard,
        geometry: Geometry,
        width: usize,
    ) -> Result<Self, CellError> {
        if width == 0 {
            return Err(CellError::InvalidParameter("width must be positive".into()));
        }
        let features = design.features();
        let segments = features.segments.clamp(1, width);
        let v_pre = design.ml_precharge_voltage(&card);
        let precharge = if v_pre >= 0.7 * card.vdd {
            PrechargeKind::Pmos
        } else {
            PrechargeKind::Nmos
        };

        let mut ckt = Circuit::new();
        let area_f2 = design.area_f2();

        // Segment partition: balanced, first segments take the remainder.
        let mut segment_columns: Vec<Vec<usize>> = vec![Vec::new(); segments];
        let mut segment_of_column = vec![0usize; width];
        {
            let base = width / segments;
            let rem = width % segments;
            let mut col = 0usize;
            for (s, columns) in segment_columns.iter_mut().enumerate() {
                let size = base + usize::from(s < rem);
                for _ in 0..size {
                    segment_of_column[col] = s;
                    columns.push(col);
                    col += 1;
                }
            }
        }

        // Per-segment match line, wire cap, precharge device, write clamp.
        let mut ml_nodes = Vec::with_capacity(segments);
        let mut ml_names = Vec::with_capacity(segments);
        let mut pre_pins = Vec::with_capacity(segments);
        let wen = design.supports_transient_write().then(|| {
            let wen_node = ckt.node("wen");
            ckt.pin(wen_node, "WEN", Waveform::dc(0.0))
                .expect("fresh node")
        });
        for (s, columns) in segment_columns.iter().enumerate() {
            let ml_name = format!("ml{s}");
            let ml = ckt.node(&ml_name);
            ml_nodes.push(ml);
            ml_names.push(ml_name);
            ckt.add_labeled(
                format!("c_ml_wire{s}"),
                Capacitor::new(
                    ml,
                    ckt.ground(),
                    geometry.ml_wire_cap(area_f2, columns.len()),
                ),
            );
            // Precharge rail + device + clock pin.
            let rail = ckt.node(&format!("vpre{s}"));
            ckt.pin(rail, format!("VPRE{s}"), Waveform::dc(v_pre))
                .map_err(CellError::from)?;
            let clk = ckt.node(&format!("preb{s}"));
            let pre_pin = ckt
                .pin(
                    clk,
                    format!("PREB{s}"),
                    Waveform::dc(precharge.off_level(card.vdd)),
                )
                .map_err(CellError::from)?;
            pre_pins.push(pre_pin);
            let pre_params = match precharge {
                PrechargeKind::Pmos => card.pmos.scaled(geometry.precharge_width_mult),
                PrechargeKind::Nmos => card.nmos.scaled(geometry.precharge_width_mult),
            };
            // Drain on the rail, source on the ML for the PMOS orientation;
            // the EKV model is source/drain symmetric so the distinction
            // only matters for readability.
            ckt.add_labeled(format!("m_pre{s}"), Mosfet::new(pre_params, rail, clk, ml));
            if let Some(_wen_pin) = wen {
                let wen_node = ckt.node("wen");
                let clamp = clamp_params(&card, &geometry);
                ckt.add_labeled(
                    format!("m_wclamp{s}"),
                    Mosfet::new(clamp, ml, wen_node, ckt.ground()),
                );
            }
        }

        // Search-enable rail for gated-footer designs.
        let en_pin = match features.footer {
            FooterStyle::None => None,
            FooterStyle::SharedPerGroup(_) => {
                let en_node = ckt.node("en");
                Some(
                    ckt.pin(en_node, "EN", Waveform::dc(0.0))
                        .map_err(CellError::from)?,
                )
            }
        };

        // Columns: SL driver pin → driver resistance → SL node (+ wire cap).
        let mut sl_pins = Vec::with_capacity(width);
        let mut sl_nodes = Vec::with_capacity(width);
        for i in 0..width {
            let mut make_line = |tag: &str| -> Result<(PinId, NodeId), CellError> {
                let drv = ckt.node(&format!("{tag}drv{i}"));
                let line = ckt.node(&format!("{tag}{i}"));
                let pin = ckt
                    .pin(drv, format!("{}{i}", tag.to_uppercase()), Waveform::dc(0.0))
                    .map_err(CellError::from)?;
                ckt.add_labeled(
                    format!("r_{tag}{i}"),
                    Resistor::new(drv, line, geometry.sl_driver_resistance),
                );
                ckt.add_labeled(
                    format!("c_{tag}wire{i}"),
                    Capacitor::new(line, NodeId::GROUND, geometry.sl_wire_cap_per_cell(area_f2)),
                );
                Ok((pin, line))
            };
            let (sl_pin, sl_node) = make_line("sl")?;
            let (slb_pin, slb_node) = make_line("slb")?;
            sl_pins.push((sl_pin, slb_pin));
            sl_nodes.push((sl_node, slb_node));
        }

        // Footers (one per group of adjacent columns within a segment).
        let mut source_rail_of_column = vec![NodeId::GROUND; width];
        if let FooterStyle::SharedPerGroup(group) = features.footer {
            let en_node = ckt.node("en");
            for columns in &segment_columns {
                for chunk in columns.chunks(group.max(1)) {
                    let rail = ckt.fresh_node("footer_rail");
                    let footer = card.nmos.scaled(geometry.footer_width_mult);
                    ckt.add_labeled(
                        format!("m_footer{}", chunk[0]),
                        Mosfet::new(footer, rail, en_node, ckt.ground()),
                    );
                    for &col in chunk {
                        source_rail_of_column[col] = rail;
                    }
                }
            }
        }

        // Cells.
        let mut cells = Vec::with_capacity(width);
        for i in 0..width {
            let site = CellSite {
                index: i,
                ml: ml_nodes[segment_of_column[i]],
                sl: sl_nodes[i].0,
                slb: sl_nodes[i].1,
                source_rail: source_rail_of_column[i],
            };
            cells.push(design.build_cell(&mut ckt, &card, &geometry, &site));
        }

        Ok(Self {
            ckt,
            design,
            card,
            geometry,
            width,
            cells,
            sl_pins,
            ml_nodes,
            ml_names,
            pre_pins,
            precharge,
            en_pin,
            wen_pin: wen,
            segment_of_column,
            segment_columns,
            stored: TernaryWord::all_x(width),
            step_stats: StepStats::default(),
            recovery_stats: RecoveryStats::default(),
            solver_perf: SolverPerf::default(),
            newton: NewtonSettings::default(),
        })
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Cumulative transient step statistics over every operation this
    /// testbench has run (searches, writes, calibration sweeps).
    pub fn step_stats(&self) -> StepStats {
        self.step_stats
    }

    /// Cumulative recovery-ladder statistics over every operation this
    /// testbench has run (all-zero unless the solver needed the ladder).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Cumulative solver hot-path counters (factorisations, LU bypasses,
    /// baseline reuses, ...) over every operation this testbench has run.
    pub fn solver_perf(&self) -> SolverPerf {
        self.solver_perf
    }

    /// The Newton solver settings applied to every transient this
    /// testbench runs.
    pub fn newton_settings(&self) -> NewtonSettings {
        self.newton
    }

    /// Overrides the Newton solver settings (tolerances, damping, `gmin`,
    /// and — under the `fault-injection` feature — an injected fault plan)
    /// for every subsequent operation.
    pub fn set_newton_settings(&mut self, newton: NewtonSettings) {
        self.newton = newton;
    }

    /// The design under test.
    pub fn design(&self) -> &dyn CellDesign {
        self.design.as_ref()
    }

    /// The technology card in use.
    pub fn card(&self) -> &TechCard {
        &self.card
    }

    /// The currently stored word.
    pub fn stored_word(&self) -> &TernaryWord {
        &self.stored
    }

    /// The layout/parasitic constants in use.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Functional (golden-model) match result for a query.
    ///
    /// # Panics
    ///
    /// Panics if the query width differs from the testbench width.
    pub fn golden_matches(&self, query: &TernaryWord) -> bool {
        self.stored.matches(query)
    }

    /// Number of free unknowns in the underlying netlist (diagnostics).
    pub fn node_count(&self) -> usize {
        self.ckt.node_count()
    }

    /// Programs the stored word instantly (ideal write).
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] for a wrong-width word.
    pub fn program_word(&mut self, word: &TernaryWord) -> Result<(), CellError> {
        if word.width() != self.width {
            return Err(CellError::WidthMismatch {
                expected: self.width,
                got: word.width(),
            });
        }
        for (i, handle) in self.cells.iter().enumerate() {
            self.design
                .program_cell(&mut self.ckt, handle, &self.card, word.get(i));
        }
        self.stored = word.clone();
        Ok(())
    }

    /// Runs one search and returns the measurement.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] for a wrong-width query or a
    /// wrapped [`CellError::Circuit`] if the simulation fails.
    pub fn search(
        &mut self,
        query: &TernaryWord,
        timing: &SearchTiming,
    ) -> Result<SearchOutcome, CellError> {
        self.search_traced(query, timing).map(|(o, _)| o)
    }

    /// Runs one search, also returning the match-line waveforms of every
    /// evaluated stage (for the transient figures).
    ///
    /// # Errors
    ///
    /// Same as [`RowTestbench::search`].
    pub fn search_traced(
        &mut self,
        query: &TernaryWord,
        timing: &SearchTiming,
    ) -> Result<(SearchOutcome, Vec<MlTrace>), CellError> {
        if query.width() != self.width {
            return Err(CellError::WidthMismatch {
                expected: self.width,
                got: query.width(),
            });
        }
        let features = self.design.features();
        let vdd = self.card.vdd;
        let threshold = self.design.sense_threshold(&self.card);
        let t_cycle = timing.cycle();
        let t_total = 2.0 * t_cycle;
        let segments = self.ml_nodes.len();

        let mut stages = Vec::with_capacity(segments);
        let mut traces = Vec::with_capacity(segments);
        let mut energy_ml = 0.0;
        let mut energy_sl = 0.0;
        let mut energy_ctrl = 0.0;
        let mut latency = 0.0;
        let mut sense_margin = f64::INFINITY;
        let mut matched = true;

        for seg in 0..segments {
            // --- Configure waveforms for this stage -------------------------
            for s in 0..segments {
                let active = s == seg;
                let wave = if active {
                    two_cycle_pwl(
                        [
                            self.precharge.on_level(vdd),
                            self.precharge.off_level(vdd),
                            self.precharge.on_level(vdd),
                            self.precharge.off_level(vdd),
                        ],
                        timing,
                    )
                } else {
                    Waveform::dc(self.precharge.off_level(vdd))
                };
                self.ckt.set_pin_waveform(self.pre_pins[s], wave);
            }
            for i in 0..self.width {
                let (v_sl, v_slb) = self.design.sl_levels(query.get(i), &self.card);
                let in_active_segment = self.segment_of_column[i] == seg;
                let (sl_wave, slb_wave) = if !in_active_segment {
                    (Waveform::dc(0.0), Waveform::dc(0.0))
                } else if features.sl_return_to_zero {
                    (
                        two_cycle_pwl([0.0, v_sl, 0.0, v_sl], timing),
                        two_cycle_pwl([0.0, v_slb, 0.0, v_slb], timing),
                    )
                } else {
                    (Waveform::dc(v_sl), Waveform::dc(v_slb))
                };
                self.ckt.set_pin_waveform(self.sl_pins[i].0, sl_wave);
                self.ckt.set_pin_waveform(self.sl_pins[i].1, slb_wave);
            }
            if let Some(en) = self.en_pin {
                self.ckt
                    .set_pin_waveform(en, two_cycle_pwl([0.0, vdd, 0.0, vdd], timing));
            }
            if let Some(wen) = self.wen_pin {
                self.ckt.set_pin_waveform(wen, Waveform::dc(0.0));
            }

            // --- Simulate two cycles ----------------------------------------
            let opts = TransientOpts::new(timing.dt, t_total)
                .use_initial_conditions()
                .with_step_control(timing.step)
                .with_newton(self.newton)
                .record_nodes([self.ml_nodes[seg]]);
            let result = Transient::new(opts)
                .run(&mut self.ckt)
                .map_err(CellError::from)?;
            self.step_stats += result.step_stats();
            self.recovery_stats += result.recovery_stats();
            self.solver_perf += result.solver_perf();

            // --- Measure the steady-state (second) cycle ---------------------
            let ml = result.trace(&self.ml_names[seg]).map_err(CellError::from)?;
            let eval_start = t_cycle + timing.t_precharge;
            let t_sense = eval_start + timing.sense_offset;
            let ml_at_sense = ml.value_at(t_sense);
            let seg_matched = ml_at_sense > threshold;
            let stage_latency = if seg_matched {
                timing.t_precharge + timing.sense_offset
            } else {
                let cross = ml
                    .cross_after(threshold, Edge::Falling, eval_start)
                    .unwrap_or(t_sense);
                timing.t_precharge + (cross - eval_start).max(0.0)
            };
            let e_stage = result.total_supply_energy_in(t_cycle, t_total);
            let e_ml: f64 = (0..segments)
                .map(|s| {
                    result
                        .supply_energy_in(&format!("VPRE{s}"), t_cycle, t_total)
                        .expect("pin exists")
                })
                .sum();
            let e_sl: f64 = (0..self.width)
                .map(|i| {
                    result
                        .supply_energy_in(&format!("SL{i}"), t_cycle, t_total)
                        .expect("pin exists")
                        + result
                            .supply_energy_in(&format!("SLB{i}"), t_cycle, t_total)
                            .expect("pin exists")
                })
                .sum();
            energy_ml += e_ml;
            energy_sl += e_sl;
            energy_ctrl += e_stage - e_ml - e_sl;
            latency += stage_latency;
            let margin = if seg_matched {
                ml_at_sense - threshold
            } else {
                threshold - ml_at_sense
            };
            sense_margin = sense_margin.min(margin);
            stages.push(StageOutcome {
                segment: seg,
                matched: seg_matched,
                ml_at_sense,
                latency: stage_latency,
                energy: e_stage,
            });
            traces.push(MlTrace {
                segment: seg,
                times: ml.times().to_vec(),
                volts: ml.values().to_vec(),
            });
            if !seg_matched {
                matched = false;
                break;
            }
        }

        let energy_total = energy_ml + energy_sl + energy_ctrl;
        Ok((
            SearchOutcome {
                matched,
                latency,
                energy_total,
                energy_ml,
                energy_sl,
                energy_ctrl,
                sense_threshold: threshold,
                sense_margin,
                stages,
            },
            traces,
        ))
    }

    /// Performs a transient word write (FeFET designs only).
    ///
    /// # Errors
    ///
    /// * [`CellError::UnsupportedOperation`] for volatile designs.
    /// * [`CellError::WidthMismatch`] for a wrong-width word.
    /// * Wrapped [`CellError::Circuit`] on simulation failure.
    pub fn write_word(
        &mut self,
        word: &TernaryWord,
        timing: &WriteTiming,
    ) -> Result<WriteOutcome, CellError> {
        if !self.design.supports_transient_write() {
            return Err(CellError::UnsupportedOperation(format!(
                "{} does not support transient writes",
                self.design.name()
            )));
        }
        if word.width() != self.width {
            return Err(CellError::WidthMismatch {
                expected: self.width,
                got: word.width(),
            });
        }
        let amplitude = timing.amplitude.unwrap_or(self.card.vprog);
        let t0 = 1e-9;
        let t_erase_end = t0 + timing.erase_width;
        let t_prog = t_erase_end + timing.gap;
        let t_prog_end = t_prog + timing.program_width;
        let t_total = t_prog_end + 2e-9;
        let e = timing.edge;

        // Clamp MLs, enable footers, idle precharge.
        if let Some(wen) = self.wen_pin {
            self.ckt.set_pin_waveform(wen, Waveform::dc(self.card.vdd));
        }
        if let Some(en) = self.en_pin {
            self.ckt.set_pin_waveform(en, Waveform::dc(self.card.vdd));
        }
        for pin in &self.pre_pins {
            self.ckt
                .set_pin_waveform(*pin, Waveform::dc(self.precharge.off_level(self.card.vdd)));
        }

        // Snapshot switching energy before the write.
        let e_sw_before: f64 = self
            .fefet_devices()
            .iter()
            .map(|&d| {
                self.ckt
                    .device_ref::<FeFet>(d)
                    .expect("fefet design")
                    .switching_energy()
            })
            .sum();

        // Drive the pulse scheme.
        for i in 0..self.width {
            let bit = word.get(i);
            let program_sl = bit == Ternary::Zero;
            let program_slb = bit == Ternary::One;
            let make = |programmed: bool| -> Waveform {
                let mut pts = vec![
                    (0.0, 0.0),
                    (t0, 0.0),
                    (t0 + e, -amplitude),
                    (t_erase_end, -amplitude),
                    (t_erase_end + e, 0.0),
                ];
                if programmed {
                    pts.extend([
                        (t_prog, 0.0),
                        (t_prog + e, amplitude),
                        (t_prog_end, amplitude),
                        (t_prog_end + e, 0.0),
                    ]);
                }
                Waveform::pwl(pts)
            };
            self.ckt
                .set_pin_waveform(self.sl_pins[i].0, make(program_sl));
            self.ckt
                .set_pin_waveform(self.sl_pins[i].1, make(program_slb));
        }

        let opts = TransientOpts::new(timing.dt, t_total)
            .use_initial_conditions()
            .with_step_control(timing.step)
            .with_newton(self.newton)
            .with_record(RecordMode::None);
        let result = Transient::new(opts)
            .run(&mut self.ckt)
            .map_err(CellError::from)?;
        self.step_stats += result.step_stats();
        self.recovery_stats += result.recovery_stats();
        self.solver_perf += result.solver_perf();

        // Collect outcomes.
        let mut polarizations = Vec::with_capacity(2 * self.width);
        let mut programmed_ok = true;
        for (i, handle) in self.cells.iter().enumerate() {
            let (want1, want2) = crate::designs::FeFet2T::polarizations(word.get(i));
            for (slot, want) in [(0usize, want1), (1, want2)] {
                let p = self
                    .ckt
                    .device_ref::<FeFet>(handle.devices[slot])
                    .expect("fefet design")
                    .polarization();
                polarizations.push(p);
                if p.abs() < 0.8 || p.signum() != want.signum() {
                    programmed_ok = false;
                }
            }
        }
        let e_sw_after: f64 = self
            .fefet_devices()
            .iter()
            .map(|&d| {
                self.ckt
                    .device_ref::<FeFet>(d)
                    .expect("fefet design")
                    .switching_energy()
            })
            .sum();
        if programmed_ok {
            self.stored = word.clone();
        }
        Ok(WriteOutcome {
            energy_total: result.total_supply_energy(),
            energy_switching: e_sw_after - e_sw_before,
            latency: timing.latency(),
            programmed_ok,
            polarizations,
        })
    }

    /// Applies a threshold-voltage perturbation to every FeFET, for Monte
    /// Carlo variation studies: `delta[j]` volts is added to device `j`'s
    /// effective threshold by nudging its polarization.
    ///
    /// Only meaningful for FeFET designs; volatile designs ignore it.
    pub fn apply_fefet_vth_shift(&mut self, deltas: &[f64]) {
        let devices = self.fefet_devices();
        for (j, &dev) in devices.iter().enumerate() {
            let delta = deltas.get(j).copied().unwrap_or(0.0);
            if let Some(fefet) = self.ckt.device_mut::<FeFet>(dev) {
                // ΔV_th = −Δp·MW/2 → Δp = −2·ΔV_th/MW.
                let mw = fefet.params().memory_window;
                let p = fefet.polarization();
                let p_new = (p - 2.0 * delta / mw).clamp(-1.0, 1.0);
                fefet.set_polarization(p_new);
            }
        }
    }

    /// Device ids of all FeFETs in cell order (2 per cell), empty for
    /// non-FeFET designs.
    pub fn fefet_devices(&self) -> Vec<ftcam_circuit::DeviceId> {
        if !self.design.supports_transient_write() {
            return Vec::new();
        }
        self.cells
            .iter()
            .flat_map(|h| h.devices.iter().copied())
            .collect()
    }

    /// The columns of each match-line segment.
    pub fn segment_columns(&self) -> &[Vec<usize>] {
        &self.segment_columns
    }

    /// Sets every FeFET's polarization directly, in cell order (two values
    /// per cell: `[fe1, fe2]`). The foundation of the multi-level (analog
    /// CAM) extension, where intermediate polarizations encode analog
    /// thresholds rather than binary states.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::UnsupportedOperation`] for non-FeFET designs
    /// and [`CellError::WidthMismatch`] if the slice length differs from
    /// `2 × width`.
    ///
    /// # Panics
    ///
    /// Panics if any polarization is outside `[-1, 1]`.
    pub fn set_fefet_polarizations(&mut self, polarizations: &[f64]) -> Result<(), CellError> {
        let devices = self.fefet_devices();
        if devices.is_empty() {
            return Err(CellError::UnsupportedOperation(format!(
                "{} has no FeFETs to program",
                self.design.name()
            )));
        }
        if polarizations.len() != devices.len() {
            return Err(CellError::WidthMismatch {
                expected: devices.len(),
                got: polarizations.len(),
            });
        }
        for (&dev, &p) in devices.iter().zip(polarizations) {
            self.ckt
                .device_mut::<FeFet>(dev)
                .expect("fefet design")
                .set_polarization(p);
        }
        Ok(())
    }

    /// Runs one search with *analog* search-line levels instead of ternary
    /// encodings: column `i`'s SL is driven to `v_sl[i]` volts and its SLB
    /// to `v_slb[i]` volts during the evaluate phase (return-to-zero).
    ///
    /// Used by the multi-level CAM extension; the match decision is the
    /// same NOR-ML threshold test as the digital search.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] if the level slices differ
    /// from the width, or a wrapped simulation failure.
    pub fn search_analog(
        &mut self,
        v_sl: &[f64],
        v_slb: &[f64],
        timing: &SearchTiming,
    ) -> Result<SearchOutcome, CellError> {
        if v_sl.len() != self.width || v_slb.len() != self.width {
            return Err(CellError::WidthMismatch {
                expected: self.width,
                got: v_sl.len().min(v_slb.len()),
            });
        }
        let vdd = self.card.vdd;
        let threshold = self.design.sense_threshold(&self.card);
        let t_cycle = timing.cycle();
        let t_total = 2.0 * t_cycle;
        // Flat evaluation only (analog CAM rows are not segmented).
        let seg = 0usize;
        for (s, pin) in self.pre_pins.iter().enumerate() {
            let wave = if s == seg {
                two_cycle_pwl(
                    [
                        self.precharge.on_level(vdd),
                        self.precharge.off_level(vdd),
                        self.precharge.on_level(vdd),
                        self.precharge.off_level(vdd),
                    ],
                    timing,
                )
            } else {
                Waveform::dc(self.precharge.off_level(vdd))
            };
            self.ckt.set_pin_waveform(*pin, wave);
        }
        for i in 0..self.width {
            self.ckt.set_pin_waveform(
                self.sl_pins[i].0,
                two_cycle_pwl([0.0, v_sl[i], 0.0, v_sl[i]], timing),
            );
            self.ckt.set_pin_waveform(
                self.sl_pins[i].1,
                two_cycle_pwl([0.0, v_slb[i], 0.0, v_slb[i]], timing),
            );
        }
        if let Some(en) = self.en_pin {
            self.ckt
                .set_pin_waveform(en, two_cycle_pwl([0.0, vdd, 0.0, vdd], timing));
        }
        if let Some(wen) = self.wen_pin {
            self.ckt.set_pin_waveform(wen, Waveform::dc(0.0));
        }
        let opts = TransientOpts::new(timing.dt, t_total)
            .use_initial_conditions()
            .with_step_control(timing.step)
            .with_newton(self.newton)
            .record_nodes([self.ml_nodes[seg]]);
        let result = Transient::new(opts)
            .run(&mut self.ckt)
            .map_err(CellError::from)?;
        self.step_stats += result.step_stats();
        self.recovery_stats += result.recovery_stats();
        self.solver_perf += result.solver_perf();
        let ml = result.trace(&self.ml_names[seg]).map_err(CellError::from)?;
        let eval_start = t_cycle + timing.t_precharge;
        let t_sense = eval_start + timing.sense_offset;
        let ml_at_sense = ml.value_at(t_sense);
        let matched = ml_at_sense > threshold;
        let latency = if matched {
            timing.t_precharge + timing.sense_offset
        } else {
            let cross = ml
                .cross_after(threshold, Edge::Falling, eval_start)
                .unwrap_or(t_sense);
            timing.t_precharge + (cross - eval_start).max(0.0)
        };
        let energy_total = result.total_supply_energy_in(t_cycle, t_total);
        let energy_ml: f64 = (0..self.ml_nodes.len())
            .map(|s| {
                result
                    .supply_energy_in(&format!("VPRE{s}"), t_cycle, t_total)
                    .expect("pin exists")
            })
            .sum();
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
        let margin = if matched {
            ml_at_sense - threshold
        } else {
            threshold - ml_at_sense
        };
        Ok(SearchOutcome {
            matched,
            latency,
            energy_total,
            energy_ctrl: energy_total - energy_ml - energy_sl,
            energy_ml,
            energy_sl,
            sense_threshold: threshold,
            sense_margin: margin,
            stages: vec![StageOutcome {
                segment: 0,
                matched,
                ml_at_sense,
                latency,
                energy: energy_total,
            }],
        })
    }

    /// Exports the full testbench netlist as a SPICE deck (for inspection
    /// or cross-checking in an external simulator).
    pub fn to_spice(&self) -> String {
        ftcam_circuit::export_spice(
            &self.ckt,
            &format!("{} TCAM row, {} cells", self.design.name(), self.width),
        )
    }
}

fn clamp_params(card: &TechCard, geometry: &Geometry) -> MosfetParams {
    let mut p = card.nmos.scaled(geometry.footer_width_mult);
    debug_assert_eq!(p.polarity, Polarity::Nmos);
    // Slightly longer channel keeps clamp leakage negligible during search.
    p.length *= 1.2;
    p
}

/// Builds a two-cycle piecewise-linear waveform over the four phases
/// `[precharge₁, evaluate₁, precharge₂, evaluate₂]`.
pub(crate) fn two_cycle_pwl(levels: [f64; 4], timing: &SearchTiming) -> Waveform {
    let tp = timing.t_precharge;
    let tc = timing.cycle();
    let e = timing.edge;
    let boundaries = [0.0, tp, tc, tc + tp];
    let mut pts = Vec::with_capacity(9);
    pts.push((0.0, levels[0]));
    for k in 1..4 {
        pts.push((boundaries[k], levels[k - 1]));
        pts.push((boundaries[k] + e, levels[k]));
    }
    pts.push((2.0 * tc, levels[3]));
    Waveform::pwl(pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;

    #[test]
    fn two_cycle_pwl_levels() {
        let t = SearchTiming::default();
        let w = two_cycle_pwl([0.0, 1.0, 0.0, 1.0], &t);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(t.t_precharge + 0.2e-9), 1.0);
        assert_eq!(w.value(t.cycle() + 0.2e-9), 0.0);
        assert_eq!(w.value(t.cycle() + t.t_precharge + 0.2e-9), 1.0);
        assert_eq!(w.value(2.0 * t.cycle()), 1.0);
    }

    #[test]
    fn zero_width_is_rejected() {
        let err = RowTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            0,
        );
        assert!(matches!(err, Err(CellError::InvalidParameter(_))));
    }

    #[test]
    fn segment_partition_is_balanced() {
        let row = RowTestbench::new(
            Box::new(crate::designs::EaMlSegmented::new(3)),
            TechCard::hp45(),
            Geometry::default(),
            8,
        )
        .unwrap();
        let sizes: Vec<usize> = row.segment_columns().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2]);
    }

    #[test]
    fn width_mismatch_is_reported() {
        let mut row = RowTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            4,
        )
        .unwrap();
        let err = row.program_word(&TernaryWord::all_x(5));
        assert!(matches!(err, Err(CellError::WidthMismatch { .. })));
    }
}
