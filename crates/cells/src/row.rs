//! The match-line row testbench: one TCAM word under test.

use ftcam_circuit::analysis::{RecordMode, Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{
    Circuit, Edge, NewtonSettings, NodeId, PinId, RecoveryStats, SolverPerf, StepControl,
    StepStats, TransientResult,
};
use ftcam_devices::{FeFet, Mosfet, MosfetParams, Polarity, TechCard};
use ftcam_workloads::{Ternary, TernaryWord};

use crate::design::{CellDesign, CellHandle, CellSite, FooterStyle};
use crate::designs::FeFetTcam;
use crate::error::CellError;
use crate::geometry::Geometry;
use crate::search::{SearchOutcome, SearchTiming, StageOutcome};
use crate::write::{WriteOutcome, WriteTiming};

/// Gate boost applied to an NMOS precharge clock so a low-swing rail is
/// passed without a threshold drop (a standard boosted-clock technique).
const NMOS_PRECHARGE_BOOST: f64 = 0.4;

/// How the match line of a segment is precharged.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PrechargeKind {
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

    /// The clock of the stage under evaluation: on in both precharge phases.
    pub(crate) fn clock(self, vdd: f64, timing: &SearchTiming) -> Waveform {
        let (on, off) = (self.on_level(vdd), self.off_level(vdd));
        two_cycle_pwl([on, off, on, off], timing)
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

/// One evaluated stage before it is folded into a [`SearchOutcome`].
struct Stage {
    outcome: StageOutcome,
    energy_ml: f64,
    energy_sl: f64,
    trace: MlTrace,
}

/// The Newton settings a testbench applies to every transient it runs, and
/// the solver counters and worst KCL residual over all of them.
#[derive(Debug, Default)]
pub(crate) struct Solver {
    pub(crate) newton: NewtonSettings,
    pub(crate) step_stats: StepStats,
    pub(crate) recovery_stats: RecoveryStats,
    pub(crate) solver_perf: SolverPerf,
    pub(crate) max_kcl_residual: f64,
}

impl Solver {
    /// Runs `opts` from the circuit's present state under `step`, adding
    /// the run's counters.
    pub(crate) fn run(
        &mut self,
        ckt: &mut Circuit,
        opts: TransientOpts,
        step: StepControl,
    ) -> Result<TransientResult, CellError> {
        let opts = opts
            .use_initial_conditions()
            .with_step_control(step)
            .with_newton(self.newton);
        let result = Transient::new(opts).run(ckt)?;
        self.step_stats += result.step_stats();
        self.recovery_stats += result.recovery_stats();
        self.solver_perf += result.solver_perf();
        self.max_kcl_residual = self.max_kcl_residual.max(result.max_kcl_residual());
        Ok(result)
    }
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
    pre_pins: Vec<PinId>,
    precharge: PrechargeKind,
    en_pin: Option<PinId>,
    wen_pin: Option<PinId>,
    segment_of_column: Vec<usize>,
    segment_columns: Vec<Vec<usize>>,
    stored: TernaryWord,
    solver: Solver,
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
        let (base, rem) = (width / segments, width % segments);
        let mut segment_columns: Vec<Vec<usize>> = Vec::with_capacity(segments);
        let mut segment_of_column = Vec::with_capacity(width);
        for s in 0..segments {
            let start = segment_of_column.len();
            segment_of_column.resize(start + base + usize::from(s < rem), s);
            segment_columns.push((start..segment_of_column.len()).collect());
        }

        // Per-segment match line, wire cap, precharge device, write clamp.
        let mut ml_nodes = Vec::with_capacity(segments);
        let mut pre_pins = Vec::with_capacity(segments);
        let wen = design.supports_transient_write().then(|| {
            let wen_node = ckt.node("wen");
            ckt.pin(wen_node, "WEN", Waveform::dc(0.0))
                .expect("fresh node")
        });
        for (s, columns) in segment_columns.iter().enumerate() {
            let (ml, pre_pin) = build_match_line(
                &mut ckt,
                design.as_ref(),
                &card,
                &geometry,
                precharge,
                columns.len(),
                s,
            )?;
            ml_nodes.push(ml);
            pre_pins.push(pre_pin);
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

        let (sl_pins, sl_nodes) = build_search_lines(
            &mut ckt,
            &geometry,
            width,
            geometry.sl_wire_cap_per_cell(area_f2),
        )?;
        let source_rail_of_column = build_footers(
            &mut ckt,
            &card,
            &geometry,
            features.footer,
            &segment_columns,
            width,
            "m_footer",
        );

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
            pre_pins,
            precharge,
            en_pin,
            wen_pin: wen,
            segment_of_column,
            segment_columns,
            stored: TernaryWord::all_x(width),
            solver: Solver::default(),
        })
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Cumulative transient step statistics over every operation this
    /// testbench has run (searches, writes, calibration sweeps).
    pub fn step_stats(&self) -> StepStats {
        self.solver.step_stats
    }

    /// Cumulative recovery-ladder statistics over every operation this
    /// testbench has run (all-zero unless the solver needed the ladder).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.solver.recovery_stats
    }

    /// Cumulative solver hot-path counters (factorisations, LU bypasses,
    /// baseline reuses, ...) over every operation this testbench has run.
    pub fn solver_perf(&self) -> SolverPerf {
        self.solver.solver_perf
    }

    /// Largest KCL residual (amps) at any free node, over every accepted
    /// step of every operation this testbench has run.
    pub fn max_kcl_residual(&self) -> f64 {
        self.solver.max_kcl_residual
    }

    /// The Newton solver settings applied to every transient this
    /// testbench runs.
    pub fn newton_settings(&self) -> NewtonSettings {
        self.solver.newton
    }

    /// Overrides the Newton solver settings (tolerances, damping, `gmin`,
    /// and — under the `fault-injection` feature — an injected fault plan)
    /// for every subsequent operation.
    pub fn set_newton_settings(&mut self, newton: NewtonSettings) {
        self.solver.newton = newton;
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
        self.check_width(word.width())?;
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
        self.check_width(query.width())?;
        let mut stages = Vec::with_capacity(self.ml_nodes.len());
        for seg in 0..self.ml_nodes.len() {
            let lines = (0..self.width)
                .map(|i| {
                    if self.segment_of_column[i] == seg {
                        drive_digit(self.design.as_ref(), &self.card, query.get(i), timing)
                    } else {
                        (Waveform::dc(0.0), Waveform::dc(0.0))
                    }
                })
                .collect();
            let stage = self.stage(seg, lines, timing)?;
            let matched = stage.outcome.matched;
            stages.push(stage);
            if !matched {
                break;
            }
        }
        Ok(self.fold(stages))
    }

    /// Runs one two-cycle stage: precharges and evaluates segment `seg`
    /// with column `i`'s SL/SLB driven by `lines[i]`, and measures the
    /// steady-state (second) cycle.
    fn stage(
        &mut self,
        seg: usize,
        lines: Vec<(Waveform, Waveform)>,
        timing: &SearchTiming,
    ) -> Result<Stage, CellError> {
        let vdd = self.card.vdd;
        let threshold = self.design.sense_threshold(&self.card);
        let t_cycle = timing.cycle();
        let t_total = 2.0 * t_cycle;
        for (s, &pin) in self.pre_pins.iter().enumerate() {
            let wave = if s == seg {
                self.precharge.clock(vdd, timing)
            } else {
                Waveform::dc(self.precharge.off_level(vdd))
            };
            self.ckt.set_pin_waveform(pin, wave);
        }
        for (&(sl_pin, slb_pin), (sl, slb)) in self.sl_pins.iter().zip(lines) {
            self.ckt.set_pin_waveform(sl_pin, sl);
            self.ckt.set_pin_waveform(slb_pin, slb);
        }
        if let Some(en) = self.en_pin {
            self.ckt.set_pin_waveform(en, evaluate_pulse(vdd, timing));
        }
        if let Some(wen) = self.wen_pin {
            self.ckt.set_pin_waveform(wen, Waveform::dc(0.0));
        }

        let opts = TransientOpts::new(timing.dt, t_total).record_nodes([self.ml_nodes[seg]]);
        let result = self.solver.run(&mut self.ckt, opts, timing.step)?;

        let ml = result.trace(&format!("ml{seg}"))?;
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
        let (energy_ml, energy_sl) =
            window_energies(&result, self.ml_nodes.len(), self.width, t_cycle, t_total);
        Ok(Stage {
            outcome: StageOutcome {
                segment: seg,
                matched,
                ml_at_sense,
                latency,
                energy: result.total_supply_energy_in(t_cycle, t_total),
            },
            energy_ml,
            energy_sl,
            trace: MlTrace {
                segment: seg,
                times: ml.times().to_vec(),
                volts: ml.values().to_vec(),
            },
        })
    }

    /// Folds the evaluated stages into one outcome: energies and latencies
    /// add up, the row matches only if every stage did, and the margin is
    /// the worst stage's.
    fn fold(&self, stages: Vec<Stage>) -> (SearchOutcome, Vec<MlTrace>) {
        let threshold = self.design.sense_threshold(&self.card);
        let mut out = SearchOutcome {
            matched: true,
            latency: 0.0,
            energy_total: 0.0,
            energy_ml: 0.0,
            energy_sl: 0.0,
            energy_ctrl: 0.0,
            sense_threshold: threshold,
            sense_margin: f64::INFINITY,
            stages: Vec::with_capacity(stages.len()),
        };
        let mut traces = Vec::with_capacity(stages.len());
        for stage in stages {
            let st = stage.outcome;
            out.energy_ml += stage.energy_ml;
            out.energy_sl += stage.energy_sl;
            out.energy_ctrl += st.energy - stage.energy_ml - stage.energy_sl;
            out.latency += st.latency;
            let margin = if st.matched {
                st.ml_at_sense - threshold
            } else {
                threshold - st.ml_at_sense
            };
            out.sense_margin = out.sense_margin.min(margin);
            out.matched &= st.matched;
            out.stages.push(st);
            traces.push(stage.trace);
        }
        out.energy_total = out.energy_ml + out.energy_sl + out.energy_ctrl;
        (out, traces)
    }

    fn check_width(&self, got: usize) -> Result<(), CellError> {
        if got == self.width {
            Ok(())
        } else {
            Err(CellError::WidthMismatch {
                expected: self.width,
                got,
            })
        }
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
        self.check_width(word.width())?;
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

        let e_sw_before = self.switching_energy();

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

        let opts = TransientOpts::new(timing.dt, t_total).with_record(RecordMode::None);
        let result = self.solver.run(&mut self.ckt, opts, timing.step)?;

        // Collect outcomes.
        let mut polarizations = Vec::with_capacity(2 * self.width);
        let mut programmed_ok = true;
        for (i, handle) in self.cells.iter().enumerate() {
            let (want1, want2) = FeFetTcam::polarizations(word.get(i));
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
        if programmed_ok {
            self.stored = word.clone();
        }
        Ok(WriteOutcome {
            energy_total: result.total_supply_energy(),
            energy_switching: self.switching_energy() - e_sw_before,
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

    /// Ferroelectric switching energy dissipated so far by every FeFET.
    fn switching_energy(&self) -> f64 {
        self.fefet_devices()
            .iter()
            .map(|&d| {
                self.ckt
                    .device_ref::<FeFet>(d)
                    .expect("fefet design")
                    .switching_energy()
            })
            .sum()
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
        self.check_width(v_sl.len())?;
        self.check_width(v_slb.len())?;
        // Flat evaluation only (analog CAM rows are not segmented).
        let lines = v_sl
            .iter()
            .zip(v_slb)
            .map(|(&sl, &slb)| (evaluate_pulse(sl, timing), evaluate_pulse(slb, timing)))
            .collect();
        let stage = self.stage(0, lines, timing)?;
        Ok(self.fold(vec![stage]).0)
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

/// Builds match line `ml{index}` with the wire capacitance of `columns`
/// cells, a `VPRE{index}` rail at the design's precharge voltage, and a
/// precharge device clocked by pin `PREB{index}` (left idle). Returns the
/// ML node and the clock pin.
pub(crate) fn build_match_line(
    ckt: &mut Circuit,
    design: &dyn CellDesign,
    card: &TechCard,
    geometry: &Geometry,
    precharge: PrechargeKind,
    columns: usize,
    index: usize,
) -> Result<(NodeId, PinId), CellError> {
    let ml = ckt.node(&format!("ml{index}"));
    ckt.add_labeled(
        format!("c_ml_wire{index}"),
        Capacitor::new(
            ml,
            ckt.ground(),
            geometry.ml_wire_cap(design.area_f2(), columns),
        ),
    );
    let rail = ckt.node(&format!("vpre{index}"));
    let v_pre = design.ml_precharge_voltage(card);
    ckt.pin(rail, format!("VPRE{index}"), Waveform::dc(v_pre))?;
    let clk = ckt.node(&format!("preb{index}"));
    let idle = Waveform::dc(precharge.off_level(card.vdd));
    let clock = ckt.pin(clk, format!("PREB{index}"), idle)?;
    let params = match precharge {
        PrechargeKind::Pmos => card.pmos.scaled(geometry.precharge_width_mult),
        PrechargeKind::Nmos => card.nmos.scaled(geometry.precharge_width_mult),
    };
    // Drain on the rail, source on the ML for the PMOS orientation; the EKV
    // model is source/drain symmetric so the distinction only matters for
    // readability.
    ckt.add_labeled(format!("m_pre{index}"), Mosfet::new(params, rail, clk, ml));
    Ok((ml, clock))
}

/// Per-column `(SL, SLB)` driver pins and line nodes.
type SearchLines = (Vec<(PinId, PinId)>, Vec<(NodeId, NodeId)>);

/// Builds one SL/SLB pair per column: driver pin → driver resistance →
/// line node loaded by `line_cap` to ground.
pub(crate) fn build_search_lines(
    ckt: &mut Circuit,
    geometry: &Geometry,
    width: usize,
    line_cap: f64,
) -> Result<SearchLines, CellError> {
    let mut pins = Vec::with_capacity(width);
    let mut nodes = Vec::with_capacity(width);
    for i in 0..width {
        let mut line = |tag: &str| -> Result<(PinId, NodeId), CellError> {
            let drv = ckt.node(&format!("{tag}drv{i}"));
            let node = ckt.node(&format!("{tag}{i}"));
            let pin = ckt.pin(drv, format!("{}{i}", tag.to_uppercase()), Waveform::dc(0.0))?;
            ckt.add_labeled(
                format!("r_{tag}{i}"),
                Resistor::new(drv, node, geometry.sl_driver_resistance),
            );
            ckt.add_labeled(
                format!("c_{tag}wire{i}"),
                Capacitor::new(node, NodeId::GROUND, line_cap),
            );
            Ok((pin, node))
        };
        let (sl_pin, sl) = line("sl")?;
        let (slb_pin, slb) = line("slb")?;
        pins.push((sl_pin, slb_pin));
        nodes.push((sl, slb));
    }
    Ok((pins, nodes))
}

/// Builds one enable-gated footer per group of adjacent columns within each
/// segment, labelled `{prefix}{first column}`, and returns every column's
/// pull-down rail (ground without footers).
pub(crate) fn build_footers(
    ckt: &mut Circuit,
    card: &TechCard,
    geometry: &Geometry,
    footer: FooterStyle,
    segment_columns: &[Vec<usize>],
    width: usize,
    prefix: &str,
) -> Vec<NodeId> {
    let mut rails = vec![NodeId::GROUND; width];
    if let FooterStyle::SharedPerGroup(group) = footer {
        let en = ckt.node("en");
        for columns in segment_columns {
            for chunk in columns.chunks(group.max(1)) {
                let rail = ckt.fresh_node("footer_rail");
                let params = card.nmos.scaled(geometry.footer_width_mult);
                ckt.add_labeled(
                    format!("{prefix}{}", chunk[0]),
                    Mosfet::new(params, rail, en, ckt.ground()),
                );
                for &col in chunk {
                    rails[col] = rail;
                }
            }
        }
    }
    rails
}

/// Supply energy drawn over `[t0, t1]` by the `rails` precharge rails and
/// by the `width` SL/SLB drivers, as `(e_ml, e_sl)`.
pub(crate) fn window_energies(
    result: &TransientResult,
    rails: usize,
    width: usize,
    t0: f64,
    t1: f64,
) -> (f64, f64) {
    let energy = |pin: String| result.supply_energy_in(&pin, t0, t1).expect("pin exists");
    let e_ml = (0..rails).map(|s| energy(format!("VPRE{s}"))).sum();
    let e_sl = (0..width)
        .map(|i| energy(format!("SL{i}")) + energy(format!("SLB{i}")))
        .sum();
    (e_ml, e_sl)
}

/// The SL/SLB waveforms that search for query digit `q`: pulsed during
/// evaluation on return-to-zero designs, held otherwise.
pub(crate) fn drive_digit(
    design: &dyn CellDesign,
    card: &TechCard,
    q: Ternary,
    timing: &SearchTiming,
) -> (Waveform, Waveform) {
    let (v_sl, v_slb) = design.sl_levels(q, card);
    if design.features().sl_return_to_zero {
        (evaluate_pulse(v_sl, timing), evaluate_pulse(v_slb, timing))
    } else {
        (Waveform::dc(v_sl), Waveform::dc(v_slb))
    }
}

/// Low during both precharge phases and `v` during both evaluate phases.
pub(crate) fn evaluate_pulse(v: f64, timing: &SearchTiming) -> Waveform {
    two_cycle_pwl([0.0, v, 0.0, v], timing)
}

/// Builds a two-cycle piecewise-linear waveform over the four phases
/// `[precharge₁, evaluate₁, precharge₂, evaluate₂]`.
fn two_cycle_pwl(levels: [f64; 4], timing: &SearchTiming) -> Waveform {
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
            Box::new(FeFetTcam::ml_segmented(3)),
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
        // The analog search names the slice that has the wrong length.
        let err = row.search_analog(&[0.0; 4], &[0.0; 5], &SearchTiming::default());
        assert!(matches!(
            err,
            Err(CellError::WidthMismatch {
                expected: 4,
                got: 5
            })
        ));
    }
}
