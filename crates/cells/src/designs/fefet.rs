//! The 2-FeFET TCAM cell and the paper's energy-aware variants of it.
//!
//! Two FeFETs in parallel pull the match line down; the stored digit is the
//! pair of polarization states:
//!
//! ```text
//!        ML ──┬─[Fe1 g=SL]──── rail
//!             └─[Fe2 g=SL̄]──── rail      (rail = GND, or a gated footer)
//! ```
//!
//! Encoding: store `1` → `Fe1` high-V_th, `Fe2` low-V_th; store `0` →
//! mirrored; store `X` → both high-V_th. A mismatch drives the gate of the
//! low-V_th FeFET high, discharging the ML; a match only ever raises the
//! gate of a high-V_th device, which stays off. Search is non-destructive
//! because read voltages sit far below the switching threshold (see
//! `ftcam-devices::ferro`).
//!
//! Every variant stores and programs the cell identically and differs only
//! in how the match-line and search-line energy is spent:
//!
//! * [`FeFetTcam::two_fefet`] — the state-of-the-art baseline.
//! * [`FeFetTcam::low_swing`] — precharge the ML to `V_pre = α·V_DD`
//!   instead of `V_DD`. ML energy per (dis)charge drops from `C·V_DD²` to
//!   `C·V_pre²` (quadratic in α) at the cost of a smaller sense margin and
//!   a slightly earlier/skewed sense. An NMOS precharge device with a
//!   boosted clock sets the low rail without a threshold drop.
//! * [`FeFetTcam::sl_gated`] — the "2.25T" cell: four adjacent cells share
//!   one footer NMOS gated by a search-enable. With the discharge path
//!   gated, search lines no longer need to return to zero every cycle; SL
//!   energy becomes proportional to the *query toggle rate* instead of the
//!   query width (measured by `ftcam_workloads::ToggleStats`).
//! * [`FeFetTcam::ml_segmented`] — the ML is split into `k` segments
//!   evaluated hierarchically; a mismatch in an early segment terminates
//!   the search for that row, so the common case (almost every row
//!   mismatches almost every query) never spends energy on later segments.
//! * [`FeFetTcam::full`] — low-swing (α = 0.5) + SL-gating combined (the
//!   headline design).

use ftcam_circuit::Circuit;
use ftcam_devices::{FeFet, TechCard};
use ftcam_workloads::Ternary;

use crate::design::{
    CellDesign, CellHandle, CellSite, DesignKind, DeviceCount, FooterStyle, RowFeatures,
};
use crate::geometry::Geometry;

/// The 2-FeFET TCAM cell design, plain or with the energy-aware techniques.
#[derive(Debug, Clone)]
pub struct FeFetTcam {
    kind: DesignKind,
    alpha: f64,
    features: RowFeatures,
}

impl FeFetTcam {
    fn new(kind: DesignKind, alpha: f64, footer: FooterStyle, segments: usize) -> Self {
        Self {
            kind,
            alpha,
            features: RowFeatures {
                footer,
                segments,
                // A gated footer is what lets search lines hold their levels.
                sl_return_to_zero: footer == FooterStyle::None,
            },
        }
    }

    /// The 2-FeFET baseline cell.
    pub fn two_fefet() -> Self {
        Self::new(DesignKind::FeFet2T, 1.0, FooterStyle::None, 1)
    }

    /// Low-swing match line with precharge fraction `alpha`
    /// (`V_pre = α·V_DD`).
    ///
    /// # Panics
    ///
    /// Panics unless `0.2 ≤ alpha ≤ 1.0`.
    pub fn low_swing(alpha: f64) -> Self {
        assert!((0.2..=1.0).contains(&alpha), "alpha out of range: {alpha}");
        Self::new(DesignKind::EaLowSwing, alpha, FooterStyle::None, 1)
    }

    /// Search-line-gated "2.25T" cell.
    pub fn sl_gated() -> Self {
        Self::new(
            DesignKind::EaSlGated,
            1.0,
            FooterStyle::SharedPerGroup(4),
            1,
        )
    }

    /// Segmented match line with `segments` hierarchical segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn ml_segmented(segments: usize) -> Self {
        assert!(segments >= 1, "need at least one segment");
        Self::new(DesignKind::EaMlSegmented, 1.0, FooterStyle::None, segments)
    }

    /// Low-swing (α = 0.5) and SL-gating combined.
    pub fn full() -> Self {
        Self::new(DesignKind::EaFull, 0.5, FooterStyle::SharedPerGroup(4), 1)
    }

    /// The precharge fraction α (1 for full-swing variants).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Normalised polarizations `(p1, p2)` encoding a stored digit
    /// (`+1` = low V_th / conducting, `−1` = high V_th / blocking).
    pub(crate) fn polarizations(bit: Ternary) -> (f64, f64) {
        match bit {
            Ternary::One => (-1.0, 1.0),
            Ternary::Zero => (1.0, -1.0),
            Ternary::X => (-1.0, -1.0),
        }
    }

    /// Name, device-label tag, area (F²) and per-cell device count.
    fn profile(&self) -> (&'static str, &'static str, f64, DeviceCount) {
        let pair = DeviceCount {
            fefet: 2.0,
            ..DeviceCount::default()
        };
        // A footer shared between four cells adds a quarter NMOS; segment
        // precharge/sense overhead amortises to a tenth of a PMOS.
        let footer = DeviceCount { nmos: 0.25, ..pair };
        match self.kind {
            DesignKind::FeFet2T => ("2-FeFET", "f2t", 260.0, pair),
            DesignKind::EaLowSwing => ("EA-LS (low-swing ML)", "eals", 260.0, pair),
            DesignKind::EaSlGated => ("EA-SLG (SL-gated 2.25T)", "easlg", 285.0, footer),
            DesignKind::EaMlSegmented => (
                "EA-MLS (segmented ML)",
                "eamls",
                280.0,
                DeviceCount { pmos: 0.1, ..pair },
            ),
            DesignKind::EaFull => ("EA-Full (low-swing + SL-gated)", "eafull", 285.0, footer),
            DesignKind::Cmos16T | DesignKind::Rram2T2R => {
                unreachable!("FeFetTcam is only constructed for FeFET kinds")
            }
        }
    }
}

impl CellDesign for FeFetTcam {
    fn kind(&self) -> DesignKind {
        self.kind
    }

    fn name(&self) -> &str {
        self.profile().0
    }

    fn device_count(&self) -> DeviceCount {
        self.profile().3
    }

    fn area_f2(&self) -> f64 {
        self.profile().2
    }

    fn features(&self) -> RowFeatures {
        self.features
    }

    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        _geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle {
        let (tag, i) = (self.profile().1, site.index);
        let fe1 = ckt.add_labeled(
            format!("{tag}.fe1.{i}"),
            FeFet::new(card.fefet.clone(), site.ml, site.sl, site.source_rail),
        );
        let fe2 = ckt.add_labeled(
            format!("{tag}.fe2.{i}"),
            FeFet::new(card.fefet.clone(), site.ml, site.slb, site.source_rail),
        );
        CellHandle {
            devices: vec![fe1, fe2],
            pins: Vec::new(),
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, _card: &TechCard, bit: Ternary) {
        let (p1, p2) = Self::polarizations(bit);
        for (&device, p) in handle.devices.iter().zip([p1, p2]) {
            ckt.device_mut::<FeFet>(device)
                .expect("handle holds a FeFET")
                .set_polarization(p);
        }
    }

    fn ml_precharge_voltage(&self, card: &TechCard) -> f64 {
        self.alpha * card.vdd
    }

    fn supports_transient_write(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_turns_on_the_mismatch_device() {
        // Stored 1, searched 0: SLB goes high → Fe2 must be low-V_th.
        assert_eq!(FeFetTcam::polarizations(Ternary::One), (-1.0, 1.0));
        // Stored X never conducts.
        assert_eq!(FeFetTcam::polarizations(Ternary::X), (-1.0, -1.0));
    }

    #[test]
    fn two_devices_no_pins() {
        let d = FeFetTcam::two_fefet();
        assert_eq!(d.device_count().total(), 2.0);
        assert!(d.supports_transient_write());
    }

    #[test]
    fn low_swing_scales_precharge_voltage() {
        let card = TechCard::hp45();
        let d = FeFetTcam::low_swing(0.5);
        assert!((d.ml_precharge_voltage(&card) - 0.4).abs() < 1e-12);
        assert!((d.sense_threshold(&card) - 0.2).abs() < 1e-12);
        assert_eq!(FeFetTcam::two_fefet().ml_precharge_voltage(&card), card.vdd);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn low_swing_rejects_tiny_alpha() {
        let _ = FeFetTcam::low_swing(0.1);
    }

    #[test]
    fn slg_features_gate_search_lines() {
        let f = FeFetTcam::sl_gated().features();
        assert_eq!(f.footer, FooterStyle::SharedPerGroup(4));
        assert!(!f.sl_return_to_zero);
    }

    #[test]
    fn segmented_reports_segments() {
        let f = FeFetTcam::ml_segmented(4).features();
        assert_eq!(f.segments, 4);
        assert!(f.sl_return_to_zero);
    }

    #[test]
    fn full_combines_both_techniques() {
        let card = TechCard::hp45();
        let d = FeFetTcam::full();
        assert_eq!(d.alpha(), 0.5);
        assert!(d.ml_precharge_voltage(&card) < card.vdd);
        assert!(!d.features().sl_return_to_zero);
    }
}
