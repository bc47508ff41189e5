//! Configuration of the CPRecycle receiver.

use crate::estimator::ModelBackend;

/// Which decoder runs the subcarrier-decision stage (paper §3–§4): the receiver
/// pipeline — sync → extract → **decide** → bit pipeline — is identical for every
/// variant; only the [`SubcarrierDecoder`] dispatched per symbol changes.
///
/// Because the stage is part of [`CpRecycleConfig`], it flows into the campaign
/// engine's point keys: one campaign sweeps decoders alongside SNR and `P`, and
/// `campaign list`/`replay` print which decoder each arm ran.
///
/// ```
/// use cprecycle::{CpRecycleConfig, CpRecycleReceiver, DecisionStage};
/// use ofdmphy::params::OfdmParams;
///
/// // The default is the paper's fixed-sphere ML decoder at R = 2 minimum distances…
/// let sphere = CpRecycleConfig::default();
/// assert!(matches!(
///     sphere.decision,
///     DecisionStage::Sphere { radius_min_distances } if radius_min_distances == 2.0
/// ));
///
/// // …and any other stage is one builder call away: the same receiver, frame layout
/// // and bit pipeline, with the naive Eq. 3 decoder (or `Oracle`, or `Standard`)
/// // slotted into the decision stage.
/// let naive = CpRecycleConfig::builder()
///     .decision(DecisionStage::Naive)
///     .build();
/// let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), naive);
/// assert_eq!(rx.config().decision.label(), "Naive");
/// ```
///
/// [`SubcarrierDecoder`]: crate::decision::SubcarrierDecoder
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionStage {
    /// Fixed-sphere ML over all `P` observations, scored by the preamble-trained
    /// interference model (§4.2, Eq. 5) — the paper's receiver and the default.
    Sphere {
        /// Sphere radius `R` in units of the constellation's minimum distance.
        radius_min_distances: f64,
    },
    /// Minimum average Euclidean distance over all `P` observations (§3.3, Eq. 3 —
    /// the ShiftFFT strawman; [`crate::decision::NaiveCentroidDecoder`]).
    Naive,
    /// Genie-aided best-segment selection from the interference-only waveform (§3.2;
    /// [`crate::decision::OracleSegmentDecoder`]). Requires the interference-only
    /// capture in [`FrameInput::genie`](ofdmphy::rx::FrameInput::genie).
    Oracle,
    /// Nearest lattice point on the standard FFT window only
    /// ([`crate::decision::StandardNearestDecoder`]) — the conventional receiver's
    /// decision, as an explicit arm for decoder sweeps.
    Standard,
}

impl Default for DecisionStage {
    fn default() -> Self {
        DecisionStage::Sphere {
            radius_min_distances: 2.0,
        }
    }
}

impl DecisionStage {
    /// Short human-readable name ("Sphere(R=2)", "Naive", …), used in campaign arm
    /// labels and reports.
    pub fn label(&self) -> String {
        match self {
            DecisionStage::Sphere {
                radius_min_distances,
            } => format!("Sphere(R={radius_min_distances})"),
            DecisionStage::Naive => "Naive".into(),
            DecisionStage::Oracle => "Oracle".into(),
            DecisionStage::Standard => "Standard".into(),
        }
    }

    /// Static stage-family name ("Sphere", "Naive", …) without the tuning
    /// parameters [`label`](Self::label) appends — the allocation-free key the
    /// observability layer uses for its stage spans.
    pub fn kind_label(&self) -> &'static str {
        match self {
            DecisionStage::Sphere { .. } => "Sphere",
            DecisionStage::Naive => "Naive",
            DecisionStage::Oracle => "Oracle",
            DecisionStage::Standard => "Standard",
        }
    }

    /// Whether this stage scores candidates with the preamble-trained interference
    /// model (and the receiver therefore needs to train one).
    pub fn needs_interference_model(&self) -> bool {
        matches!(self, DecisionStage::Sphere { .. })
    }

    /// Whether this stage needs the genie interference-only capture.
    pub fn needs_genie(&self) -> bool {
        matches!(self, DecisionStage::Oracle)
    }
}

/// Floor on the amplitude-axis kernel bandwidth, in units of the unit-power
/// constellation scale. Protects the model against degenerate densities when the
/// preamble happens to be almost interference-free (all deviations ≈ 0): without a
/// floor the KDE collapses to a spike and every data-symbol likelihood underflows.
pub const MIN_BANDWIDTH_AMPLITUDE: f64 = 0.05;

/// Floor on the phase-axis kernel bandwidth, in radians (see
/// [`MIN_BANDWIDTH_AMPLITUDE`] for the rationale; the phase of a near-zero error
/// vector is numerically meaningless, so an un-floored phase bandwidth is even more
/// fragile).
pub const MIN_BANDWIDTH_PHASE: f64 = 0.2;

/// Tuning knobs of the CPRecycle receiver (the paper's `B_φ`, `R` and `P`
/// parameters from Algorithm 1). The amplitude bandwidth `B_a` is always selected
/// by leave-one-out cross-validation (§4.1), floored at [`MIN_BANDWIDTH_AMPLITUDE`].
///
/// The struct is `#[non_exhaustive]`: fields get added as the receiver grows (the
/// decision stage and the estimator backend both came late), and every addition
/// used to break every external struct-literal construction site. Downstream crates construct configurations through
/// [`CpRecycleConfig::builder`] (or the `with_*` one-field conveniences), which stay
/// source-compatible across field additions:
///
/// ```
/// use cprecycle::{CpRecycleConfig, DecisionStage};
///
/// let config = CpRecycleConfig::builder()
///     .num_segments(8)
///     .decision(DecisionStage::Naive)
///     .build();
/// assert_eq!(config.num_segments, 8);
/// assert_eq!(config.decision, DecisionStage::Naive);
/// // Untouched knobs keep their defaults.
/// assert_eq!(config.model, CpRecycleConfig::default().model);
/// ```
#[derive(Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct CpRecycleConfig {
    /// Maximum number of FFT segments `P` to use per symbol. The effective number is
    /// `min(num_segments, ISI-free samples + 1)`; tuning this down trades interference
    /// mitigation for computation (paper Fig. 14) and `1` degrades gracefully to the
    /// standard receiver.
    pub num_segments: usize,
    /// Phase-axis kernel bandwidth `B_φ`. `None` selects it from the preamble data by
    /// leave-one-out cross-validation, floored at [`MIN_BANDWIDTH_PHASE`].
    pub bandwidth_phase: Option<f64>,
    /// The subcarrier-decision stage the receiver dispatches per symbol: the paper's
    /// fixed-sphere ML decoder (with its radius `R`), the naive Eq. 3 decoder, the
    /// genie-aided Oracle or the conventional standard-window decision.
    pub decision: DecisionStage,
    /// Assumed ISI-free samples in the CP when the receiver is told rather than
    /// detecting it (e.g. from a long-term delay-spread estimate). `None` means "use the
    /// whole CP", the correct choice for the indoor delay spreads the paper targets.
    pub isi_free_samples: Option<usize>,
    /// Which interference-estimator backend the receiver fits from the preamble
    /// ([`crate::estimator`]): the paper's exact per-sample kernel sum (default, the
    /// reference), the precomputed log-likelihood grid with O(1) lookups, or the cheap
    /// parametric Gaussian fit. Like the decision stage, the backend is part of every
    /// campaign point key, so estimator sweeps are ordinary grid dimensions.
    pub model: ModelBackend,
}

// Hand-written because campaign point keys embed this Debug representation
// (`scenarios::LinkPoint::key`) and every trial seed hashes the key: the output
// must stay byte-identical to what earlier versions printed. Entries for knobs
// that became constants keep printing their one value: `extraction: Sliding`
// (the sliding DFT is the only extraction kernel), `bandwidth_amplitude: None`
// and `data_driven_bandwidth: true` (B_a is always leave-one-out) and the two
// bandwidth floors. Dropping any of them would re-key and re-seed every existing
// campaign. Keep the field order in sync with the struct.
impl std::fmt::Debug for CpRecycleConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpRecycleConfig")
            .field("num_segments", &self.num_segments)
            .field("bandwidth_amplitude", &None::<f64>)
            .field("bandwidth_phase", &self.bandwidth_phase)
            .field("data_driven_bandwidth", &true)
            .field("decision", &self.decision)
            .field("isi_free_samples", &self.isi_free_samples)
            .field("min_bandwidth_amplitude", &MIN_BANDWIDTH_AMPLITUDE)
            .field("min_bandwidth_phase", &MIN_BANDWIDTH_PHASE)
            .field("extraction", &format_args!("Sliding"))
            .field("model", &self.model)
            .finish()
    }
}

impl Default for CpRecycleConfig {
    fn default() -> Self {
        CpRecycleConfig {
            num_segments: 16,
            bandwidth_phase: None,
            decision: DecisionStage::default(),
            isi_free_samples: None,
            model: ModelBackend::default(),
        }
    }
}

impl CpRecycleConfig {
    /// A builder starting from the default configuration — the construction path for
    /// code outside this crate (the struct is `#[non_exhaustive]`, so struct literals
    /// don't compose across field additions).
    pub fn builder() -> CpRecycleConfigBuilder {
        CpRecycleConfigBuilder::new()
    }

    /// A configuration with a fixed number of segments (used by the Fig. 14 sweep).
    pub fn with_segments(num_segments: usize) -> Self {
        CpRecycleConfig {
            num_segments,
            ..Default::default()
        }
    }

    /// A configuration with an explicit decision stage (used by the decoder sweeps).
    pub fn with_decision(decision: DecisionStage) -> Self {
        CpRecycleConfig {
            decision,
            ..Default::default()
        }
    }

    /// A configuration with an explicit interference-estimator backend (used by the
    /// `models` campaign sweep).
    pub fn with_model(model: ModelBackend) -> Self {
        CpRecycleConfig {
            model,
            ..Default::default()
        }
    }
}

/// Builder for [`CpRecycleConfig`]: each method overrides one knob, everything else
/// keeps its default. Unlike struct literals with functional update, the builder keeps
/// compiling (and keeps meaning the same thing) when new fields are added to the
/// config — see the PR 3/PR 4 churn the `#[non_exhaustive]` note on the struct
/// describes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpRecycleConfigBuilder {
    config: CpRecycleConfig,
}

impl CpRecycleConfigBuilder {
    /// A builder holding the default configuration.
    pub fn new() -> Self {
        CpRecycleConfigBuilder::default()
    }

    /// Sets the maximum number of FFT segments `P`.
    pub fn num_segments(mut self, num_segments: usize) -> Self {
        self.config.num_segments = num_segments;
        self
    }

    /// Fixes the phase-axis kernel bandwidth `B_φ` (`None` = select from data).
    pub fn bandwidth_phase(mut self, bandwidth: Option<f64>) -> Self {
        self.config.bandwidth_phase = bandwidth;
        self
    }

    /// Sets the subcarrier-decision stage.
    pub fn decision(mut self, decision: DecisionStage) -> Self {
        self.config.decision = decision;
        self
    }

    /// Tells the receiver how many ISI-free CP samples to assume (`None` = whole CP).
    pub fn isi_free_samples(mut self, isi_free_samples: Option<usize>) -> Self {
        self.config.isi_free_samples = isi_free_samples;
        self
    }

    /// Selects the interference-estimator backend.
    pub fn model(mut self, model: ModelBackend) -> Self {
        self.config.model = model;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CpRecycleConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_whole_cp_and_data_driven_bandwidths() {
        let c = CpRecycleConfig::default();
        assert_eq!(c.num_segments, 16);
        assert!(c.isi_free_samples.is_none());
        assert!(c.bandwidth_phase.is_none());
    }

    #[test]
    fn with_segments_overrides_only_p() {
        let c = CpRecycleConfig::with_segments(4);
        assert_eq!(c.num_segments, 4);
        assert_eq!(c.decision, CpRecycleConfig::default().decision);
    }

    #[test]
    fn with_decision_overrides_only_the_stage() {
        let c = CpRecycleConfig::with_decision(DecisionStage::Oracle);
        assert_eq!(c.decision, DecisionStage::Oracle);
        assert_eq!(c.num_segments, CpRecycleConfig::default().num_segments);
    }

    #[test]
    fn with_model_overrides_only_the_backend() {
        assert_eq!(CpRecycleConfig::default().model, ModelBackend::ExactKde);
        let c = CpRecycleConfig::with_model(ModelBackend::GridKde);
        assert_eq!(c.model, ModelBackend::GridKde);
        assert_eq!(c.decision, CpRecycleConfig::default().decision);
        assert_eq!(c.num_segments, CpRecycleConfig::default().num_segments);
    }

    #[test]
    fn decision_stage_labels_and_requirements() {
        assert_eq!(DecisionStage::default().label(), "Sphere(R=2)");
        assert_eq!(
            DecisionStage::Sphere {
                radius_min_distances: 0.5
            }
            .label(),
            "Sphere(R=0.5)"
        );
        assert_eq!(DecisionStage::Naive.label(), "Naive");
        assert_eq!(DecisionStage::Oracle.label(), "Oracle");
        assert_eq!(DecisionStage::Standard.label(), "Standard");
        assert_eq!(DecisionStage::default().kind_label(), "Sphere");
        assert_eq!(DecisionStage::Naive.kind_label(), "Naive");
        assert_eq!(DecisionStage::Oracle.kind_label(), "Oracle");
        assert_eq!(DecisionStage::Standard.kind_label(), "Standard");
        assert!(DecisionStage::default().needs_interference_model());
        assert!(!DecisionStage::Naive.needs_interference_model());
        assert!(DecisionStage::Oracle.needs_genie());
        assert!(!DecisionStage::Standard.needs_genie());
    }

    #[test]
    fn builder_overrides_compose_and_default_to_default() {
        assert_eq!(
            CpRecycleConfig::builder().build(),
            CpRecycleConfig::default()
        );
        let c = CpRecycleConfig::builder()
            .num_segments(4)
            .bandwidth_phase(Some(0.7))
            .decision(DecisionStage::Oracle)
            .isi_free_samples(Some(9))
            .model(crate::estimator::ModelBackend::Gaussian)
            .build();
        assert_eq!(c.num_segments, 4);
        assert_eq!(c.bandwidth_phase, Some(0.7));
        assert_eq!(c.decision, DecisionStage::Oracle);
        assert_eq!(c.isi_free_samples, Some(9));
        assert_eq!(c.model, crate::estimator::ModelBackend::Gaussian);
        // The builder agrees with the one-field conveniences.
        assert_eq!(
            CpRecycleConfig::builder().num_segments(7).build(),
            CpRecycleConfig::with_segments(7)
        );
        assert_eq!(
            CpRecycleConfig::builder()
                .decision(DecisionStage::Naive)
                .build(),
            CpRecycleConfig::with_decision(DecisionStage::Naive)
        );
    }
}
