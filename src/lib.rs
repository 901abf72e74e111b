//! # IVN — In-Vivo Networking
//!
//! A faithful, laptop-scale reproduction of *"Enabling Deep-Tissue
//! Networking for Miniature Medical Devices"* (SIGCOMM 2018): the CIB
//! (coherently-incoherent beamforming) algorithm, a full physics and
//! protocol simulation substrate, and the harness that regenerates every
//! figure in the paper's evaluation.
//!
//! This facade crate re-exports the workspace crates under one namespace:
//!
//! * [`dsp`] — signal processing primitives
//! * [`em`] — tissue media, layered-body propagation, channels, antennas
//! * [`harvester`] — diode/rectifier energy-harvesting circuit models
//! * [`rfid`] — EPC Gen2 protocol: PIE, FM0, CRC, tag state machine
//! * [`sdr`] — software-radio testbed simulation (PLLs, clocks, PAs)
//! * [`core`] — CIB beamforming, frequency selection, baselines, the
//!   out-of-band reader, and the end-to-end [`core::system::IvnSystem`]
//! * [`runtime`] — the zero-dependency substrate: seeded RNG streams,
//!   persistent worker pool, JSON, property testing and the bench harness
//!
//! ## Quickstart
//!
//! ```
//! use ivn::core::waveform::CibEnvelope;
//!
//! // The canonical IVN frequency plan from the paper's prototype (§5).
//! let offsets = [0.0, 7.0, 20.0, 49.0, 68.0, 73.0, 90.0, 113.0, 121.0, 137.0];
//! let env = CibEnvelope::new(&offsets, &[0.0; 10]);
//! // With aligned phases the envelope peaks at N = 10 (power gain N² = 100).
//! assert!((env.peak_over_period(10_000).1 - 10.0).abs() < 1e-6);
//! ```

pub use ivn_core as core;
pub use ivn_dsp as dsp;
pub use ivn_em as em;
pub use ivn_harvester as harvester;
pub use ivn_rfid as rfid;
pub use ivn_runtime as runtime;
pub use ivn_sdr as sdr;
