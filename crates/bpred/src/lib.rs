//! # fgstp-bpred
//!
//! Branch-prediction substrate for the Fg-STP reproduction: direction
//! predictors (bimodal, gshare and a tournament combiner), a branch target
//! buffer and a return-address stack — the predictor family used by the
//! paper-era out-of-order cores.
//!
//! Direction predictors implement the [`DirectionPredictor`] trait so core
//! configurations can select one by name ([`PredictorKind`]).
//!
//! ```
//! use fgstp_bpred::{DirectionPredictor, Gshare};
//!
//! let mut p = Gshare::new(12);
//! // A strongly biased branch becomes predictable after training.
//! for _ in 0..8 { p.update(0x40, true); }
//! assert!(p.predict(0x40));
//! ```

pub mod btb;
pub mod direction;
pub mod ras;

pub use btb::Btb;
pub use direction::{Bimodal, DirectionPredictor, Gshare, PredictorKind, Tournament};
pub use ras::ReturnStack;
