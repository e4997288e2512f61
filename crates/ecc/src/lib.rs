//! Block error-correcting codes for nanophotonic interconnects.
//!
//! This crate implements the coding layer of the DAC'17 paper
//! *"Energy and Performance Trade-off in Nanophotonic Interconnects using
//! Coding Techniques"*: the Hamming code family used by the optical network
//! interfaces (H(7,4) and the shortened H(71,64)), plus a number of baseline
//! and extension codes (repetition, single parity check, extended
//! Hamming/SECDED, uncoded pass-through), the analytic bit-error-rate transfer
//! functions of Section IV-D, and a Monte-Carlo binary-symmetric-channel
//! harness to validate them.
//!
//! # Quick example
//!
//! ```
//! use onoc_ecc_codes::{BlockCode, hamming::HammingCode, scheme::EccScheme};
//!
//! // The paper's H(7,4): 4 data bits protected by 3 parity bits.
//! let code = HammingCode::new(3)?;
//! let data = [true, false, true, true];
//! let mut codeword = code.encode(&data)?;
//!
//! // Flip any single bit: the decoder corrects it.
//! codeword[5] = !codeword[5];
//! let decoded = code.decode(&codeword)?;
//! assert_eq!(decoded.data, data);
//! assert!(decoded.corrected_error);
//!
//! // The scheme registry exposes the exact configurations of the paper.
//! let h7164 = EccScheme::Hamming7164;
//! assert_eq!(h7164.block_length(), 71);
//! assert_eq!(h7164.message_length(), 64);
//! # Ok::<(), onoc_ecc_codes::CodeError>(())
//! ```
//!
//! # Modules
//!
//! * [`bits`] — a compact bit-vector and bit-twiddling helpers.
//! * [`code`] — the [`BlockCode`] trait and decode outcome types.
//! * [`hamming`] — perfect Hamming codes H(2^m−1, 2^m−1−m).
//! * [`shortened`] — shortened Hamming codes such as H(71,64).
//! * [`extended`] — extended Hamming (SECDED) codes.
//! * [`repetition`], [`parity`], [`uncoded`] — baselines.
//! * [`ber`] — analytic BER transfer functions (Eq. 2 of the paper).
//! * [`monte_carlo`] — binary-symmetric-channel simulation.
//! * [`scheme`] — the [`scheme::EccScheme`] registry used by the rest of the
//!   workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod bits;
pub mod code;
pub mod extended;
pub mod hamming;
pub mod monte_carlo;
pub mod parity;
pub mod repetition;
pub mod scheme;
pub mod shortened;
pub mod uncoded;

pub use ber::{coded_ber, raw_ber_for_target, CodePerformance};
pub use bits::BitBlock;
pub use code::{BlockCode, CodeError, DecodeOutcome};
pub use extended::ExtendedHammingCode;
pub use hamming::HammingCode;
pub use parity::ParityCheckCode;
pub use repetition::RepetitionCode;
pub use scheme::EccScheme;
pub use shortened::ShortenedHammingCode;
pub use uncoded::UncodedPassthrough;
