//! FFT-based band-limited resampling.
//!
//! The paper's detection pipeline (Sect. IV, step 1) upsamples the raw
//! 1016-tap CIR "using fast Fourier transform in order to obtain a smoother
//! signal". [`upsample_fft`] implements exactly that: transform, zero-pad the
//! spectrum symmetrically around Nyquist, and inverse-transform at the larger
//! size. Original samples are preserved exactly (up to numerical error) at
//! indices `k·factor`.

use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::error::DspError;
use crate::plan::DspContext;

/// Upsamples a complex signal by an integer factor using FFT zero-padding.
///
/// The output has length `signal.len() * factor` and satisfies
/// `output[k * factor] ≈ signal[k]`.
///
/// # Errors
///
/// - [`DspError::EmptyInput`] when `signal` is empty.
/// - [`DspError::InvalidFactor`] when `factor` is zero.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{upsample_fft, Complex64};
/// # fn main() -> Result<(), uwb_dsp::DspError> {
/// let signal: Vec<Complex64> = (0..8)
///     .map(|i| Complex64::from_real((i as f64 * 0.7).sin()))
///     .collect();
/// let up = upsample_fft(&signal, 4)?;
/// assert_eq!(up.len(), 32);
/// assert!((up[8].re - signal[2].re).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn upsample_fft(signal: &[Complex64], factor: usize) -> Result<Vec<Complex64>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if factor == 0 {
        return Err(DspError::InvalidFactor { factor });
    }
    if factor == 1 {
        return Ok(signal.to_vec());
    }
    let n = signal.len();
    let m = n * factor;

    let mut spectrum = signal.to_vec();
    BluesteinPlan::new(n)?.forward(&mut spectrum);

    // Insert zeros around the Nyquist frequency. For even n the Nyquist bin
    // is split in half between the positive and negative sides to keep the
    // interpolated signal consistent with a real-valued original.
    let mut padded = vec![Complex64::ZERO; m];
    let half = n / 2;
    if n.is_multiple_of(2) {
        padded[..half].copy_from_slice(&spectrum[..half]);
        let nyq = spectrum[half].scale(0.5);
        padded[half] = nyq;
        padded[m - half] = nyq;
        padded[m - half + 1..].copy_from_slice(&spectrum[half + 1..]);
    } else {
        // Odd n: positive bins 0..=half, negative bins half+1..n.
        padded[..=half].copy_from_slice(&spectrum[..=half]);
        padded[m - half..].copy_from_slice(&spectrum[half + 1..]);
    }

    BluesteinPlan::new(m)?.inverse(&mut padded);
    let scale = factor as f64;
    for z in padded.iter_mut() {
        *z = z.scale(scale);
    }
    Ok(padded)
}

/// Planned variant of [`upsample_fft`]: writes the upsampled signal into
/// `out`, drawing cached Bluestein plans and working buffers from `ctx`.
/// Bit-identical to `upsample_fft`; in steady state the call allocates
/// nothing.
///
/// # Errors
///
/// Same conditions as [`upsample_fft`].
pub fn upsample_fft_into(
    signal: &[Complex64],
    factor: usize,
    out: &mut Vec<Complex64>,
    ctx: &mut DspContext,
) -> Result<(), DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if factor == 0 {
        return Err(DspError::InvalidFactor { factor });
    }
    if factor == 1 {
        out.clear();
        out.extend_from_slice(signal);
        return Ok(());
    }
    let n = signal.len();
    let m = n * factor;

    let forward = ctx.plans.bluestein(n)?;
    let inverse = ctx.plans.bluestein(m)?;

    let mut spectrum = ctx.scratch.acquire();
    spectrum.extend_from_slice(signal);
    forward.forward_with(&mut spectrum, &mut ctx.scratch);

    // Same Nyquist-split layout as `upsample_fft`.
    out.clear();
    out.resize(m, Complex64::ZERO);
    let half = n / 2;
    if n.is_multiple_of(2) {
        out[..half].copy_from_slice(&spectrum[..half]);
        let nyq = spectrum[half].scale(0.5);
        out[half] = nyq;
        out[m - half] = nyq;
        out[m - half + 1..].copy_from_slice(&spectrum[half + 1..]);
    } else {
        // Odd n: positive bins 0..=half, negative bins half+1..n.
        out[..=half].copy_from_slice(&spectrum[..=half]);
        out[m - half..].copy_from_slice(&spectrum[half + 1..]);
    }
    ctx.scratch.release(spectrum);

    inverse.inverse_with(out, &mut ctx.scratch);
    let scale = factor as f64;
    for z in out.iter_mut() {
        *z = z.scale(scale);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_zero_factor() {
        assert!(matches!(upsample_fft(&[], 2), Err(DspError::EmptyInput)));
        assert!(matches!(
            upsample_fft(&[Complex64::ONE], 0),
            Err(DspError::InvalidFactor { factor: 0 })
        ));
    }

    #[test]
    fn factor_one_is_identity() {
        let signal = vec![Complex64::new(1.0, 2.0), Complex64::new(-0.5, 0.0)];
        assert_eq!(upsample_fft(&signal, 1).unwrap(), signal);
    }

    #[test]
    fn preserves_original_samples() {
        for &n in &[8usize, 15, 127, 254] {
            let signal: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.21).sin(), (i as f64 * 0.34).cos()))
                .collect();
            for &factor in &[2usize, 4, 8] {
                let up = upsample_fft(&signal, factor).unwrap();
                assert_eq!(up.len(), n * factor);
                for (k, &orig) in signal.iter().enumerate() {
                    assert!(
                        (up[k * factor] - orig).abs() < 1e-8,
                        "n={n} factor={factor} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn interpolates_band_limited_sinusoid_exactly() {
        // A sinusoid below Nyquist must be reconstructed exactly between
        // samples by ideal band-limited interpolation.
        let n = 64;
        let freq = 3.0; // cycles per n samples, well below Nyquist
        let signal: Vec<Complex64> = (0..n)
            .map(|i| {
                Complex64::from_real(
                    (2.0 * std::f64::consts::PI * freq * i as f64 / n as f64).cos(),
                )
            })
            .collect();
        let factor = 4;
        let up = upsample_fft(&signal, factor).unwrap();
        for (j, z) in up.iter().enumerate() {
            let t = j as f64 / factor as f64;
            let expected = (2.0 * std::f64::consts::PI * freq * t / n as f64).cos();
            assert!((z.re - expected).abs() < 1e-8, "j={j}");
            assert!(z.im.abs() < 1e-8);
        }
    }

    #[test]
    fn upsample_into_matches_allocating_path_bitwise() {
        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        // Even, odd, and the DW1000 CIR length; factors incl. the paper's 8.
        for &n in &[8usize, 15, 254, 1016] {
            let signal: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.21).sin(), (i as f64 * 0.34).cos()))
                .collect();
            for &factor in &[1usize, 2, 8] {
                let reference = upsample_fft(&signal, factor).unwrap();
                upsample_fft_into(&signal, factor, &mut out, &mut ctx).unwrap();
                assert_eq!(out, reference, "n={n} factor={factor}");
                // Warm-context second pass: still bit-identical.
                upsample_fft_into(&signal, factor, &mut out, &mut ctx).unwrap();
                assert_eq!(out, reference, "warm n={n} factor={factor}");
            }
        }
        assert!(matches!(
            upsample_fft_into(&[], 2, &mut out, &mut ctx),
            Err(DspError::EmptyInput)
        ));
        assert!(matches!(
            upsample_fft_into(&[Complex64::ONE], 0, &mut out, &mut ctx),
            Err(DspError::InvalidFactor { factor: 0 })
        ));
    }
}
