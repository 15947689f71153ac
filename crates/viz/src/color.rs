//! Colours, the cold→hot metric scale, and the function-category palette.

use perfvar_trace::FunctionRole;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// An sRGB colour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Constructs a colour from channels.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Color {
        Color { r, g, b }
    }

    /// CSS hex form, e.g. `#1f77b4`.
    pub fn hex(&self) -> String {
        let mut out = String::with_capacity(7);
        self.push_hex(&mut out);
        out
    }

    /// Appends the CSS hex form to `out` without an intermediate
    /// `String` (the per-element path of the SVG writers).
    pub(crate) fn push_hex(&self, out: &mut String) {
        out.extend(self.hex_chars());
    }

    fn hex_chars(&self) -> [char; 7] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let nibble = |v: u8| DIGITS[v as usize] as char;
        [
            '#',
            nibble(self.r >> 4),
            nibble(self.r & 15),
            nibble(self.g >> 4),
            nibble(self.g & 15),
            nibble(self.b >> 4),
            nibble(self.b & 15),
        ]
    }

    /// Linear interpolation between two colours (`t` clamped to `[0,1]`).
    pub fn lerp(a: Color, b: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |x: u8, y: u8| -> u8 { (x as f64 + (y as f64 - x as f64) * t).round() as u8 };
        Color::rgb(mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b))
    }

    /// Perceived luminance in `[0, 255]` (Rec. 601 weights).
    pub fn luminance(&self) -> f64 {
        0.299 * self.r as f64 + 0.587 * self.g as f64 + 0.114 * self.b as f64
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.hex_chars().iter().try_for_each(|&c| f.write_char(c))
    }
}

/// The cold→hot diverging scale of the paper's §VI: blue (short / cold)
/// through white to red (long / hot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeatScale;

impl HeatScale {
    const COLD: Color = Color::rgb(0x1c, 0x4e, 0xc9); // deep blue
    const MID: Color = Color::rgb(0xf2, 0xf0, 0xeb); // warm white
    const HOT: Color = Color::rgb(0xc9, 0x1c, 0x1c); // deep red

    /// Colour for a normalised value `t ∈ [0, 1]` (clamped).
    pub fn color(&self, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        if t < 0.5 {
            Color::lerp(Self::COLD, Self::MID, t * 2.0)
        } else {
            Color::lerp(Self::MID, Self::HOT, (t - 0.5) * 2.0)
        }
    }
}

/// Maps raw metric values into `[0, 1]` for a [`HeatScale`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ColorScale {
    /// Value mapped to 0 (cold).
    pub min: f64,
    /// Value mapped to 1 (hot).
    pub max: f64,
}

impl ColorScale {
    /// A scale covering `[min, max]`.
    pub fn new(min: f64, max: f64) -> ColorScale {
        ColorScale { min, max }
    }

    /// Fits a scale to the given values; degenerates gracefully for
    /// empty or constant data.
    pub fn fit(values: impl IntoIterator<Item = f64>) -> ColorScale {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() || !max.is_finite() {
            return ColorScale::new(0.0, 1.0);
        }
        ColorScale::new(min, max)
    }

    /// Fits a scale to the *finite* values only. Metric vectors can
    /// legitimately contain NaN (0/0 imbalance ratios) or be constant
    /// (perfectly balanced runs); this constructor makes every such
    /// degenerate input normalise to the scale midpoint — neutral white —
    /// instead of painting the whole view cold:
    ///
    /// - infinities and NaN never widen the range,
    /// - all-equal or single-value inputs yield a constant scale
    ///   (`min == max`), where [`normalize`](ColorScale::normalize)
    ///   returns 0.5 for everything,
    /// - empty / all-NaN inputs do the same.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> ColorScale {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        if min > max {
            // No finite values at all: a constant scale at zero.
            return ColorScale::new(0.0, 0.0);
        }
        ColorScale::new(min, max)
    }

    /// Normalises `v` to `[0, 1]`; constant scales and non-finite values
    /// map to 0.5 (the neutral midpoint of a diverging [`HeatScale`]) so
    /// NaN can never leak into colour interpolation and masquerade as
    /// the cold end.
    pub fn normalize(&self, v: f64) -> f64 {
        if !v.is_finite() {
            return 0.5;
        }
        let range = self.max - self.min;
        if range <= f64::EPSILON {
            0.5
        } else {
            ((v - self.min) / range).clamp(0.0, 1.0)
        }
    }

    /// Shortcut: normalised heat colour of `v`.
    pub fn heat(&self, v: f64) -> Color {
        HeatScale.color(self.normalize(v))
    }
}

/// The categorical palette for function timelines, matching the paper's
/// Vampir conventions where possible: MPI activity is red; computation
/// phases get distinguishable non-red colours (the case studies mention
/// green COSMO, purple SPECS, yellow coupling, blue dynamics, brown
/// physics).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionPalette;

impl FunctionPalette {
    /// Colour of an MPI/synchronization role (red family, as in Vampir).
    pub fn role_color(&self, role: FunctionRole) -> Color {
        match role {
            FunctionRole::MpiCollective => Color::rgb(0xd6, 0x2b, 0x2b),
            FunctionRole::MpiPointToPoint => Color::rgb(0xe0, 0x4a, 0x3a),
            FunctionRole::MpiWait => Color::rgb(0xb8, 0x1d, 0x3d),
            FunctionRole::MpiIo => Color::rgb(0xd6, 0x6a, 0x2b),
            FunctionRole::MpiOther => Color::rgb(0xc9, 0x52, 0x52),
            FunctionRole::OmpSync => Color::rgb(0xd4, 0x3f, 0x6e),
            FunctionRole::FileIo => Color::rgb(0x8a, 0x6d, 0x3b),
            FunctionRole::Idle => Color::rgb(0xdd, 0xdd, 0xdd),
            // Compute / Other fall through to the per-function cycle.
            FunctionRole::Compute | FunctionRole::Other => Color::rgb(0x3c, 0x8c, 0x3c),
        }
    }

    /// Colour for a specific function: MPI-ish roles use the role colour;
    /// compute functions cycle through a categorical palette keyed by the
    /// function id, so different phases are distinguishable (green,
    /// purple, yellow, blue, brown, … as in the paper's screenshots).
    pub fn function_color(&self, function_index: usize, role: FunctionRole) -> Color {
        if !matches!(role, FunctionRole::Compute | FunctionRole::Other) {
            return self.role_color(role);
        }
        const CYCLE: [Color; 8] = [
            Color::rgb(0x3c, 0x8c, 0x3c), // green (COSMO)
            Color::rgb(0x7d, 0x4f, 0xb3), // purple (SPECS)
            Color::rgb(0xd9, 0xc0, 0x2f), // yellow (coupling)
            Color::rgb(0x2f, 0x6f, 0xd9), // blue (dyn core)
            Color::rgb(0x8c, 0x5a, 0x2b), // brown (physics)
            Color::rgb(0x2b, 0x8c, 0x8c), // teal
            Color::rgb(0x6b, 0x8e, 0x23), // olive
            Color::rgb(0x4f, 0x4f, 0xa8), // indigo
        ];
        CYCLE[function_index % CYCLE.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_formatting() {
        assert_eq!(Color::rgb(0x1f, 0x77, 0xb4).hex(), "#1f77b4");
        assert_eq!(Color::rgb(0, 0, 0).to_string(), "#000000");
        // Every channel value against `core::fmt`'s `{:02x}`.
        for v in 0..=255u8 {
            let c = Color::rgb(v, 255 - v, v.wrapping_mul(7));
            let expected = format!("#{:02x}{:02x}{:02x}", c.r, c.g, c.b);
            let mut pushed = String::from("x");
            c.push_hex(&mut pushed);
            assert_eq!(pushed[1..], expected);
            assert_eq!(c.hex(), expected);
            assert_eq!(c.to_string(), expected);
        }
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Color::rgb(0, 0, 0);
        let b = Color::rgb(200, 100, 50);
        assert_eq!(Color::lerp(a, b, 0.0), a);
        assert_eq!(Color::lerp(a, b, 1.0), b);
        assert_eq!(Color::lerp(a, b, 0.5), Color::rgb(100, 50, 25));
        // Clamped outside [0,1].
        assert_eq!(Color::lerp(a, b, -3.0), a);
        assert_eq!(Color::lerp(a, b, 9.0), b);
    }

    #[test]
    fn heat_scale_is_cold_to_hot() {
        let cold = HeatScale.color(0.0);
        let hot = HeatScale.color(1.0);
        // Cold end is blue-dominant, hot end red-dominant.
        assert!(cold.b > cold.r);
        assert!(hot.r > hot.b);
        // Middle is light (near white).
        assert!(HeatScale.color(0.5).luminance() > 200.0);
    }

    #[test]
    fn heat_scale_warmth_increases_monotonically() {
        // On a diverging blue→white→red scale, red alone is not monotone
        // (it peaks at the white midpoint); the warmth r − b is.
        let mut prev = i32::MIN;
        for i in 0..=20 {
            let c = HeatScale.color(i as f64 / 20.0);
            let warmth = c.r as i32 - c.b as i32;
            assert!(warmth >= prev, "warmth must not decrease (step {i})");
            prev = warmth;
        }
    }

    #[test]
    fn color_scale_normalises() {
        let s = ColorScale::new(10.0, 20.0);
        assert_eq!(s.normalize(10.0), 0.0);
        assert_eq!(s.normalize(20.0), 1.0);
        assert_eq!(s.normalize(15.0), 0.5);
        assert_eq!(s.normalize(0.0), 0.0); // clamped
        assert_eq!(s.normalize(99.0), 1.0);
    }

    #[test]
    fn color_scale_fit_and_degenerate() {
        let s = ColorScale::fit([3.0, 7.0, 5.0]);
        assert_eq!((s.min, s.max), (3.0, 7.0));
        let constant = ColorScale::fit([4.0, 4.0]);
        assert_eq!(constant.normalize(4.0), 0.5);
        let empty = ColorScale::fit([]);
        assert_eq!((empty.min, empty.max), (0.0, 1.0));
    }

    #[test]
    fn from_values_ignores_non_finite() {
        let s = ColorScale::from_values([f64::NAN, 3.0, f64::INFINITY, 7.0]);
        assert_eq!((s.min, s.max), (3.0, 7.0));
        assert_eq!(s.normalize(5.0), 0.5);
    }

    #[test]
    fn from_values_all_equal_maps_to_midpoint() {
        let s = ColorScale::from_values([4.0, 4.0, 4.0]);
        assert_eq!(s.normalize(4.0), 0.5);
        // The midpoint of the heat scale is neutral white, not cold blue.
        assert!(s.heat(4.0).luminance() > 200.0);
    }

    #[test]
    fn from_values_single_value_maps_to_midpoint() {
        let s = ColorScale::from_values([42.0]);
        assert_eq!(s.normalize(42.0), 0.5);
        assert!(s.heat(42.0).luminance() > 200.0);
    }

    #[test]
    fn from_values_all_nan_maps_to_midpoint() {
        let s = ColorScale::from_values([f64::NAN, f64::NAN]);
        assert_eq!(s.normalize(f64::NAN), 0.5);
        assert_eq!(s.normalize(1.0), 0.5);
        assert!(s.heat(f64::NAN).luminance() > 200.0);
    }

    /// Regression: NaN metric values used to flow through `normalize`
    /// unclamped (`clamp` propagates NaN) and saturate to 0 in colour
    /// interpolation — rendering as the cold end of the scale instead of
    /// the neutral midpoint.
    #[test]
    fn normalize_never_returns_nan() {
        let s = ColorScale::new(10.0, 20.0);
        assert_eq!(s.normalize(f64::NAN), 0.5);
        assert_eq!(s.normalize(f64::INFINITY), 0.5);
        assert_eq!(s.normalize(f64::NEG_INFINITY), 0.5);
        assert!(s.heat(f64::NAN).luminance() > 200.0);
    }

    #[test]
    fn palette_mpi_is_red_family() {
        let p = FunctionPalette;
        for role in [
            FunctionRole::MpiCollective,
            FunctionRole::MpiPointToPoint,
            FunctionRole::MpiWait,
        ] {
            let c = p.role_color(role);
            assert!(c.r > c.g && c.r > c.b, "{role:?} should be reddish");
        }
    }

    #[test]
    fn palette_compute_functions_distinguishable() {
        let p = FunctionPalette;
        let c0 = p.function_color(0, FunctionRole::Compute);
        let c1 = p.function_color(1, FunctionRole::Compute);
        assert_ne!(c0, c1);
        // MPI role ignores the function index.
        assert_eq!(
            p.function_color(0, FunctionRole::MpiWait),
            p.function_color(5, FunctionRole::MpiWait)
        );
    }
}
