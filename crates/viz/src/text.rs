//! Text helpers shared by the SVG writers: XML escaping and exact
//! fixed-point formatting of coordinates without `core::fmt` floats.

use std::fmt::Write as _;

/// Escapes a string for use in XML text and attribute values.
pub(crate) fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

const POW10: [u64; 4] = [1, 10, 100, 1000];

/// Appends `v` formatted exactly as `format!("{v:.prec$}")` does.
///
/// A finite `v` is `±m·2^-k` exactly. For `prec ≤ 3` and `1 ≤ k ≤ 63`
/// (every coordinate the SVG writers emit) `m·10^prec < 2^63`, so
/// `|v|·10^prec` is the integer quotient of `m·10^prec` by `2^k` plus
/// an exact remainder, rounded half to even — the rounding `core::fmt`
/// applies to the exact binary value. The sign is written for every
/// negative input, `-0.0` and values rounding to zero included, as
/// `core::fmt` does. Larger or smaller magnitudes, NaN, infinities and
/// higher precisions go through `write!`.
pub(crate) fn push_fixed(out: &mut String, v: f64, prec: usize) {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let fraction = bits & ((1 << 52) - 1);
    let (m, k) = if biased == 0 && fraction == 0 {
        (0, 1)
    } else {
        // Subnormals (biased 0) get k = 1075 and NaN/inf k < 0: both
        // fall back below.
        (fraction | 1 << 52, 1075 - biased)
    };
    if prec >= POW10.len() || !(1..=63).contains(&k) {
        let _ = write!(out, "{v:.prec$}");
        return;
    }
    let scaled = m * POW10[prec];
    let mut q = scaled >> k;
    let rem = scaled & ((1u64 << k) - 1);
    let half = 1u64 << (k - 1);
    if rem > half || (rem == half && q & 1 == 1) {
        q += 1;
    }
    if bits >> 63 == 1 {
        out.push('-');
    }
    push_u64(out, q / POW10[prec]);
    if prec > 0 {
        out.push('.');
        let frac = q % POW10[prec];
        for p in POW10[..prec].iter().rev() {
            out.push(char::from(b'0' + (frac / p % 10) as u8));
        }
    }
}

/// Appends the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&b| char::from(b)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed(v: f64, prec: usize) -> String {
        let mut out = String::new();
        push_fixed(&mut out, v, prec);
        out
    }

    /// `v` and the two values one ulp larger and smaller in magnitude.
    fn with_neighbours(v: f64) -> [f64; 3] {
        let bits = v.to_bits();
        [
            v,
            f64::from_bits(bits.wrapping_add(1)),
            f64::from_bits(bits.wrapping_sub(1)),
        ]
    }

    fn assert_matches_fmt(v: f64, prec: usize) {
        assert_eq!(fixed(v, prec), format!("{v:.prec$}"), "{v:e} at {prec}");
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(xml_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn edge_values_match_core_fmt() {
        let edges = [
            0.0,
            -0.0,
            0.125,
            0.375,
            2.5,
            1.5,
            0.5,
            -0.5,
            -0.4,
            -0.04,
            -0.0004,
            0.0005,
            0.05,
            0.25,
            0.35,
            1.0,
            110.0,
            1175.995,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1e-300,
            1e-19,
            2f64.powi(-11),
            2f64.powi(52),
            2f64.powi(52) - 0.5,
            2f64.powi(53),
            1e300,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges {
            for prec in 0..=5 {
                assert_matches_fmt(v, prec);
            }
        }
    }

    /// Every `k/10^p` and its neighbours one ulp away: the values whose
    /// correct rounding depends on the exact binary remainder.
    #[test]
    fn decimal_grid_and_neighbours_match_core_fmt() {
        for (prec, &scale) in POW10.iter().enumerate() {
            let scale = scale as f64;
            for k in -20_000i64..=20_000 {
                for w in with_neighbours(k as f64 / scale) {
                    assert_matches_fmt(w, prec);
                }
                // The exact midpoints between grid values (binary ties
                // when representable, e.g. 0.125 at prec 2).
                for w in with_neighbours((k as f64 + 0.5) / scale) {
                    assert_matches_fmt(w, prec);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn random_bit_patterns_match_core_fmt(bits in 0..=u64::MAX, prec in 0..=3usize) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(fixed(v, prec), format!("{v:.prec$}"));
        }

        /// Random mantissas at every exponent of the integer path, its
        /// two fallback neighbours included, plus random subnormals.
        #[test]
        fn random_mantissas_match_core_fmt(
            mantissa in 0..(1u64 << 52),
            biased in 1011..=1075u64,
            negative in 0..=1u64,
            prec in 0..=3usize,
        ) {
            for bits in [negative << 63 | biased << 52 | mantissa, negative << 63 | mantissa] {
                let v = f64::from_bits(bits);
                prop_assert_eq!(fixed(v, prec), format!("{v:.prec$}"));
            }
        }

        #[test]
        fn svg_range_values_match_core_fmt(
            v in -5000.0..5000.0f64,
            prec in 0..=3usize,
            ulps in 0..=4u64,
        ) {
            let w = f64::from_bits(v.to_bits() + ulps);
            prop_assert_eq!(fixed(w, prec), format!("{w:.prec$}"));
        }

        #[test]
        fn ties_round_half_to_even(k in 0..=1_000_000u64, shift in 1..=20i32, negative in 0..=1u8) {
            // (2k+1)/2^shift is an exact binary value; at the precision
            // that cuts it mid-way core::fmt must see a tie or a near-tie.
            let mut v = (2 * k + 1) as f64 / 2f64.powi(shift);
            if negative == 1 {
                v = -v;
            }
            for prec in 0..=3usize {
                prop_assert_eq!(fixed(v, prec), format!("{v:.prec$}"));
            }
        }
    }
}
