//! Communication-matrix heatmap rendering.
//!
//! The process×process communication matrix is the classic trace-browser
//! companion to the master timeline: who talks to whom, and how much.
//! Cells are coloured on the cold→hot scale by message count or payload
//! bytes.

use crate::color::{Color, ColorScale};
use crate::text::{push_fixed, xml_escape};
use perfvar_analysis::messages::CommMatrix;
use perfvar_trace::Trace;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Which quantity colours the matrix cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommQuantity {
    /// Number of messages per sender→receiver pair.
    Count,
    /// Payload bytes per sender→receiver pair.
    Bytes,
}

/// Renders the communication matrix of `comm` as a standalone SVG
/// (senders on the y-axis, receivers on the x-axis).
pub fn render_comm_matrix_svg(
    trace: &Trace,
    comm: &CommMatrix,
    quantity: CommQuantity,
    size: u32,
) -> String {
    render_comm_matrix_with(trace, comm, quantity, size, push_cell)
}

/// Fill of cells without traffic.
const EMPTY_CELL: Color = Color::rgb(0xf4, 0xf4, 0xf4);

/// Appends one matrix cell: a square `<rect>` at (x, y) with one
/// decimal and side `w` with two. Byte-identical to the `write!` form
/// `<rect x="{x:.1}" y="{y:.1}" width="{w:.2}" height="{w:.2}" fill="{c}"/>`.
fn push_cell(svg: &mut String, [x, y, w]: [f64; 3], color: Color) {
    svg.push_str("<rect x=\"");
    push_fixed(svg, x, 1);
    svg.push_str("\" y=\"");
    push_fixed(svg, y, 1);
    svg.push_str("\" width=\"");
    push_fixed(svg, w, 2);
    svg.push_str("\" height=\"");
    push_fixed(svg, w, 2);
    svg.push_str("\" fill=\"");
    color.push_hex(svg);
    svg.push_str("\"/>");
}

/// [`render_comm_matrix_svg`] with the cell writer as a parameter, so
/// tests can render the same document through the `write!` oracle.
fn render_comm_matrix_with(
    trace: &Trace,
    comm: &CommMatrix,
    quantity: CommQuantity,
    size: u32,
    cell_rect: impl Fn(&mut String, [f64; 3], Color),
) -> String {
    let n = comm.dim().max(1);
    let margin = 60.0;
    let title_h = 28.0;
    let plot = size as f64 - 2.0 * margin;
    let cell = plot / n as f64;
    let values = |i: usize, j: usize| -> u64 {
        match quantity {
            CommQuantity::Count => comm.counts[i][j],
            CommQuantity::Bytes => comm.bytes[i][j],
        }
    };
    let scale = ColorScale::from_values(
        (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| values(i, j) as f64)
            .filter(|v| *v > 0.0),
    );

    let mut svg = String::new();
    let total_h = size as f64 + title_h;
    let _ = write!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{total_h:.0}" font-family="Helvetica,Arial,sans-serif">"##
    );
    let _ = write!(
        svg,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );
    let what = match quantity {
        CommQuantity::Count => "messages",
        CommQuantity::Bytes => "bytes",
    };
    let _ = write!(
        svg,
        r##"<text x="{margin}" y="18" font-size="13" font-weight="bold">Communication matrix ({what}) — {t}</text>"##,
        t = xml_escape(&trace.name)
    );
    let _ = write!(svg, r##"<g shape-rendering="crispEdges">"##);
    let w = (cell - cell.min(1.0) * 0.1).max(0.3);
    for i in 0..n {
        let y = title_h + margin + i as f64 * cell;
        for j in 0..n {
            let v = values(i, j);
            let color = if v == 0 {
                EMPTY_CELL
            } else {
                scale.heat(v as f64)
            };
            cell_rect(&mut svg, [margin + j as f64 * cell, y, w], color);
        }
    }
    let _ = write!(svg, "</g>");
    // Axis labels: a handful of process indices.
    let label_step = n.div_ceil(12).max(1);
    for k in (0..n).step_by(label_step) {
        let _ = write!(
            svg,
            r##"<text x="{x:.1}" y="{y:.1}" font-size="9" text-anchor="middle" fill="#333333">{k}</text>"##,
            x = margin + (k as f64 + 0.5) * cell,
            y = title_h + margin - 6.0
        );
        let _ = write!(
            svg,
            r##"<text x="{x:.1}" y="{y:.1}" font-size="9" text-anchor="end" fill="#333333">{k}</text>"##,
            x = margin - 6.0,
            y = title_h + margin + (k as f64 + 0.6) * cell
        );
    }
    let _ = write!(
        svg,
        r##"<text x="{x:.1}" y="{y:.1}" font-size="10" fill="#555555">receiver →  /  sender ↓</text>"##,
        x = margin,
        y = title_h + margin + plot + 18.0
    );
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvar_analysis::messages::MessageAnalysis;
    use perfvar_sim::prelude::*;

    #[test]
    fn comm_matrix_svg_renders() {
        let trace = simulate(&workloads::CosmoSpecsFd4::small(6, 2).spec()).unwrap();
        let analysis = MessageAnalysis::match_trace(&trace);
        let comm = analysis.comm_matrix(trace.num_processes());
        for q in [CommQuantity::Count, CommQuantity::Bytes] {
            let svg = render_comm_matrix_svg(&trace, &comm, q, 480);
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
            // n×n cells plus background.
            assert!(svg.matches("<rect").count() >= 36);
        }
    }

    #[test]
    fn ring_traffic_sits_off_diagonal() {
        let trace = simulate(&workloads::CosmoSpecsFd4::small(4, 1).spec()).unwrap();
        let analysis = MessageAnalysis::match_trace(&trace);
        let comm = analysis.comm_matrix(4);
        // Ring: each rank sends only to (rank+1) % 4.
        for i in 0..4 {
            for j in 0..4 {
                let expected = if (i + 1) % 4 == j { 3 } else { 0 };
                assert_eq!(comm.counts[i][j], expected, "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_matrix_renders() {
        let trace = simulate(&workloads::BalancedStencil::new(2, 2).spec()).unwrap();
        let analysis = MessageAnalysis::match_trace(&trace);
        let comm = analysis.comm_matrix(2);
        let svg = render_comm_matrix_svg(&trace, &comm, CommQuantity::Count, 240);
        assert!(svg.ends_with("</svg>"));
    }

    /// The `write!` cell writer [`push_cell`] replaced, kept as its
    /// oracle.
    fn cell_oracle(svg: &mut String, [x, y, w]: [f64; 3], color: Color) {
        let _ = write!(
            svg,
            r##"<rect x="{x:.1}" y="{y:.1}" width="{w:.2}" height="{w:.2}" fill="{c}"/>"##,
            c = color.hex()
        );
    }

    #[test]
    fn comm_matrix_svg_matches_write_oracle() {
        for trace in crate::chart::testing::oracle_traces() {
            let comm = MessageAnalysis::match_trace(&trace).comm_matrix(trace.num_processes());
            for q in [CommQuantity::Count, CommQuantity::Bytes] {
                for size in [720, 241] {
                    assert_eq!(
                        render_comm_matrix_svg(&trace, &comm, q, size),
                        render_comm_matrix_with(&trace, &comm, q, size, cell_oracle),
                        "{}",
                        trace.name
                    );
                }
            }
        }
    }
}
