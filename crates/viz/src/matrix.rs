//! Communication-matrix heatmap rendering.
//!
//! The process×process communication matrix is the classic trace-browser
//! companion to the master timeline: who talks to whom, and how much.
//! Cells are coloured on the cold→hot scale by message count or payload
//! bytes.

use crate::color::{Color, ColorScale};
use crate::text::{push_fixed, xml_escape};
use perfvar_analysis::messages::CommMatrix;
use perfvar_trace::{Trace, TraceMeta};
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
/// (senders on the y-axis, receivers on the x-axis). One rect paints
/// the empty matrix and only cells with traffic are drawn over it; when
/// a cell would be narrower than a pixel, ranks are grouped into square
/// blocks coloured by their summed traffic, so the plot holds at most
/// `plot²` cells whatever the rank count.
pub fn render_comm_matrix_svg(
    trace: &Trace,
    comm: &CommMatrix,
    quantity: CommQuantity,
    size: u32,
) -> String {
    render_comm_matrix_with(&trace.name, comm, quantity, size, push_rect)
}

/// [`render_comm_matrix_svg`] from trace metadata alone.
pub fn render_comm_matrix_svg_meta(
    meta: &TraceMeta,
    comm: &CommMatrix,
    quantity: CommQuantity,
    size: u32,
) -> String {
    render_comm_matrix_with(&meta.name, comm, quantity, size, push_rect)
}

/// Fill of cells without traffic.
const EMPTY_CELL: Color = Color::rgb(0xf4, 0xf4, 0xf4);

/// Appends one `<rect>` at (x, y) with one decimal and size `w`×`h`
/// with two. Byte-identical to the `write!` form
/// `<rect x="{x:.1}" y="{y:.1}" width="{w:.2}" height="{h:.2}" fill="{c}"/>`.
fn push_rect(svg: &mut String, [x, y, w, h]: [f64; 4], color: Color) {
    svg.push_str("<rect x=\"");
    push_fixed(svg, x, 1);
    svg.push_str("\" y=\"");
    push_fixed(svg, y, 1);
    svg.push_str("\" width=\"");
    push_fixed(svg, w, 2);
    svg.push_str("\" height=\"");
    push_fixed(svg, h, 2);
    svg.push_str("\" fill=\"");
    color.push_hex(svg);
    svg.push_str("\"/>");
}

/// The summed `quantity` of every `block`×`block` group of cells with
/// traffic, as `(block row, block column, sum)` in row-major order.
fn block_sums(comm: &CommMatrix, quantity: CommQuantity, block: usize) -> Vec<(usize, usize, u64)> {
    let blocks = comm.dim().div_ceil(block);
    let mut row = vec![0u64; blocks];
    let mut sums = Vec::new();
    let mut cells = comm.cells();
    for block_row in 0..blocks {
        let end = cells.partition_point(|c| c.from.index() < (block_row + 1) * block);
        for c in &cells[..end] {
            row[c.to.index() / block] += match quantity {
                CommQuantity::Count => c.count,
                CommQuantity::Bytes => c.bytes,
            };
        }
        cells = &cells[end..];
        for (block_col, sum) in row.iter_mut().enumerate() {
            if *sum > 0 {
                sums.push((block_row, block_col, std::mem::take(sum)));
            }
        }
    }
    sums
}

/// [`render_comm_matrix_svg`] with the rect writer as a parameter, so
/// tests can render the same document through the `write!` oracle.
fn render_comm_matrix_with(
    name: &str,
    comm: &CommMatrix,
    quantity: CommQuantity,
    size: u32,
    rect: impl Fn(&mut String, [f64; 4], Color),
) -> String {
    let n = comm.dim().max(1);
    let margin = 60.0;
    let title_h = 28.0;
    let plot = size as f64 - 2.0 * margin;
    let cell = plot / n as f64;
    // Ranks per block side: one while a cell is at least a pixel wide,
    // else the fewest that make a block at least a pixel wide.
    let block = n.div_ceil((plot as usize).max(1)).max(1);
    let sums = block_sums(comm, quantity, block);
    let scale = ColorScale::from_values(sums.iter().map(|&(_, _, v)| v as f64));

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
        t = xml_escape(name)
    );
    let _ = write!(svg, r##"<g shape-rendering="crispEdges">"##);
    let top = title_h + margin;
    rect(&mut svg, [margin, top, plot, plot], EMPTY_CELL);
    // A block's side in pixels, less a gap, for a block `span` ranks
    // wide (the last block row and column may be narrower).
    let side = |span: usize| {
        let s = span as f64 * cell;
        (s - s.min(1.0) * 0.1).max(0.3)
    };
    for (block_row, block_col, v) in sums {
        let (i, j) = (block_row * block, block_col * block);
        rect(
            &mut svg,
            [
                margin + j as f64 * cell,
                top + i as f64 * cell,
                side(block.min(n - j)),
                side(block.min(n - i)),
            ],
            scale.heat(v as f64),
        );
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
    use perfvar_analysis::messages::{MatchedMessage, MessageAnalysis};
    use perfvar_sim::prelude::*;
    use perfvar_trace::{Clock, ProcessId, Timestamp, TraceBuilder};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The rects inside the plot group: the empty-matrix background
    /// first, then one per drawn cell.
    fn plot_rects(svg: &str) -> Vec<&str> {
        let group = svg
            .split_once(r#"<g shape-rendering="crispEdges">"#)
            .and_then(|(_, rest)| rest.split_once("</g>"))
            .expect("plot group")
            .0;
        group.split_inclusive("/>").collect()
    }

    #[test]
    fn comm_matrix_svg_renders() {
        let trace = simulate(&workloads::CosmoSpecsFd4::small(6, 2).spec()).unwrap();
        let analysis = MessageAnalysis::match_trace(&trace);
        let comm = analysis.comm_matrix(trace.num_processes());
        for q in [CommQuantity::Count, CommQuantity::Bytes] {
            let svg = render_comm_matrix_svg(&trace, &comm, q, 480);
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
            // Page and plot backgrounds plus one rect per pair with
            // traffic (the 6-rank ring's 6 cells).
            assert_eq!(comm.cells().len(), 6);
            assert_eq!(svg.matches("<rect").count(), 2 + 6);
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
                let cell = comm.cell(ProcessId::from_index(i), ProcessId::from_index(j));
                assert_eq!(cell.map_or(0, |c| c.count), expected, "({i},{j})");
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
        assert_eq!(plot_rects(&svg).len(), 1, "only the empty-matrix rect");
    }

    /// The `write!` rect writer [`push_rect`] replaced, kept as its
    /// oracle.
    fn rect_oracle(svg: &mut String, [x, y, w, h]: [f64; 4], color: Color) {
        let _ = write!(
            svg,
            r##"<rect x="{x:.1}" y="{y:.1}" width="{w:.2}" height="{h:.2}" fill="{c}"/>"##,
            c = color.hex()
        );
    }

    #[test]
    fn comm_matrix_svg_matches_write_oracle() {
        for trace in crate::chart::testing::oracle_traces() {
            let comm = MessageAnalysis::match_trace(&trace).comm_matrix(trace.num_processes());
            for q in [CommQuantity::Count, CommQuantity::Bytes] {
                // 125 leaves a 5-px plot: every trace here is aggregated.
                for size in [720, 241, 125] {
                    assert_eq!(
                        render_comm_matrix_svg(&trace, &comm, q, size),
                        render_comm_matrix_with(&trace.name, &comm, q, size, rect_oracle),
                        "{}",
                        trace.name
                    );
                }
            }
        }
    }

    /// The cell rects a dense `counts`/`bytes` matrix should draw at
    /// `size`: ranks grouped into the fewest per block side that fit
    /// the plot in at most `plot` blocks per side (one rank while they
    /// fit), every block with a non-zero sum in row-major order,
    /// coloured on the scale of those sums.
    fn dense_oracle_rects(values: &[Vec<u64>], size: u32) -> Vec<String> {
        let n = values.len();
        let plot = size as f64 - 120.0;
        let cell = plot / n as f64;
        let block = (1..=n)
            .find(|&b| n.div_ceil(b) <= plot as usize)
            .unwrap_or(n);
        let mut sums = Vec::new();
        for bi in (0..n).step_by(block) {
            for bj in (0..n).step_by(block) {
                let sum: u64 = (bi..(bi + block).min(n))
                    .flat_map(|i| (bj..(bj + block).min(n)).map(move |j| (i, j)))
                    .map(|(i, j)| values[i][j])
                    .sum();
                if sum > 0 {
                    sums.push((bi, bj, sum));
                }
            }
        }
        let scale = ColorScale::from_values(sums.iter().map(|&(_, _, v)| v as f64));
        let side = |span: usize| {
            let s = span as f64 * cell;
            (s - s.min(1.0) * 0.1).max(0.3)
        };
        sums.into_iter()
            .map(|(i, j, v)| {
                let mut rect = String::new();
                let (w, h) = (side(block.min(n - j)), side(block.min(n - i)));
                let (x, y) = (60.0 + j as f64 * cell, 88.0 + i as f64 * cell);
                rect_oracle(&mut rect, [x, y, w, h], scale.heat(v as f64));
                rect
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Up to 300 ranks on 5-, 121- and 600-px plots: at one rank per
        /// block the drawn cells are exactly the dense matrix's non-zero
        /// cells in their colours; aggregated, they are its non-zero
        /// block sums, at most `plot²` of them.
        #[test]
        fn drawn_cells_match_the_dense_matrix(
            n in 1usize..300,
            raw in vec((0usize..300, 0usize..300, 0u64..4), 0..200),
            size_pick in 0usize..3,
        ) {
            let size = [125u32, 241, 720][size_pick];
            let messages: Vec<MatchedMessage> = raw
                .iter()
                .map(|&(from, to, bytes)| MatchedMessage {
                    from: ProcessId::from_index(from % n),
                    to: ProcessId::from_index(to % n),
                    tag: 0,
                    bytes,
                    send_time: Timestamp(0),
                    recv_time: Timestamp(1),
                })
                .collect();
            let mut counts = vec![vec![0u64; n]; n];
            let mut bytes = vec![vec![0u64; n]; n];
            for m in &messages {
                counts[m.from.index()][m.to.index()] += 1;
                bytes[m.from.index()][m.to.index()] += m.bytes;
            }
            let comm = MessageAnalysis { messages, unmatched_sends: 0, unmatched_recvs: 0 }
                .comm_matrix(n);
            let trace = TraceBuilder::new(Clock::microseconds()).finish().unwrap();
            let plot = size as usize - 120;
            for (q, dense) in [(CommQuantity::Count, &counts), (CommQuantity::Bytes, &bytes)] {
                let svg = render_comm_matrix_svg(&trace, &comm, q, size);
                let rects = plot_rects(&svg);
                let mut background = String::new();
                push_rect(&mut background, [60.0, 88.0, plot as f64, plot as f64], EMPTY_CELL);
                prop_assert_eq!(rects[0], background.as_str());
                let expected = dense_oracle_rects(dense, size);
                prop_assert_eq!(&rects[1..], expected.as_slice());
                prop_assert!(rects.len() - 1 <= plot * plot);
            }
        }
    }
}
